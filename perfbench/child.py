"""Child process of the benchmark: runs one `stance` command in this fresh
process through `rumourstance.cli.main`.

    child.py [--spans FILE] STANCE_ARGS...   run a command; with --spans,
                                             trace it and write the spans
    child.py --setup CORPUS                  time import + bundle + corpus load

`rumourstance` is found through PYTHONPATH, which the benchmark points at
the checkout's `src`.
"""

from __future__ import annotations

import json
import sys
import time


def setup(corpus: str) -> int:
    start = time.perf_counter()
    import rumourstance.cli  # noqa: F401  (the import is what is timed)
    from rumourstance.bundled import default_bundle_path
    from rumourstance.corpus import load_dataset
    from rumourstance.resources import load_bundle

    load_bundle(default_bundle_path())
    load_dataset(corpus)
    elapsed = time.perf_counter() - start
    import numpy

    print(json.dumps({"setup_s": elapsed, "numpy": numpy.__version__}))
    return 0


def traced(spans_path: str, args: list) -> int:
    import rumourstance.cli
    from spans import SpanRecorder
    from tracepoints import install

    recorder = SpanRecorder()
    absent = install(recorder)
    try:
        code = rumourstance.cli.main(args)
    finally:
        recorder.restore()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"absent": absent,
                   "spans": [s.to_dict() for s in recorder.spans]}, fh)
    return code


def main(argv: list) -> int:
    if argv[:1] == ["--setup"]:
        return setup(argv[1])
    if argv[:1] == ["--spans"]:
        return traced(argv[1], argv[2:])
    import rumourstance.cli

    return rumourstance.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

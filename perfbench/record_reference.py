"""Record `reference.json`: for every workload, input variant and command,
the digest of the command's prediction-bearing output.

    python3 perfbench/record_reference.py

Run it from the root of a checkout of the commit whose outputs are the
reference. Commands with `reference_args` are recorded with those (the
`--jobs 2` workload against its `--jobs 1` output). Re-record only when a
change is meant to alter predictions.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import corpusgen
from run import HERE, REFERENCE_VARIANTS, Runner
from workloads import WORKLOADS, output_digest


def record(workload: str, runner: Runner, work: Path) -> dict:
    digests = {command.name: [] for command in WORKLOADS[workload]}
    for variant in range(REFERENCE_VARIANTS):
        inputs = corpusgen.write_inputs(variant, work / "inputs")
        out = work / f"{workload}-{variant}"
        out.mkdir()
        paths = {"corpus": str(inputs["corpus"]),
                 "export": str(inputs["export"]), "out": str(out)}
        for command in WORKLOADS[workload]:
            run = runner.run_child(command.argv(paths, reference=True),
                                   out / command.name)
            if run["code"] != 0:
                raise SystemExit(f"{workload} variant {variant}: {command.name} "
                                 f"exited {run['code']}")
            digests[command.name].append(output_digest(command, out))
        shutil.rmtree(out)
        print(f"{workload} variant {variant} recorded", file=sys.stderr)
    return digests


def main() -> int:
    reference = {}
    root = Path.cwd()
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    try:
        runner = Runner(root, work)
        for workload in sorted(WORKLOADS):
            reference[workload] = record(workload, runner, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

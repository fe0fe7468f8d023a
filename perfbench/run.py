"""Benchmark of the `stance` pipeline on a generated four-event corpus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It runs the workload's `stance`
commands again and again for S seconds, closed loop: one command at a time,
each in a fresh child process through `rumourstance.cli.main`. The inputs
are generated (`corpusgen.py`) in REFERENCE_VARIANTS variants; pass i of a
run uses variant (N + i) mod REFERENCE_VARIANTS (i // 2 with --trace 1),
so that a run's medians mix several corpora and differ less from seed to
seed. Every command's prediction-bearing output is checked against the
variant's entry in `reference.json`, recorded from the seed commit by
`record_reference.py`.

With --trace 0 the last line of standard output reports the end-to-end
metrics, each the median over the passes of the run (a pass runs the
workload's commands once): wall_s, cpu_s and peak_rss_mb of the commands,
setup_s (import plus bundle and corpus load in a fresh process, median of
SETUP_SAMPLES), accuracy, and success_ratio (1 - failed/attempted, so that
no metric reads 0). With --trace 1, passes alternate between untraced and
traced, and the line reports the per-layer metrics of `tracepoints.py`,
with the tracing overhead as trace.overhead_s. Earlier lines record the
machine and the failure count.

Without the program's sources in the working directory it exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import corpusgen
import tracepoints
from workloads import WORKLOADS, accuracy, check

HERE = Path(__file__).resolve().parent
REFERENCE_VARIANTS = 32
SETUP_SAMPLES = 7
COMMAND_TIMEOUT_S = 150.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Runner:
    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        src = str(root / "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src if not pythonpath else f"{src}{os.pathsep}{pythonpath}")

    def run_child(self, args: list, log: Path) -> dict:
        """Run child.py with `args`; wall, CPU and peak RSS of that process."""
        start = time.perf_counter()
        with open(log.with_suffix(".out"), "wb") as out, \
                open(log.with_suffix(".err"), "wb") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                    stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "code": proc.returncode,
            "wall_s": time.perf_counter() - start,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,   # Linux reports KiB
        }

    def setup_sample(self, corpus: Path, index: int) -> dict:
        log = self.work / f"setup{index}"
        result = self.run_child(["--setup", str(corpus)], log)
        if result["code"] != 0:
            tail = log.with_suffix(".err").read_text(errors="replace")[-2000:]
            raise BenchError(f"set-up probe failed ({result['code']}):\n{tail}")
        lines = log.with_suffix(".out").read_text().splitlines()
        return json.loads(lines[-1])


def run_pass(runner: Runner, workload: str, index: int, inputs: dict,
             expected: dict, traced: bool) -> dict:
    """Run the workload's commands once on `inputs`, checking each against
    the `expected` digests."""
    out = runner.work / f"pass{index}"
    out.mkdir()
    paths = {"corpus": str(inputs["corpus"]), "export": str(inputs["export"]),
             "out": str(out)}
    result = {"traced": traced, "wall_s": 0.0, "cpu_s": 0.0, "rss_mb": 0.0,
              "attempted": 0, "failed": 0, "spans": [], "absent": set()}
    for command in WORKLOADS[workload]:
        args = command.argv(paths)
        spans_file = out / f"{command.name}.spans.json"
        if traced:
            args = ["--spans", str(spans_file), *args]
        run = runner.run_child(args, out / command.name)
        result["wall_s"] += run["wall_s"]
        result["cpu_s"] += run["cpu_s"]
        result["rss_mb"] = max(result["rss_mb"], run["rss_mb"])
        result["attempted"] += 1
        failure = check(command, run["code"], out, expected.get(command.name))
        if failure is None and traced:
            trace = json.loads(spans_file.read_text(encoding="utf-8"))
            result["spans"].append(trace["spans"])
            result["absent"].update(trace["absent"])
        if failure is not None:
            result["failed"] += 1
            err = (out / command.name).with_suffix(".err")
            print(f"pass {index} {command.name} FAILED: {failure}\n"
                  f"{err.read_text(errors='replace')[-2000:]}", file=sys.stderr)
    if result["failed"] == 0:
        result["accuracy"] = accuracy(workload, out, inputs["export_labels"])
    shutil.rmtree(out)
    return result


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def end_to_end(passes: list, setups: list) -> dict:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    accuracies = [p["accuracy"] for p in passes if "accuracy" in p]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "accuracy": (statistics.median(accuracies) if accuracies else 0.0, "ratio"),
        "success_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(passes: list) -> dict:
    """Per-layer metrics of the traced passes; prints what the metrics
    leave out: absent trace points, fold sample count, layer shares."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    layer_passes, folds, shares = [], [], []
    for p in traced:
        metrics, durations, share = tracepoints.pass_metrics(p["spans"])
        layer_passes.append(metrics)
        folds.extend(durations)
        shares.append(share)
    metrics, tail = tracepoints.run_metrics(layer_passes, folds)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    absent = sorted(set().union(*(p["absent"] for p in traced)))
    print("absent trace points: " + (", ".join(absent) or "none"))
    print(f"fold samples {len(folds)}, tail percentile p{tail}")
    print("share of command time: " + ", ".join(
        f"{layer} {statistics.median(s[layer] for s in shares):.3f}"
        for layer in shares[0]))
    return {name: (value, tracepoints.PER_LAYER_UNITS[name])
            for name, value in metrics.items()}


def reference_digests(workload: str) -> dict:
    """Per command of the workload, the reference digest of each variant."""
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return reference[workload]


def measure(args, root: Path, work: Path) -> dict:
    reference = reference_digests(args.workload)
    host = machine()
    runner = Runner(root, work)

    def variant_of(index: int) -> tuple:
        variant = (args.seed + index) % REFERENCE_VARIANTS
        inputs = work / "inputs" / str(variant)
        return variant, corpusgen.write_inputs(variant, inputs)

    # set-up samples are spread over the run, between passes and outside
    # their timing, so that one slow moment of the machine moves few of them;
    # the first also shows that the program can run here at all
    _, first = variant_of(0)
    setups = []

    def setup_sample() -> None:
        setups.append(runner.setup_sample(first["corpus"], len(setups)))

    setup_sample()
    host["numpy"] = setups[0]["numpy"]
    print("machine " + json.dumps(host, sort_keys=True))

    passes = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        index = len(passes)
        # a traced pass runs on the variant of the untraced pass before it,
        # so that their difference is the tracing overhead
        variant, inputs = variant_of(index // 2 if args.trace else index)
        expected = {name: digests[variant] for name, digests in reference.items()}
        traced = args.trace == 1 and index % 2 == 1
        passes.append(run_pass(runner, args.workload, index, inputs,
                               expected, traced))
        now = time.perf_counter()
        if now >= deadline and (args.trace == 0 or len(passes) >= 2):
            break
        if args.trace == 0 and now - start >= len(setups) * args.seconds / SETUP_SAMPLES:
            setup_sample()
    while args.trace == 0 and len(setups) < SETUP_SAMPLES:
        setup_sample()

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} commands attempted, {failed} failed, "
          f"fail_ratio {failed / attempted:.4f}")
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.3f}{'t' * p['traced']}"
                                      for p in passes))
    if args.trace == 0:
        metrics = end_to_end(passes, setups)
    else:
        metrics = per_layer(passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rumourstance" / "cli.py").is_file():
        print(f"error: no rumourstance sources under {root / 'src'}", file=sys.stderr)
        return 2
    scratch = root / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result = measure(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:   # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every `stance` command on the bundled corpora and keep all it writes.

    PYTHONPATH=<checkout>/src python3 scripts/command_outputs.py OUT

OUT must not exist. The micro and Ottawa corpora are copied into it, along
with a train/test split of each that holds out every third sorted rumour.
Each command then runs from OUT through `rumourstance.cli.main`, with
relative paths and `--seed 1`, writing into its own directory, where its
stdout, stderr and exit code go beside its outputs; a command that raises
anything but a `StanceError` gets exit code 1, as the `stance` script would,
and the exception's type name in exception.txt. `featurize`, and `train`
followed by `predict`, also run on a subset of the feature groups, and on
micro-longpunct: micro with its first reply's text replaced by a
3,000-character punctuation run and a word.

Outputs depend only on the program, so running this once with each of two
checkouts' `src` on PYTHONPATH and comparing the results with `diff -r`
shows whether a change altered what any command writes or prints on valid
input.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

from rumourstance import cli
from rumourstance.bundled import micro_corpus_path, ottawa_path

LEARNERS = ("tree", "forest", "knn")
# a subset of feature groups, so that the commands drop columns
SOME_GROUPS = "BOW,NE,MOOD,AF_ITS,AF_IQ"
# the micro-longpunct reply: one chunk of 3,000 punctuation marks and a word
LONGPUNCT = "!?" * 1500 + "word"


def write_split(corpus: str) -> None:
    """<corpus>-train.jsonl and <corpus>-test.jsonl: the lines of every
    third sorted rumour go to the test file, the rest to the train file."""
    lines = Path(f"{corpus}.jsonl").read_bytes().splitlines(keepends=True)
    rumour_of = [json.loads(line)["rumour_id"] for line in lines]
    held_out = set(sorted(set(rumour_of))[2::3])
    for part, in_test in (("train", False), ("test", True)):
        Path(f"{corpus}-{part}.jsonl").write_bytes(b"".join(
            line for line, rumour in zip(lines, rumour_of) if (rumour in held_out) == in_test))


def write_longpunct() -> None:
    """micro-longpunct.jsonl: micro with its first reply's text replaced."""
    lines = Path("micro.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    reply = next(i for i, line in enumerate(lines) if json.loads(line)["in_reply_to"])
    lines[reply] = json.dumps({**json.loads(lines[reply]), "text": LONGPUNCT}) + "\n"
    Path("micro-longpunct.jsonl").write_text("".join(lines), encoding="utf-8")


def longpunct_commands():
    """(output directory, argv) of each command run on micro-longpunct."""
    data, seed = "micro-longpunct.jsonl", ["--seed", "1"]
    yield "micro-longpunct/featurize", ["featurize", "--dataset", data, *seed]
    yield "micro-longpunct/train-tree", [
        "train", "--dataset", data, "--classifier", "tree", *seed]
    yield "micro-longpunct/predict-tree", [
        "predict", "--model", "micro-longpunct/train-tree/model.json", "--input", data]


def commands(corpus: str):
    """(output directory, argv) of each command run on one corpus."""
    data, seed = f"{corpus}.jsonl", ["--seed", "1"]
    yield f"{corpus}/ingest", ["ingest", "--input", data]
    yield f"{corpus}/featurize", ["featurize", "--dataset", data, *seed]
    yield f"{corpus}/featurize-some-groups", [
        "featurize", "--dataset", data, "--groups", SOME_GROUPS, *seed]
    for learner in LEARNERS:
        yield f"{corpus}/train-{learner}", [
            "train", "--dataset", data, "--classifier", learner, *seed]
        yield f"{corpus}/predict-{learner}", [
            "predict", "--model", f"{corpus}/train-{learner}/model.json", "--input", data]
    yield f"{corpus}/train-some-groups", [
        "train", "--dataset", data, "--classifier", "tree", "--groups", SOME_GROUPS, *seed]
    yield f"{corpus}/predict-some-groups", [
        "predict", "--model", f"{corpus}/train-some-groups/model.json", "--input", data]
    for learner in LEARNERS:
        yield f"{corpus}/eval-loo-{learner}", [
            "eval-loo", "--dataset", data, "--classifier", learner, *seed]
    yield f"{corpus}/eval-loo-knn-global", [
        "eval-loo", "--dataset", data, "--classifier", "knn", "--protocol", "loo_global", *seed]
    for learner in LEARNERS:
        yield f"{corpus}/eval-split-{learner}", [
            "eval-split", "--dataset", f"{corpus}-train.jsonl",
            "--test-dataset", f"{corpus}-test.jsonl", "--classifier", learner, *seed]
    yield f"{corpus}/ablate-forest", [
        "ablate", "--dataset", data, "--classifier", "forest", "--remove", "AF", *seed]


def run(out_dir: str, argv: list) -> int:
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", out_dir])
        except Exception as exc:  # anything cli.main does not report itself
            code, exception = 1, type(exc).__name__
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if exception is not None:
        (out / "exception.txt").write_text(f"{exception}\n", encoding="utf-8")
    (out / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (out / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")
    (out / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
    return code


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: command_outputs.py OUT", file=sys.stderr)
        return 2
    root = Path(argv[0])
    root.mkdir(parents=True)
    shutil.copyfile(micro_corpus_path(), root / "micro.jsonl")
    shutil.copyfile(ottawa_path(), root / "ottawa.jsonl")
    os.chdir(root)
    write_longpunct()
    for corpus in ("micro", "ottawa"):
        write_split(corpus)
    for out_dir, command in (*commands("micro"), *commands("ottawa"), *longpunct_commands()):
        print(f"{out_dir}: exit {run(out_dir, command)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

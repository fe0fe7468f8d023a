"""Import hygiene: every name a `rumourstance` module imports is used there,
listed in its `__all__`, or marked `# noqa: F401` on its line; every
module-level function and class, and every method and property but the
dunder ones, is used somewhere in the package outside its own body, as a
name or an attribute, unless it is allowlisted; and
starting the package, parsing a command line or running `ingest` loads no
numpy and no pipeline module."""
from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import rumourstance

PACKAGE = Path(rumourstance.__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {lineno})" for name, lineno in imported.items()
                  if name not in used)


def test_every_import_is_used():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert len(sources) > 10
    unused = {str(path.relative_to(PACKAGE)): names for path in sources
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_unused_import_is_found():
    source = ("from os import path, sep  # noqa: F401\n"
              "import json\nfrom sys import argv, exit\n"
              "__all__ = ['argv']\n")
    assert unused_imports(source) == ["exit (line 3)", "json (line 2)"]


# module-level functions and classes no package code uses, each kept for a reason
UNCALLED_API = {
    "micro_corpus_path",  # backs the micro corpus test fixtures
    "ottawa_path",        # backs the Ottawa corpus test fixtures
    "assemble",           # evaluation binds it, and cli forwards it, for the benchmark tracer
    "__getattr__",        # cli's forward of `assemble`; Python calls it on attribute access
    "info_gain_ratio",    # the gain-ratio oracle that C1 checks the tree against
    "Dataset.rumour_tweets",  # perfbench/tests and tests/test_eval.py read it
}


def named(node) -> Counter:
    """How often each name is used in the syntax tree `node`, as a name or
    an attribute; imports and `__all__` entries are not uses."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(name, node) of each module-level function and class of the syntax
    tree, and, as `Class.name`, of each method and property of its classes
    but the dunder ones."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{sub.name}", sub) for sub in node.body
                        if isinstance(sub, FUNCTIONS)
                        and not (sub.name.startswith("__") and sub.name.endswith("__")))


def unnamed_functions(sources: list) -> list:
    """Module-level functions and classes, and methods and properties, of
    the given module sources that no module uses outside their own body."""
    trees = [ast.parse(source) for source in sources]
    everywhere = sum((named(tree) for tree in trees), Counter())
    return sorted(name for tree in trees for name, node in definitions(tree)
                  if everywhere[node.name] <= named(node)[node.name])


def test_every_function_has_a_caller_in_the_package():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))]
    assert unnamed_functions(sources) == sorted(UNCALLED_API)


def test_unnamed_function_is_found():
    sources = ["def used():\n    return 1\n\ndef again(n):\n    return again(n - 1)\n"
               "\ndef exported():\n    pass\n\n__all__ = ['exported']\n",
               "from a import used, imported\nimport b.called\nb.called.go(used())\n"
               "x: Hinted = Built()\n",
               "def imported():\n    pass\n\ndef called():\n    pass\n\ndef orphan():\n    pass\n",
               "class Built:\n    pass\n\nclass Hinted:\n    pass\n\n"
               "class Lonely:\n    def make(self):\n        return Lonely()\n",
               "class Record:\n    def __init__(self):\n        self.n = 0\n\n"
               "    @property\n    def size(self):\n        return self.n\n\n"
               "    def spare(self):\n        return self.spare()\n\n"
               "    def read(self):\n        return Record().size\n\n"
               "Record().read()\n"]
    assert unnamed_functions(sources) == ["Lonely", "Lonely.make", "Record.spare", "again",
                                          "exported", "imported", "orphan"]


PIPELINE = ("numpy", "rumourstance.resources", "rumourstance.features",
            "rumourstance.evaluation", "rumourstance.learners")


def pipeline_loaded_after(code: str) -> list:
    """The PIPELINE modules that a fresh interpreter holds after running `code`."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {PIPELINE!r} if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_numpy():
    assert pipeline_loaded_after("import rumourstance") == []


def test_every_command_line_parses_without_numpy():
    argvs = [["ingest", "--input", "raw.jsonl"], ["featurize", "--classifier", "svm"],
             ["train", "--dataset", "d.jsonl", "--seed", "3"],
             ["eval-loo", "--protocol", "loo_global"], ["eval-split", "--test-dataset", "t.jsonl"],
             ["ablate", "--remove", "AF"], ["predict", "--model", "m.json", "--input", "d.jsonl"]]
    code = ("import contextlib, io\nfrom rumourstance.cli import build_parser\n"
            f"for argv in {argvs!r}:\n"
            "    assert build_parser().parse_args(argv).command == argv[0]\n"
            "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
            "    build_parser().parse_args(['train', '--help'])")
    assert pipeline_loaded_after(code) == []


def test_ingest_runs_without_numpy(tmp_path):
    raw, out = tmp_path / "raw.jsonl", tmp_path / "out"
    raw.write_text(
        '{"id": 1, "text": "is it true?", "created_at": "2014-10-22T14:00:00Z", '
        '"conversation_id": 1, "event": "ottawa"}\n'
        '{"id": 2, "text": "fake", "created_at": "2014-10-22T14:05:00Z", '
        '"in_reply_to_status_id": 1, "conversation_id": 1, "stance": "deny"}\n',
        encoding="utf-8")
    argv = ["ingest", "--input", str(raw), "--out", str(out)]
    code = f"from rumourstance.cli import main\nassert main({argv!r}) == 0"
    assert pipeline_loaded_after(code) == []
    assert len((out / "normalized.jsonl").read_text(encoding="utf-8").splitlines()) == 2

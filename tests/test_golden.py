"""Golden artifacts: the sha256 of every file the micro-corpus commands
write. A refactor that claims no behaviour change must leave them all
byte-identical; regenerate the digests only for an intended change."""
from __future__ import annotations

import hashlib

import pytest

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main

EXPERIMENTS = (
    ("eval-loo-tree", ["eval-loo", "--classifier", "tree"]),
    ("eval-loo-forest", ["eval-loo", "--classifier", "forest"]),
    ("eval-loo-knn", ["eval-loo", "--classifier", "knn"]),
    ("ablate-forest", ["ablate", "--classifier", "forest", "--remove", "AF"]),
    ("featurize", ["featurize"]),
    ("train-forest", ["train", "--classifier", "forest"]),
)

GOLDEN = {
    "ablate-forest/ablation.json":
        "d602fe9dda51dd267f97bdb4085a3b4386d66bfae3189bb74625033241ea7b8c",
    "ablate-forest/ablation.txt":
        "1f1e202d0c6863c9f3a5b5215dd141f46da8b9f687012b6d96df380cbe58a58f",
    "ablate-forest/resolved_config.json":
        "df6250645faea58fdd30717c966e0de745de974933ca79f422e96485537b954c",
    "eval-loo-forest/report.json":
        "3dcbd645974f6b9ef08de9a6946272b98ca350ad1ea07ff913861c2a3b7bef9c",
    "eval-loo-forest/report.txt":
        "5daf5f6aad3c95c6af0fb87bedc34888deca88f93469a447aa96439d68233dd5",
    "eval-loo-forest/resolved_config.json":
        "df6250645faea58fdd30717c966e0de745de974933ca79f422e96485537b954c",
    "eval-loo-knn/report.json":
        "351d9706b246f1cb4b7df78cb117f7db916d81e3ad2169fed6471d2b3bfc6ca1",
    "eval-loo-knn/report.txt":
        "a978950f230869e38e41d4c08f96df7fdd5c3707102ad17c266a76de24de2508",
    "eval-loo-knn/resolved_config.json":
        "dee96831122334d1ffa26f7acd746a3d14bf01d63d1704ec426c0f2600837cd8",
    "eval-loo-tree/report.json":
        "4acd41037a8df57a8027564405d66706e13ca16a44f75e32ca60f953470ec1fd",
    "eval-loo-tree/report.txt":
        "fd1df1dbe709fc1311564d921109eb7c52f687a116af0e53a81853f043add223",
    "eval-loo-tree/resolved_config.json":
        "3b2e281aeec11f6d751f14058f8f595dd67e583ca5b2bacf27d6e0a61fc0aec7",
    "featurize/resolved_config.json":
        "dc0233d7bab74e4a8de7d868f970d9a02cf7ac5db6bb2f644b672fa7fae63f42",
    "featurize/schema.tsv":
        "ea24e654a699ba8957268cf2a1649b7c57b642d416c610bed3a5470ff25b1b9b",
    "featurize/vectors.tsv":
        "050092b38ff5eb43831292b1587b4656b2cd8a70fda9da9f01496fd289b2898e",
    "predict-forest/predictions.tsv":
        "81ddf493ef0569aa491a206c812a0f2d05caf13a98f85dbe3d70b9ffc79192ad",
    "train-forest/model.json":
        "0ecb856d8c7821318d629095c2883100cce49dd7d958882bcfc7e3c315f3f7b8",
    "train-forest/resolved_config.json":
        "cbd8d462b4b4ff5f77d239b0c5d7e49495592ea775b47b67a90b2d31bad16412",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    corpus = str(micro_corpus_path())
    for name, argv in EXPERIMENTS:
        code = main(argv + ["--dataset", corpus, "--seed", "1",
                            "--out", str(root / name)])
        assert code == 0, name
    code = main(["predict", "--model", str(root / "train-forest" / "model.json"),
                 "--input", corpus, "--out", str(root / "predict-forest")])
    assert code == 0
    return {path.relative_to(root).as_posix(): sha256(path)
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_artifacts_match_golden_digests(artifacts):
    assert artifacts == GOLDEN

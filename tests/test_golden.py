"""Golden artifacts: the sha256 of every file the micro-corpus commands
write, an eval-split over micro rumours 0-3 and 4-5 included, and two
partial layouts (a featurize over five groups, a global k-NN ablation
removing MOOD and BOW+POSNG). A refactor that claims no behaviour change
must leave them all byte-identical; regenerate the digests only for an
intended change."""
from __future__ import annotations

import hashlib

import pytest

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main

EXPERIMENTS = (
    ("eval-loo-tree", ["eval-loo", "--classifier", "tree"]),
    ("eval-loo-forest", ["eval-loo", "--classifier", "forest"]),
    ("eval-loo-knn", ["eval-loo", "--classifier", "knn"]),
    ("eval-loo-knn-global", ["eval-loo", "--classifier", "knn",
                             "--protocol", "loo_global"]),
    ("ablate-forest", ["ablate", "--classifier", "forest", "--remove", "AF"]),
    ("ablate-knn-global-partial", ["ablate", "--classifier", "knn",
                                   "--protocol", "loo_global",
                                   "--remove", "MOOD", "--remove", "BOW+POSNG"]),
    ("featurize", ["featurize"]),
    ("featurize-partial", ["featurize", "--groups", "BOW,NE,MOOD,AF_ITS,AF_IQ"]),
    ("train-forest", ["train", "--classifier", "forest"]),
    ("train-knn", ["train", "--classifier", "knn"]),
    ("train-tree", ["train", "--classifier", "tree"]),
)

GOLDEN = {
    "ablate-forest/ablation.json":
        "d602fe9dda51dd267f97bdb4085a3b4386d66bfae3189bb74625033241ea7b8c",
    "ablate-forest/ablation.txt":
        "1f1e202d0c6863c9f3a5b5215dd141f46da8b9f687012b6d96df380cbe58a58f",
    "ablate-forest/resolved_config.json":
        "df6250645faea58fdd30717c966e0de745de974933ca79f422e96485537b954c",
    "ablate-knn-global-partial/ablation.json":
        "df0907c40d287cd2d8bde9e36f9b66af89bd60e8b3bc2746e0fe1cf12898e1e3",
    "ablate-knn-global-partial/ablation.txt":
        "ca4b13bca85b6a31a6e0d9a1a3e6b559a18d1720ee784d5feb32b34fad063018",
    "ablate-knn-global-partial/resolved_config.json":
        "e073d40593486ae454ffc0ac4cd7c19e15c163c8751826c5b43c63cf02f86163",
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
    "eval-loo-knn-global/report.json":
        "39fa6e38aeabad764cbaab2e2e2b268987f865dda6f8502d0d8e3189f5306827",
    "eval-loo-knn-global/report.txt":
        "7a536ba5f44b9b1a82e2ff1062f0f9dccb8bd64cd1465e901bed596ec3fefcfa",
    "eval-loo-knn-global/resolved_config.json":
        "e073d40593486ae454ffc0ac4cd7c19e15c163c8751826c5b43c63cf02f86163",
    "eval-loo-tree/report.json":
        "4acd41037a8df57a8027564405d66706e13ca16a44f75e32ca60f953470ec1fd",
    "eval-loo-tree/report.txt":
        "fd1df1dbe709fc1311564d921109eb7c52f687a116af0e53a81853f043add223",
    "eval-loo-tree/resolved_config.json":
        "3b2e281aeec11f6d751f14058f8f595dd67e583ca5b2bacf27d6e0a61fc0aec7",
    "eval-split-tree/report.json":
        "f3d76a3959b313a5830cb84a0504e66f8141862de1b26c8852b68ad984ad76e4",
    "eval-split-tree/report.txt":
        "8228c1f9df0c63b54d2103253dcceef06ebb036663209ffeaf6dae1805e5df91",
    "eval-split-tree/resolved_config.json":
        "4d8c70f816b44e1d7be2c3371614cb5e3fe465cf4cd7b359af73afb4287e6453",
    "featurize/resolved_config.json":
        "dc0233d7bab74e4a8de7d868f970d9a02cf7ac5db6bb2f644b672fa7fae63f42",
    "featurize/schema.tsv":
        "ea24e654a699ba8957268cf2a1649b7c57b642d416c610bed3a5470ff25b1b9b",
    "featurize/vectors.tsv":
        "050092b38ff5eb43831292b1587b4656b2cd8a70fda9da9f01496fd289b2898e",
    "featurize-partial/resolved_config.json":
        "ce053502529f7efad2264e71ed92aa94315d4f4546ada3701e9854d8f5c500de",
    "featurize-partial/schema.tsv":
        "e6f3bb45cb01151a68e4e2270d28b7ef9a16375f1336360e0cc06d844a9bc8c3",
    "featurize-partial/vectors.tsv":
        "70807a4525ae8f2ba6248e0f3cd688de31761db9c2c9cb35f134ed7e607aee73",
    "predict-tree/predictions.tsv":
        "5609b3cd0a76d4449b0d1abab30e81b084e970411469ceb210893f54f720bd42",
    "predict-forest/predictions.tsv":
        "81ddf493ef0569aa491a206c812a0f2d05caf13a98f85dbe3d70b9ffc79192ad",
    "predict-knn/predictions.tsv":
        "992859a605a92864e9a7757d1d99be28e8adbe1670e769e30d8e201ba0e1549a",
    "train-forest/model.json":
        "0ecb856d8c7821318d629095c2883100cce49dd7d958882bcfc7e3c315f3f7b8",
    "train-forest/resolved_config.json":
        "cbd8d462b4b4ff5f77d239b0c5d7e49495592ea775b47b67a90b2d31bad16412",
    "train-knn/model.json":
        "aa9aec9183fbb8b38c7d7ff3d5bd849d01de20e5ce227deecce1c311c36a798c",
    "train-knn/resolved_config.json":
        "544137627b193b1bf6573184c86c1bb0cc0d5577321d89bd52310428e23b9a45",
    "train-tree/model.json":
        "14e7958d01303ba985a0d56d14b24ce6a37e193e1750fc3fd8d4d1e23493dd85",
    "train-tree/resolved_config.json":
        "ac1287758d69d1e84b1e052c4f5a5b78cd3d73f154f35e50cd1abab447b40d5f",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, micro_split):
    root = tmp_path_factory.mktemp("golden")
    corpus = str(micro_corpus_path())
    train, test = (str(path) for path in micro_split)
    runs = [(name, argv + ["--dataset", corpus]) for name, argv in EXPERIMENTS]
    runs.append(("eval-split-tree", ["eval-split", "--classifier", "tree",
                                     "--dataset", train, "--test-dataset", test]))
    for name, argv in runs:
        code = main(argv + ["--seed", "1", "--out", str(root / name)])
        assert code == 0, name
    for kind in ("forest", "knn", "tree"):
        code = main(["predict", "--model", str(root / f"train-{kind}" / "model.json"),
                     "--input", corpus, "--out", str(root / f"predict-{kind}")])
        assert code == 0, kind
    return {path.relative_to(root).as_posix(): sha256(path)
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_artifacts_match_golden_digests(artifacts):
    assert artifacts == GOLDEN

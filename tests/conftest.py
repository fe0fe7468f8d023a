"""Shared fixtures: the built-in resource bundle and datasets load once per session."""
from __future__ import annotations

import json

import pytest

import rumourstance.features as features
from rumourstance.bundled import default_bundle_path, micro_corpus_path, ottawa_path
from rumourstance.corpus import build_threads, load_dataset, thread_index
from rumourstance.resources import load_bundle


@pytest.fixture(scope="session")
def bundle():
    return load_bundle(default_bundle_path())


@pytest.fixture(scope="session")
def micro():
    return load_dataset(micro_corpus_path())


@pytest.fixture(scope="session")
def ottawa():
    return load_dataset(ottawa_path())


@pytest.fixture(scope="session")
def micro_split(tmp_path_factory):
    """(train, test) JSONL paths holding the micro corpus lines of its
    sorted rumours 0-3 and 4-5."""
    lines = micro_corpus_path().read_text(encoding="utf-8").splitlines(keepends=True)
    rumour_of = [json.loads(line)["rumour_id"] for line in lines]
    train_rumours = set(sorted(set(rumour_of))[:4])
    root = tmp_path_factory.mktemp("micro-split")
    paths = root / "train.jsonl", root / "test.jsonl"
    for path, in_train in zip(paths, (True, False)):
        path.write_text("".join(line for line, rumour in zip(lines, rumour_of)
                                if (rumour in train_rumours) == in_train),
                        encoding="utf-8")
    return paths


@pytest.fixture(scope="session")
def micro_analyses(micro, bundle):
    """tweet id -> TweetAnalysis of every micro tweet, as LOO builds it."""
    threads = thread_index(build_threads(micro))
    now = features.resolve_now(None, micro)
    return {a.tweet_id: a for a in
            features.analyse_many(micro.tweets, threads, bundle, now)}


def _recording(monkeypatch, name):
    """Wrap `features.<name>` so that each call appends its first argument
    to the returned list."""
    calls = []
    original = getattr(features, name)

    def recording(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    monkeypatch.setattr(features, name, recording)
    return calls


@pytest.fixture
def analysed_texts(monkeypatch):
    """The texts tokenized and embedded (`features._analyse_text`) from
    here to the end of the test, in call order."""
    return _recording(monkeypatch, "_analyse_text")


@pytest.fixture
def tokenized_chunks(monkeypatch):
    """The whitespace chunks `features.tokenize` splits from here to the
    end of the test, in call order: every tokenization on the
    featurization path."""
    return _recording(monkeypatch, "tokenize")

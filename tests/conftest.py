"""Shared fixtures: the built-in resource bundle and datasets load once per session."""
from __future__ import annotations

import pytest

import rumourstance.features as features
from rumourstance.bundled import default_bundle_path, micro_corpus_path, ottawa_path
from rumourstance.corpus import load_dataset
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


@pytest.fixture
def analysed_texts(monkeypatch):
    """The texts tokenized and embedded (`features._analyse_text`) from
    here to the end of the test, in call order."""
    texts = []
    analyse_text = features._analyse_text

    def counting(text, resources):
        texts.append(text)
        return analyse_text(text, resources)

    monkeypatch.setattr(features, "_analyse_text", counting)
    return texts

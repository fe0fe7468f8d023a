"""The benchmark's input generator: deterministic, PHEME-proportioned, and
readable by the program it feeds."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import corpusgen  # noqa: E402
from rumourstance.corpus import build_threads, load_dataset  # noqa: E402
from rumourstance.ingest import ingest_file  # noqa: E402


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    a = corpusgen.write_inputs(7, tmp_path / "a")
    b = corpusgen.write_inputs(7, tmp_path / "b")
    c = corpusgen.write_inputs(8, tmp_path / "c")
    for key in ("corpus", "export"):
        assert a[key].read_bytes() == b[key].read_bytes()
        assert a[key].read_bytes() != c[key].read_bytes()


def test_label_counts_follow_pheme_proportions(tmp_path):
    inputs = corpusgen.write_inputs(3, tmp_path)
    dataset = load_dataset(inputs["corpus"])
    expected = corpusgen.scaled_counts(corpusgen.CORPUS_SCALE)
    for event, rumours in dataset.events.items():
        labels = Counter(t.label.value for r in rumours
                         for t in dataset.rumour_tweets(r))
        assert len(rumours) == expected[event]["rumours"]
        assert labels == Counter({label: expected[event][label]
                                  for label in corpusgen.LABELS
                                  if expected[event][label]})
        published = corpusgen.EVENT_LABEL_COUNTS[event]
        total = sum(published[label] for label in corpusgen.LABELS)
        for label in corpusgen.LABELS:
            share = labels[label] / sum(labels.values())
            assert abs(share - published[label] / total) < 0.06, (event, label)


def test_corpus_threads_and_export_ingests_with_its_labels(tmp_path):
    inputs = corpusgen.write_inputs(5, tmp_path)
    dataset = load_dataset(inputs["corpus"])
    threads = build_threads(dataset)
    assert len(threads) == len(dataset.rumours)
    assert all(th.replies for th in threads)
    summary = ingest_file(inputs["export"], tmp_path / "normalized.jsonl")
    assert summary == {"kept": len(inputs["export_labels"]), "dropped": 0}
    ingested = load_dataset(tmp_path / "normalized.jsonl")
    assert {t.tweet_id: t.label.value for t in ingested.tweets} == inputs["export_labels"]


def test_export_is_larger_than_corpus_with_the_same_ids_for_every_seed(tmp_path):
    a = corpusgen.write_inputs(1, tmp_path / "a")
    b = corpusgen.write_inputs(2, tmp_path / "b")
    # equal ids, so that differing prediction digests mean differing labels
    assert list(a["export_labels"]) == list(b["export_labels"])
    assert a["export_labels"] != b["export_labels"]
    corpus = load_dataset(a["corpus"])
    assert len(a["export_labels"]) >= 3 * len(corpus.tweets)

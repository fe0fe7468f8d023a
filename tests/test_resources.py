"""Resource bundle loading: embeddings, clusters, lexicons, gazetteers, hashing."""
from __future__ import annotations

import re
import shutil

import numpy as np
import pytest

from rumourstance.bundled import default_bundle_path, micro_corpus_path
from rumourstance.cli import main
from rumourstance.errors import ResourceError
from rumourstance.resources import (
    BROWN_CLUSTER_COUNT,
    REQUIRED_BUNDLE_FILES,
    bundle_content_hash,
    load_bundle,
    missing_bundle_files,
)


def test_embeddings_lookup(bundle):
    table = bundle.embeddings
    assert table.dimension >= 2
    vec = table.get("confirmed")
    assert vec is not None and vec.shape == (table.dimension,)
    assert table.get("zzz-not-a-word") is None


def test_embedding_vectors_are_finite(bundle):
    for word in ("doubt", "worried", "official"):
        vec = bundle.embeddings.get(word)
        assert vec is not None
        assert np.all(np.isfinite(vec))


def test_brown_clusters(bundle):
    brown = bundle.brown
    cluster = brown.get("confirmed")
    assert cluster is not None and 0 <= cluster < BROWN_CLUSTER_COUNT
    assert brown.get("zzz-not-a-word") is None


def test_af_word_lists(bundle):
    lists = bundle.lexicons.af_lists
    assert set(lists) == {"support", "doubt", "nodoubt", "surprise"}
    for words in lists.values():
        assert words and all(w == w.lower() for w in words)
    # the four lists are pairwise disjoint
    all_words = [w for words in lists.values() for w in words]
    assert len(all_words) == len(set(all_words))


def test_mood_lists(bundle):
    mood = bundle.lexicons.mood_lists
    assert set(mood) == {"amused", "disappointed", "indignant", "satisfied", "worried"}
    assert all(words for words in mood.values())


def test_sentiment_lexicon(bundle):
    scores = bundle.lexicons.sentiment
    assert scores
    assert all(isinstance(v, int) and -5 <= v <= 5 for v in scores.values())


def test_interrogatives_and_emoticons(bundle):
    lex = bundle.lexicons
    assert "what" in lex.interrogatives
    assert lex.emoticons  # per-category sets
    union = frozenset().union(*lex.emoticons.values())
    assert union <= lex.all_emoticons
    assert ":)" in lex.all_emoticons


def test_regex_pack_compiled(bundle):
    lex = bundle.lexicons
    assert len(lex.regex_pack) == len(lex.regex_sources)
    assert any(p.search("is that true?") for p in lex.regex_pack)
    assert not any(p.search("nice weather today") for p in lex.regex_pack)


EDGE_PATTERNS = (".*?x", r"x\.*", ".*a|b.*", ".*")
PROBES = ("", "x", "X", "a", "B", "ab", "xa", "x.", "x..", ".", "?", "\n",
          "a\nb", "\nx\n", "no match here", "b\n\nx")


def test_regex_pack_searches_like_its_source(bundle, micro, ottawa, tmp_path):
    # the pack compiles without a leading or trailing `.*`; every search
    # must still hit exactly where the file's own pattern does
    lex = bundle.lexicons
    texts = [t.text for t in micro.tweets + ottawa.tweets]
    for pattern, source in zip(lex.regex_pack, lex.regex_sources):
        assert not pattern.pattern.startswith(".*")
        for text in texts:
            assert (pattern.search(text) is None) == \
                (re.search(source, text, re.IGNORECASE) is None), (source, text)

    dst = tmp_path / "bundle"
    shutil.copytree(default_bundle_path(), dst)
    lines = list(EDGE_PATTERNS) + list(lex.regex_sources[len(EDGE_PATTERNS):])
    (dst / "regex.txt").write_text("".join(line + "\n" for line in lines))
    edge = load_bundle(dst).lexicons
    assert edge.regex_sources == tuple(lines)
    for pattern, source in zip(edge.regex_pack, edge.regex_sources):
        for text in PROBES + tuple(texts[:50]):
            assert (pattern.search(text) is None) == \
                (re.search(source, text, re.IGNORECASE) is None), (source, text)


def test_gazetteers(bundle):
    gaz = bundle.gazetteers
    assert gaz.person and gaz.org and gaz.location
    # multi-word entries stay intact
    assert any(" " in entry for entry in gaz.location)


def test_content_hash_is_stable():
    path = default_bundle_path()
    assert bundle_content_hash(path) == bundle_content_hash(path)


def test_content_hash_tracks_bytes(tmp_path):
    src = default_bundle_path()
    dst = tmp_path / "bundle"
    shutil.copytree(src, dst)
    before = bundle_content_hash(dst)
    target = dst / "lists" / "doubt.txt"
    target.write_text(target.read_text() + "extra\n")
    assert bundle_content_hash(dst) != before


def test_missing_files_reported(tmp_path):
    src = default_bundle_path()
    dst = tmp_path / "bundle"
    shutil.copytree(src, dst)
    assert missing_bundle_files(dst) == []
    (dst / "lists" / "doubt.txt").unlink()
    missing = missing_bundle_files(dst)
    assert missing == ["lists/doubt.txt"]


def test_load_rejects_incomplete_bundle(tmp_path):
    src = default_bundle_path()
    dst = tmp_path / "bundle"
    shutil.copytree(src, dst)
    (dst / "embeddings.txt").unlink()
    with pytest.raises(ResourceError):
        load_bundle(dst)


def test_loaded_bundle_exposes_hash(bundle):
    assert bundle.content_hash == bundle_content_hash(bundle.path)


def bundle_copy(tmp_path):
    dst = tmp_path / "bundle"
    shutil.copytree(default_bundle_path(), dst)
    return dst


def first_component(value):
    """An edit that sets the first vector component of an embedding line."""
    def edit(line):
        parts = line.split(b" ")
        parts[1] = value
        return b" ".join(parts)
    return edit


def edit_line(path, lineno, edit):
    """Rewrite line `lineno` (1-based) of the file at `path` with `edit`,
    a function of its bytes without the newline."""
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = edit(lines[lineno - 1])
    path.write_bytes(b"\n".join(lines))


@pytest.mark.parametrize("rel", REQUIRED_BUNDLE_FILES)
def test_bundle_file_that_is_not_utf8_is_a_resource_error(rel, tmp_path):
    dst = bundle_copy(tmp_path)
    edit_line(dst / rel, 2, lambda line: line[:1] + b"\xff" + line[1:])
    with pytest.raises(ResourceError, match=re.escape(f"{rel}:2: not UTF-8")):
        load_bundle(dst)


@pytest.mark.parametrize("component", ["nan", "-inf", "1e999"])
def test_non_finite_embedding_component_is_a_resource_error(component, tmp_path):
    dst = bundle_copy(tmp_path)
    edit_line(dst / "embeddings.txt", 3, first_component(component.encode()))
    with pytest.raises(ResourceError, match=re.escape("embeddings.txt:3: vector component")):
        load_bundle(dst)


@pytest.mark.parametrize("rel, lineno, edit", [
    ("dicts/slang.txt", 2, lambda line: b"\xc3" + line),
    ("embeddings.txt", 3, first_component(b"nan")),
    ("embeddings.txt", 3, first_component(b"1e200")),
], ids=["slang-not-utf8", "embedding-nan", "embedding-norm-overflows"])
def test_bad_bundle_file_is_a_one_line_runtime_error(rel, lineno, edit, tmp_path, capsys):
    dst = bundle_copy(tmp_path)
    edit_line(dst / rel, lineno, edit)
    out = tmp_path / "out"
    code = main(["featurize", "--dataset", str(micro_corpus_path()), "--bundle", str(dst),
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert f"{rel}:{lineno}:" in err
    assert not (out / "vectors.tsv").exists()

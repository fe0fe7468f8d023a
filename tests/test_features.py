"""Feature dictionaries, schema layout, vector assembly, and the AF scores."""
from __future__ import annotations

import math

import numpy as np
import pytest

from rumourstance.corpus import build_threads, thread_index
from rumourstance.errors import SchemaError
from rumourstance.features import (
    AF_GROUPS,
    BROWN_CLUSTER_COUNT,
    GROUPS,
    analyse_many,
    assemble,
    build_dictionaries,
    build_schema,
    content_words,
    cosine,
    cumulative_vector,
    extract_af,
    extract_mood,
    fingerprint64,
    vectorize,
)
from rumourstance.text import tokenize


@pytest.fixture(scope="module")
def dicts(micro, micro_analyses):
    return build_dictionaries(list(micro_analyses.values()),
                              provenance=tuple(sorted(micro.rumours)))


@pytest.fixture(scope="module")
def schema(dicts, bundle):
    return build_schema(dicts, bundle)


@pytest.fixture(scope="module")
def threads(micro):
    return thread_index(build_threads(micro))


def mean_embedding(words, table):
    rows = [table.get(w) for w in words]
    rows = [r for r in rows if r is not None]
    if not rows:
        return np.zeros(table.dimension)
    return np.mean(rows, axis=0)


def plain_cosine(u, v):
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


# ---------------------------------------------------------------- dictionaries


def test_bow_vocab_frequency_threshold(micro, bundle, dicts):
    from collections import Counter

    counts = Counter()
    for tweet in micro.tweets:
        for tok in tokenize(tweet.text, bundle.lexicons.all_emoticons()):
            if tok.kind.name in ("WORD", "HASHTAG"):
                counts[tok.lowercase] += 1
    expected = sorted(w for w, c in counts.items() if c >= 2)
    assert list(dicts.bow_vocab) == expected
    assert [dicts.bow_vocab[w] for w in expected] == list(range(len(expected)))


def test_singletons_stay_out(dicts):
    # per-rumour one-off words must not make it into the vocabulary
    assert "corroborated" not in dicts.bow_vocab
    assert "manufactured" not in dicts.bow_vocab


def test_posng_vocab_sorted(dicts):
    grams = list(dicts.posng_vocab)
    assert grams == sorted(grams)
    lengths = {len(g.split("|")) for g in grams}
    assert lengths == {2, 3, 4}


def test_provenance_recorded(dicts, micro):
    assert dicts.provenance == tuple(sorted(micro.rumours))


# ---------------------------------------------------------------------- schema


def test_schema_group_layout(schema):
    groups_seen = [g for _, g in schema.columns]
    # groups appear in contiguous runs, in the canonical order
    runs = [groups_seen[0]]
    for g in groups_seen[1:]:
        if g != runs[-1]:
            runs.append(g)
    assert runs == [g for g in GROUPS if g in set(runs)]
    assert sum(1 for g in groups_seen if g == "BROWN") == BROWN_CLUSTER_COUNT


def test_schema_subsetting(dicts, bundle, schema):
    af_only = build_schema(dicts, bundle, groups=AF_GROUPS)
    assert [g for _, g in af_only.columns] == list(AF_GROUPS)
    without = build_schema(dicts, bundle, groups=tuple(g for g in GROUPS if g not in AF_GROUPS))
    assert len(without.columns) == len(schema.columns) - len(AF_GROUPS)
    assert not any(g in AF_GROUPS for _, g in without.columns)


def test_schema_rejects_unknown_group(dicts, bundle):
    with pytest.raises(SchemaError):
        build_schema(dicts, bundle, groups=("BOW", "NOPE"))


def test_fingerprint_tracks_columns(dicts, bundle, schema):
    again = build_schema(dicts, bundle)
    assert fingerprint64(again) == fingerprint64(schema)
    smaller = build_schema(dicts, bundle, groups=("BOW",))
    assert fingerprint64(smaller) != fingerprint64(schema)


# ------------------------------------------------------------ cumulative/cosine


def test_cumulative_vector_single_word(bundle):
    vec = cumulative_vector(["confirmed"], bundle.embeddings)
    assert np.allclose(vec, bundle.embeddings.get("confirmed"))


def test_cumulative_vector_is_mean(bundle):
    words = ["confirmed", "doubt", "official", "not-in-table"]
    vec = cumulative_vector(words, bundle.embeddings)
    assert np.allclose(vec, mean_embedding(words, bundle.embeddings))


def test_cumulative_vector_oov_only(bundle):
    vec = cumulative_vector(["xyzzy", "plugh"], bundle.embeddings)
    assert vec.shape == (bundle.embeddings.dimension,)
    assert np.all(vec == 0.0)


def test_cumulative_vector_permutation_invariant(bundle):
    a = cumulative_vector(["confirmed", "doubt", "worried"], bundle.embeddings)
    b = cumulative_vector(["worried", "confirmed", "doubt"], bundle.embeddings)
    assert np.allclose(a, b)


def test_cosine_matches_numpy():
    rng = np.random.default_rng(7)
    for _ in range(50):
        u, v = rng.normal(size=8), rng.normal(size=8)
        assert cosine(u, v) == pytest.approx(plain_cosine(u, v), abs=1e-12)
    assert cosine(np.zeros(4), np.ones(4)) == 0.0


def test_cosine_self_similarity(bundle):
    vec = bundle.embeddings.get("confirmed")
    assert cosine(vec, vec) == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------------- AF scores


def test_af_oracle_over_corpus(micro, bundle, threads):
    """SS/DS/NDS/SPS from an independent mean-embedding + cosine recomputation."""
    lists = bundle.lexicons.af_lists
    list_vecs = {name: mean_embedding(sorted(words), bundle.embeddings) for name, words in lists.items()}
    checked = 0
    for thread in threads.values():
        for tweet in (thread.source, *thread.replies):
            toks = tokenize(tweet.text, bundle.lexicons.all_emoticons())
            content = content_words(toks, bundle)
            tweet_vec = mean_embedding(content, bundle.embeddings)
            scores = extract_af(tweet, thread, bundle)
            assert scores.ss == pytest.approx(plain_cosine(tweet_vec, list_vecs["surprise"]), abs=1e-9)
            assert scores.ds == pytest.approx(plain_cosine(tweet_vec, list_vecs["doubt"]), abs=1e-9)
            assert scores.nds == pytest.approx(plain_cosine(tweet_vec, list_vecs["nodoubt"]), abs=1e-9)
            assert scores.sps == pytest.approx(plain_cosine(tweet_vec, list_vecs["support"]), abs=1e-9)
            checked += 1
    assert checked == len(micro.tweets)


def test_af_source_its_is_one(micro, bundle, threads):
    for thread in threads.values():
        assert extract_af(thread.source, thread, bundle).its == 1.0


def test_af_retweet_its_is_one(bundle, threads):
    thread = next(iter(threads.values()))
    retweets = [t for t in thread.replies if t.text.startswith("RT @")]
    assert retweets
    for tweet in retweets:
        assert extract_af(tweet, thread, bundle).its == 1.0


def test_af_reply_its_matches_oracle(bundle, threads):
    for thread in threads.values():
        src_toks = tokenize(thread.source.text, bundle.lexicons.all_emoticons())
        src_vec = mean_embedding(content_words(src_toks, bundle), bundle.embeddings)
        for tweet in thread.replies:
            if tweet.text.startswith("RT @"):
                continue
            toks = tokenize(tweet.text, bundle.lexicons.all_emoticons())
            vec = mean_embedding(content_words(toks, bundle), bundle.embeddings)
            assert extract_af(tweet, thread, bundle).its == pytest.approx(
                plain_cosine(vec, src_vec), abs=1e-9
            )


def test_af_iq_flags_interrogative_lead(micro, bundle, threads):
    flagged = 0
    for thread in threads.values():
        for tweet in (thread.source, *thread.replies):
            scores = extract_af(tweet, thread, bundle)
            toks = [t for t in tokenize(tweet.text, bundle.lexicons.all_emoticons()) if t.kind.name == "WORD"]
            expected = 1 if toks and toks[0].lowercase in bundle.lexicons.interrogatives else 0
            assert scores.iq == expected
            flagged += scores.iq
    assert flagged > 0


def test_af_scores_in_cosine_range(micro, bundle, threads):
    bound = 1.0 + 1e-12
    for thread in threads.values():
        for tweet in (thread.source, *thread.replies):
            s = extract_af(tweet, thread, bundle)
            for value in (s.ss, s.ds, s.nds, s.sps, s.its):
                assert -bound <= value <= bound


# ------------------------------------------------------------------ mood scores


def test_mood_oracle(micro, bundle, threads):
    moods = bundle.lexicons.mood_lists
    mood_vecs = {name: mean_embedding(sorted(words), bundle.embeddings) for name, words in moods.items()}
    thread = next(iter(threads.values()))
    for tweet in (thread.source, *thread.replies):
        toks = tokenize(tweet.text, bundle.lexicons.all_emoticons())
        tweet_vec = mean_embedding(content_words(toks, bundle), bundle.embeddings)
        got = extract_mood(tweet, bundle)
        for name in moods:
            assert got[f"mood_{name}"] == pytest.approx(plain_cosine(tweet_vec, mood_vecs[name]), abs=1e-9)


# ------------------------------------------------------------- vector assembly


def test_assembled_vector_validates(micro, bundle, dicts, schema, threads):
    tweet = micro.tweets[0]
    thread = threads[tweet.rumour_id]
    vec = assemble(tweet, thread, dicts, bundle, schema, now=0.0)
    assert vec.label is tweet.label


def test_bow_columns_are_incidence(micro, bundle, dicts, schema, threads):
    name_to_idx = {name: i for i, (name, _) in enumerate(schema.columns)}
    tweet = micro.tweets[1]
    thread = threads[tweet.rumour_id]
    vec = assemble(tweet, thread, dicts, bundle, schema, now=0.0)
    present = {
        t.lowercase
        for t in tokenize(tweet.text, bundle.lexicons.all_emoticons())
        if t.kind.name in ("WORD", "HASHTAG")
    }
    for word, _ in dicts.bow_vocab.items():
        idx = name_to_idx[f"bow={word}"]
        expected = 1.0 if word in present else None
        assert vec.values.get(idx) == expected


def test_brown_columns_match_table(micro, bundle, dicts, schema, threads):
    offsets = [i for i, (_, g) in enumerate(schema.columns) if g == "BROWN"]
    base = offsets[0]
    tweet = micro.tweets[2]
    thread = threads[tweet.rumour_id]
    vec = assemble(tweet, thread, dicts, bundle, schema, now=0.0)
    active = {i - base for i in vec.values if base <= i < base + BROWN_CLUSTER_COUNT}
    expected = set()
    for tok in tokenize(tweet.text, bundle.lexicons.all_emoticons()):
        cluster = bundle.brown.get(tok.lowercase)
        if cluster is not None:
            expected.add(cluster)
    assert active == expected


def test_af_group_removal_only_drops_af(micro, bundle, dicts, schema, threads):
    no_af = build_schema(dicts, bundle, groups=tuple(g for g in GROUPS if g not in AF_GROUPS))
    tweet = micro.tweets[3]
    thread = threads[tweet.rumour_id]
    full = assemble(tweet, thread, dicts, bundle, schema, now=0.0)
    trimmed = assemble(tweet, thread, dicts, bundle, no_af, now=0.0)
    full_named = {schema.columns[i][0]: v for i, v in full.values.items()}
    trimmed_named = {no_af.columns[i][0]: v for i, v in trimmed.values.items()}
    dropped = {n for n in full_named if n not in trimmed_named}
    assert all(schema.columns[i][1] in AF_GROUPS for i, _ in enumerate(schema.columns) if schema.columns[i][0] in dropped)
    for name, value in trimmed_named.items():
        assert full_named[name] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_featurize_equals_assemble_analysing_each_text_once(
        micro, bundle, dicts, schema, threads, analysed_texts, tokenized_texts,
        reverse):
    # the featurization of every command: analyse_many, then vectorize;
    # reversed, replies come before their thread's source
    tweets = micro.tweets[::-1] if reverse else micro.tweets
    expected = [assemble(t, threads[t.rumour_id], dicts, bundle, schema, now=0.0)
                for t in tweets]
    analysed_texts.clear()
    tokenized_texts.clear()
    assert [vectorize(a, dicts, schema)
            for a in analyse_many(tweets, threads, bundle, now=0.0)] == expected
    assert len(analysed_texts) == len(tokenized_texts) == len(tweets)

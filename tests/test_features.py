"""Feature dictionaries, schema layout, vector assembly, and the AF scores."""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rumourstance.features as features
from rumourstance.corpus import Thread, TweetRecord, UserStats, build_threads, thread_index
from rumourstance.errors import SchemaError
from rumourstance.features import (
    _FIXED_COLUMNS,
    AF_GROUPS,
    BROWN_CLUSTER_COUNT,
    GROUPS,
    MOOD_NAMES,
    FeatureDictionaries,
    TweetAnalysis,
    _is_retweet_of,
    analyse,
    analyse_many,
    assemble,
    build_dictionaries,
    build_schema,
    content_words,
    cumulative_vector,
    extract_user,
    featurize_corpus,
    fingerprint64,
    resolve_now,
    vectorize,
)
from rumourstance.resources import Gazetteers, norm, normed_cosine
from rumourstance.text import (
    _CURRENCY_AMOUNT_RE,
    _CURRENCY_CODES,
    _CURRENCY_SYMBOLS,
    _DATE_NUM_RE,
    _DAY_ORDINAL_RE,
    _KIND_TAGS,
    _MONTHS,
    _WEEKDAYS,
    DOTS_RUN_RE,
    TokenKind,
    _tag_word,
    entity_flags,
    negation_stats,
    sentiment_score,
    tokenize,
)


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
        for tok in tokenize(tweet.text, bundle.lexicons.all_emoticons):
            if tok.kind.name in ("WORD", "HASHTAG"):
                counts[tok.lowercase] += 1
    expected = sorted(w for w, c in counts.items() if c >= 2)
    assert list(dicts.bow_vocab) == expected


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
    with pytest.raises(SchemaError, match="^unknown feature groups: 'NOPE'$"):
        build_schema(dicts, bundle, groups=("BOW", "NOPE"))


def test_fingerprint_tracks_columns(dicts, bundle, schema):
    again = build_schema(dicts, bundle)
    assert fingerprint64(again) == fingerprint64(schema)
    smaller = build_schema(dicts, bundle, groups=("BOW",))
    assert fingerprint64(smaller) != fingerprint64(schema)


# the computed groups outside the vocabularies, by column-name prefix
_COMPUTED_PREFIXES = {"brown=": "BROWN", "emot=": "EMOT", "regex_": "REGEX"}


def table_group(name):
    """The group that `_FIXED_COLUMNS`, or else a computed prefix, gives a
    column name; None for a name neither knows, or both."""
    groups = [group for group, columns in _FIXED_COLUMNS.items() if name in columns]
    groups += [group for prefix, group in _COMPUTED_PREFIXES.items() if name.startswith(prefix)]
    return groups[0] if len(groups) == 1 else None


def assert_columns_of_their_groups(names, r):
    """Each name is a column of the all-groups schema, in its table group."""
    group_of = dict(build_schema(FeatureDictionaries((), ()), r).columns)
    for name in names:
        assert table_group(name) is not None and group_of.get(name) == table_group(name), name


def test_fixed_columns_are_unique():
    names = [name for columns in _FIXED_COLUMNS.values() for name in columns]
    assert len(names) == len(set(names))
    assert not any(name.startswith(("bow=", "posng=", *_COMPUTED_PREFIXES)) for name in names)


def test_empty_vocabularies_give_no_bow_or_posng_column(bundle, schema):
    empty = build_schema(FeatureDictionaries((), ()), bundle)
    assert empty.columns == tuple((name, group) for name, group in schema.columns
                                  if group not in ("BOW", "POSNG"))
    groups = [group for _, group in empty.columns]
    assert groups == sorted(groups, key=GROUPS.index)


@pytest.mark.parametrize("corpus", ["micro", "ottawa"])
def test_every_written_name_is_a_column_of_its_group(corpus, bundle, request, monkeypatch):
    # the extractors' dicts keep the zeros that a TweetAnalysis leaves out
    written = set()
    for name in ("extract_content", "extract_user"):
        def recording(*args, original=getattr(features, name)):
            out = original(*args)
            written.update(out)
            return out
        monkeypatch.setattr(features, name, recording)
    dataset = request.getfixturevalue(corpus)
    threads = thread_index(build_threads(dataset))
    for a in analyse_many(dataset.tweets, threads, bundle, resolve_now(None, dataset)):
        written.update(name for name, _ in a.named)
    assert_columns_of_their_groups(written, bundle)
    assert {name for columns in _FIXED_COLUMNS.values() for name in columns} <= written


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
        assert normed_cosine(u, norm(u), v, norm(v)) == pytest.approx(plain_cosine(u, v),
                                                                       abs=1e-12)
    zero, ones = np.zeros(4), np.ones(4)
    assert normed_cosine(zero, norm(zero), ones, norm(ones)) == 0.0


def test_cosine_self_similarity(bundle):
    vec = bundle.embeddings.get("confirmed")
    assert normed_cosine(vec, norm(vec), vec, norm(vec)) == pytest.approx(1.0, abs=1e-12)


# -------------------------------------------------------------------- AF scores

_AF_COSINES = ("surpriseScore", "doubtScore", "noDoubtScore", "supportScore",
               "initialTweetSim")


def named_columns(tweet, thread, r) -> dict:
    """The named columns of the tweet's analysis; an absent column is 0."""
    return defaultdict(float, analyse(tweet, thread, r, now=0.0).named)


def test_af_oracle_over_corpus(micro, bundle, threads):
    """SS/DS/NDS/SPS from an independent mean-embedding + cosine recomputation."""
    lists = bundle.lexicons.af_lists
    list_vecs = {name: mean_embedding(sorted(words), bundle.embeddings) for name, words in lists.items()}
    checked = 0
    for thread in threads.values():
        for tweet in (thread.source, *thread.replies):
            toks = tokenize(tweet.text, bundle.lexicons.all_emoticons)
            content = content_words(toks, bundle)
            tweet_vec = mean_embedding(content, bundle.embeddings)
            scores = named_columns(tweet, thread, bundle)
            for column, listed in (("surpriseScore", "surprise"), ("doubtScore", "doubt"),
                                   ("noDoubtScore", "nodoubt"), ("supportScore", "support")):
                assert scores[column] == pytest.approx(
                    plain_cosine(tweet_vec, list_vecs[listed]), abs=1e-9)
            checked += 1
    assert checked == len(micro.tweets)


def test_af_source_its_is_one(micro, bundle, threads):
    for thread in threads.values():
        assert named_columns(thread.source, thread, bundle)["initialTweetSim"] == 1.0


def test_af_retweet_its_is_one(bundle, threads):
    thread = next(iter(threads.values()))
    retweets = [t for t in thread.replies if t.text.startswith("RT @")]
    assert retweets
    for tweet in retweets:
        assert named_columns(tweet, thread, bundle)["initialTweetSim"] == 1.0


def test_af_reply_its_matches_oracle(bundle, threads):
    for thread in threads.values():
        src_toks = tokenize(thread.source.text, bundle.lexicons.all_emoticons)
        src_vec = mean_embedding(content_words(src_toks, bundle), bundle.embeddings)
        for tweet in thread.replies:
            if tweet.text.startswith("RT @"):
                continue
            toks = tokenize(tweet.text, bundle.lexicons.all_emoticons)
            vec = mean_embedding(content_words(toks, bundle), bundle.embeddings)
            assert named_columns(tweet, thread, bundle)["initialTweetSim"] == pytest.approx(
                plain_cosine(vec, src_vec), abs=1e-9
            )


def test_af_iq_flags_interrogative_lead(micro, bundle, threads):
    flagged = 0
    for thread in threads.values():
        for tweet in (thread.source, *thread.replies):
            iq = named_columns(tweet, thread, bundle)["isQuestion"]
            toks = [t for t in tokenize(tweet.text, bundle.lexicons.all_emoticons) if t.kind.name == "WORD"]
            expected = 1 if toks and toks[0].lowercase in bundle.lexicons.interrogatives else 0
            assert iq == expected
            flagged += iq
    assert flagged > 0


def test_af_scores_in_cosine_range(micro, bundle, threads):
    bound = 1.0 + 1e-12
    for thread in threads.values():
        for tweet in (thread.source, *thread.replies):
            scores = named_columns(tweet, thread, bundle)
            for column in _AF_COSINES:
                assert -bound <= scores[column] <= bound


# ------------------------------------------------------------------ mood scores


def test_mood_oracle(micro, bundle, threads):
    moods = bundle.lexicons.mood_lists
    mood_vecs = {name: mean_embedding(sorted(words), bundle.embeddings) for name, words in moods.items()}
    thread = next(iter(threads.values()))
    for tweet in (thread.source, *thread.replies):
        toks = tokenize(tweet.text, bundle.lexicons.all_emoticons)
        tweet_vec = mean_embedding(content_words(toks, bundle), bundle.embeddings)
        got = named_columns(tweet, thread, bundle)
        for name in moods:
            assert got[f"mood_{name}"] == pytest.approx(plain_cosine(tweet_vec, mood_vecs[name]), abs=1e-9)


# ------------------------------------------------------------- vector assembly


def test_assembled_vector_validates(micro, bundle, dicts, schema, threads):
    tweet = micro.tweets[0]
    thread = threads[tweet.rumour_id]
    row = assemble(tweet, thread, bundle, schema, now=0.0)
    # the row holds values by column index; its label stays on the analysis
    assert analyse(tweet, thread, bundle, now=0.0).label is tweet.label
    assert row and all(0 <= i < len(schema) and isinstance(v, float) for i, v in row.items())


def test_bow_columns_are_incidence(micro, bundle, dicts, schema, threads):
    name_to_idx = {name: i for i, (name, _) in enumerate(schema.columns)}
    tweet = micro.tweets[1]
    thread = threads[tweet.rumour_id]
    row = assemble(tweet, thread, bundle, schema, now=0.0)
    present = {
        t.lowercase
        for t in tokenize(tweet.text, bundle.lexicons.all_emoticons)
        if t.kind.name in ("WORD", "HASHTAG")
    }
    for word in dicts.bow_vocab:
        idx = name_to_idx[f"bow={word}"]
        expected = 1.0 if word in present else None
        assert row.get(idx) == expected


def test_bow_columns_count_each_occurrence(ottawa, bundle):
    # a BOW column counts its term's occurrences in the tweet, not presence
    _, schema, analyses = featurize_corpus(ottawa, bundle, None, now=0.0)
    repeated = []
    for tweet, a in zip(ottawa.tweets, analyses):
        counts = Counter(t.lowercase for t in tokenize(tweet.text, bundle.lexicons.all_emoticons)
                         if t.kind.name in ("WORD", "HASHTAG"))
        repeated += [(a, word, n) for word, n in counts.items()
                     if n > 1 and f"bow={word}" in schema.name_to_index]
    assert repeated
    for a, word, n in repeated:
        assert vectorize(a, schema)[schema.name_to_index[f"bow={word}"]] == n


def test_brown_columns_match_table(micro, bundle, dicts, schema, threads):
    offsets = [i for i, (_, g) in enumerate(schema.columns) if g == "BROWN"]
    base = offsets[0]
    tweet = micro.tweets[2]
    thread = threads[tweet.rumour_id]
    row = assemble(tweet, thread, bundle, schema, now=0.0)
    active = {i - base for i in row if base <= i < base + BROWN_CLUSTER_COUNT}
    expected = set()
    for tok in tokenize(tweet.text, bundle.lexicons.all_emoticons):
        cluster = bundle.brown.get(tok.lowercase)
        if cluster is not None:
            expected.add(cluster)
    assert active == expected


def test_af_group_removal_only_drops_af(micro, bundle, dicts, schema, threads):
    no_af = build_schema(dicts, bundle, groups=tuple(g for g in GROUPS if g not in AF_GROUPS))
    tweet = micro.tweets[3]
    thread = threads[tweet.rumour_id]
    full = assemble(tweet, thread, bundle, schema, now=0.0)
    trimmed = assemble(tweet, thread, bundle, no_af, now=0.0)
    full_named = {schema.columns[i][0]: v for i, v in full.items()}
    trimmed_named = {no_af.columns[i][0]: v for i, v in trimmed.items()}
    dropped = {n for n in full_named if n not in trimmed_named}
    assert all(schema.columns[i][1] in AF_GROUPS for i, _ in enumerate(schema.columns) if schema.columns[i][0] in dropped)
    for name, value in trimmed_named.items():
        assert full_named[name] == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("reverse", [False, True])
def test_featurize_equals_assemble_analysing_each_text_once(
        micro, bundle, dicts, schema, threads, analysed_texts, tokenized_chunks,
        reverse):
    # the featurization of every command: analyse_many, then vectorize;
    # reversed, replies come before their thread's source
    tweets = micro.tweets[::-1] if reverse else micro.tweets
    expected = [assemble(t, threads[t.rumour_id], bundle, schema, now=0.0)
                for t in tweets]
    analysed_texts.clear()
    tokenized_chunks.clear()
    assert [vectorize(a, schema)
            for a in analyse_many(tweets, threads, bundle, now=0.0)] == expected
    assert sorted(analysed_texts) == sorted(t.text for t in tweets)
    assert sorted(tokenized_chunks) == sorted({chunk for t in tweets
                                               for chunk in t.text.split()})


# ------------------------------------------------ one-pass analysis oracle
#
# The per-text path as it was before `analyse_many` kept chunk tokens, tags
# and marks, one gazetteer scan per text and the list norms: a fresh tokenize
# per text, the POS rules and the date and money tests per token, one scan
# per gazetteer at each of its two call sites, and a full cosine per list.

_WORDLIKE = (TokenKind.WORD, TokenKind.HASHTAG)


def one_gazetteer_hits(tokens, entries):
    """Token indices of one gazetteer's capitalized, non-initial unigram and
    bigram matches."""
    hits = set()
    for i, token in enumerate(tokens):
        if i == 0 or token.kind not in _WORDLIKE or not token.surface[:1].isupper():
            continue
        if token.lowercase in entries:
            hits.add(i)
        if i + 1 < len(tokens):
            nxt = tokens[i + 1]
            if (nxt.kind is TokenKind.WORD and nxt.surface[:1].isupper()
                    and f"{token.lowercase} {nxt.lowercase}" in entries):
                hits.update((i, i + 1))
    return hits


def scans(tokens, gazetteers):
    return [one_gazetteer_hits(tokens, entries)
            for entries in (gazetteers.person, gazetteers.org, gazetteers.location)]


def has_date(tokens) -> bool:
    """The date flag, every token tested where it stands."""
    return any(t.lowercase in _MONTHS or t.lowercase in _WEEKDAYS
               or _DATE_NUM_RE.fullmatch(t.surface) or _DAY_ORDINAL_RE.fullmatch(t.surface)
               for t in tokens)


def has_money(tokens) -> bool:
    """The money flag, every token tested where it stands."""
    for i, token in enumerate(tokens):
        if _CURRENCY_AMOUNT_RE.fullmatch(token.surface):
            return True
        is_marker = token.surface in _CURRENCY_SYMBOLS or token.lowercase in _CURRENCY_CODES
        if is_marker and i + 1 < len(tokens) and tokens[i + 1].kind is TokenKind.NUMBER:
            return True
    return False


_DATE_AND_MONEY_TEXTS = (
    "lost $5m on Monday", "lost $ 5 on 12/03", "USD 100 by the 5th", "$$ 5", "5 $",
    "on jan 3rd,", "eur. 5", "(£12.50)", "Sept. $ $", "$5bn", "£ ...", "usd", "$")


@pytest.mark.parametrize("corpus", ["micro", "ottawa"])
def test_date_and_money_flags_equal_the_per_token_scan(corpus, bundle, request):
    texts = [t.text for t in request.getfixturevalue(corpus).tweets]
    run = features._Run()  # kept across texts, as one analyse_many call keeps it
    seen = set()
    for text in texts + list(_DATE_AND_MONEY_TEXTS) + texts[::-1]:
        tokens, _, _, _, hits, marks = features._analyse_text(text, bundle, run)
        flags = entity_flags(tokens, hits, marks)
        assert (flags[2], flags[4]) == (int(has_date(tokens)), int(has_money(tokens))), text
        seen.add((flags[2], flags[4]))
    assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}


def reference_text(text, r):
    """(tokens, content vector) of a text, nothing kept from other texts."""
    tokens = tokenize(text, frozenset().union(*r.lexicons.emoticons.values()))
    entity = set().union(*scans(tokens, r.gazetteers))
    words = []
    for i, token in enumerate(tokens):
        if token.kind not in _WORDLIKE or i in entity:
            continue
        word = token.lowercase
        if token.kind is TokenKind.HASHTAG:
            word = word.lstrip("#")
            if not word:
                continue
        if word not in r.lexicons.acronyms:
            words.append(word)
    return tokens, cumulative_vector(words, r.embeddings)


def reference_analysis(t, thread, r, now):
    tokens, vector = reference_text(t.text, r)
    lex = r.lexicons
    forms = []
    for token in tokens:
        if token.kind is TokenKind.WORD:
            forms.append(token.lowercase)
        elif token.kind is TokenKind.HASHTAG and token.lowercase.lstrip("#"):
            forms.append(token.lowercase.lstrip("#"))
    named = {}
    for form in forms:
        if r.brown.get(form) is not None:
            named[f"brown={r.brown.get(form):04d}"] = 1
    named["sentiment"] = sentiment_score(tokens, lex.sentiment)
    person, org, location = scans(tokens, r.gazetteers)
    named.update(ne_person=int(bool(person)), ne_organization=int(bool(org)),
                 ne_date=int(has_date(tokens)), ne_location=int(bool(location)),
                 ne_money=int(has_money(tokens)))
    surfaces = {tok.surface for tok in tokens if tok.kind is TokenKind.EMOTICON}
    for category, members in lex.emoticons.items():
        named[f"emot={category}"] = int(bool(surfaces & members))
    named["hasURL"] = int(any(tok.kind is TokenKind.URL for tok in tokens))
    for name, table in (("hasSlangOrCurseWord", lex.slang),
                        ("hasGoogleBadWord", lex.google_bad), ("hasAcronyms", lex.acronyms)):
        named[name] = int(any(f in table for f in forms))
    lengths = [len(tok.surface) for tok in tokens if tok.kind is TokenKind.WORD]
    named["averageWordLength"] = sum(lengths) / len(lengths) if lengths else 0.0
    counts = (t.text.count("?"), t.text.count("!"), len(DOTS_RUN_RE.findall(t.text)))
    named.update(zip(("hasQuestionMark", "hasExclamationMark", "hasDotDotDot"),
                     (int(c > 0) for c in counts)))
    named.update(zip(("numberOfQuestionMark", "numberOfExclamationMark",
                      "numberOfDotDotDot"), counts))
    for i, pattern in enumerate(lex.regex_pack):
        named[f"regex_{i}"] = int(pattern.search(t.text) is not None)
    named["averageNegation"], named["hasNegation"] = negation_stats(tokens)
    named.update(extract_user(t, now))
    for mood in MOOD_NAMES:
        named[f"mood_{mood}"] = plain_cosine(vector, r.list_vectors[mood])
    for name, listed in (("surpriseScore", "surprise"), ("doubtScore", "doubt"),
                         ("noDoubtScore", "nodoubt"), ("supportScore", "support")):
        named[name] = plain_cosine(vector, r.list_vectors[listed])
    source = thread.source
    if t.tweet_id == source.tweet_id or _is_retweet_of(t.text, source.text):
        named["initialTweetSim"] = 1.0
    else:
        named["initialTweetSim"] = plain_cosine(vector,
                                                 reference_text(source.text, r)[1])
    first = next((tok.lowercase for tok in tokens if tok.kind is TokenKind.WORD), None)
    named["isQuestion"] = int(first is not None and first in lex.interrogatives)
    tags = [(_KIND_TAGS.get(tok.kind) or _tag_word(tok.lowercase)).value for tok in tokens]
    grams = ["|".join(tags[i:i + n]) for n in (2, 3, 4) for i in range(len(tags) - n + 1)]
    return TweetAnalysis(
        tweet_id=t.tweet_id, label=t.label,
        named=tuple((name, float(v)) for name, v in named.items() if v != 0),
        bow=tuple(tok.lowercase for tok in tokens if tok.kind in _WORDLIKE),
        posng=tuple(grams))


def reference_analyses(tweets, threads, r, now):
    return [reference_analysis(t, threads[t.rumour_id], r, now) for t in tweets]


@pytest.mark.parametrize("corpus", ["micro", "ottawa"])
def test_analyse_many_equals_the_per_text_reference(corpus, bundle, request):
    dataset = request.getfixturevalue(corpus)
    threads = thread_index(build_threads(dataset))
    now = resolve_now(None, dataset)
    assert (list(analyse_many(dataset.tweets, threads, bundle, now))
            == reference_analyses(dataset.tweets, threads, bundle, now))


# chunks that change meaning with position or neighbours: gazetteer unigrams
# and bigram halves (a hit only when capitalized, not first, and for a bigram
# next to another capitalized word), emoticons under two emoticon sets,
# trailing punctuation, n't forms, hashtags and mentions
_CHUNKS = ("the", "police", "Police", "said", "running", "quickly", "isn't", "don't",
           "can't.", "n't", ":)", ":(", ":-)", ":(!", "#ottawa", "#Ottawa", "#smith",
           "@user", "@user:", "RT", "really?", "Wow!", "what", "Why", "...", "wait...",
           "http://t.co/x", "5", "$5", "Monday", "John", "Smith", "smith", "Smith.",
           "(Smith)", "Mayor", "Wilson", "City", "Council", "Hall", "Ottawa", "Ottawa,",
           "Main", "Street", "Red", "Cross", "doubt", "worried", "unconfirmed", "lol",
           "not", "good", "bad")
_texts = st.lists(st.sampled_from(_CHUNKS), max_size=9).map(" ".join)
_USER = UserStats(statuses_count=10, verified=False, followers=3, followees=4,
                  favourites_count=1, account_created=0.0, geo_enabled=False)


@st.composite
def _thread_tweets(draw):
    """(tweets in a drawn order, rumour id -> Thread) of one to three threads."""
    tweets, threads = [], {}
    for k in range(draw(st.integers(1, 3))):
        source_text = draw(_texts)
        texts = [source_text] + draw(st.lists(
            _texts | st.just("RT @user: " + source_text), max_size=4))
        thread = [TweetRecord(tweet_id=f"r{k}-t{j}", text=text, created_at=float(j),
                              in_reply_to=None if j == 0 else f"r{k}-t0",
                              rumour_id=f"r{k}", event_id="e", user=_USER)
                  for j, text in enumerate(texts)]
        threads[f"r{k}"] = Thread(source=thread[0], replies=tuple(thread[1:]))
        tweets.extend(thread)
    return draw(st.permutations(tweets)), threads


@pytest.fixture(scope="module")
def bundle_variants(bundle):
    """The bundle, and the bundle with unigram gazetteer entries (one shared
    by two gazetteers) and a smaller emoticon set."""
    gaz = bundle.gazetteers
    other = replace(
        bundle,
        gazetteers=Gazetteers(person=gaz.person | {"smith", "wilson"},
                              org=gaz.org | {"council", "ottawa"},
                              location=gaz.location | {"ottawa", "hall"}),
        lexicons=replace(bundle.lexicons, emoticons={"happy": frozenset({":)", ":-)"})}))
    return bundle, other


@settings(max_examples=150, deadline=None)
@given(drawn=_thread_tweets(), variant=st.integers(0, 1))
def test_analyse_many_equals_the_reference_on_drawn_threads(drawn, variant,
                                                            bundle_variants):
    tweets, threads = drawn
    r = bundle_variants[variant]
    assert (list(analyse_many(tweets, threads, r, 100.0))
            == reference_analyses(tweets, threads, r, 100.0))


@settings(max_examples=100, deadline=None)
@given(drawn=_thread_tweets(), variant=st.integers(0, 1))
def test_every_name_written_on_drawn_threads_is_a_column_of_its_group(drawn, variant,
                                                                      bundle_variants):
    tweets, threads = drawn
    r = bundle_variants[variant]
    assert_columns_of_their_groups(
        {name for a in analyse_many(tweets, threads, r, 100.0) for name, _ in a.named}, r)

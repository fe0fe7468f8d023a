"""Tokenizer, POS tagger, entity flags, sentiment buckets, negation stats."""
from __future__ import annotations

import time
from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from rumourstance.text import (
    DOTS_RUN_RE,
    HASHTAG_RE,
    MENTION_RE,
    NUMBER_RE,
    URL_RE,
    PosTag,
    TokenKind,
    _emit_chunk,
    _is_strippable,
    _make_token,
    entity_flags,
    gazetteer_hits,
    negation_stats,
    pos_tag,
    sentiment_score,
    token_marks,
    tokenize,
)


def kinds(tokens):
    return [(t.surface, t.kind) for t in tokens]


def test_tokenize_basic_sentence():
    toks = tokenize("Is this true? http://t.co/x")
    assert kinds(toks) == [
        ("Is", TokenKind.WORD),
        ("this", TokenKind.WORD),
        ("true", TokenKind.WORD),
        ("?", TokenKind.PUNCTUATION),
        ("http://t.co/x", TokenKind.URL),
    ]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("   \t\n") == []


def test_tokenize_emoticon_and_dots():
    toks = tokenize("wow... :)", emoticons=frozenset({":)"}))
    assert kinds(toks) == [
        ("wow", TokenKind.WORD),
        ("...", TokenKind.PUNCTUATION),
        (":)", TokenKind.EMOTICON),
    ]


def test_tokenize_mention_keeps_trailing_punct_separate():
    toks = tokenize("RT @newsdesk: something happened")
    assert kinds(toks)[:3] == [
        ("RT", TokenKind.WORD),
        ("@newsdesk", TokenKind.MENTION),
        (":", TokenKind.PUNCTUATION),
    ]


def test_tokenize_bare_at_is_punctuation():
    toks = tokenize("email me @ noon")
    assert ("@", TokenKind.PUNCTUATION) in kinds(toks)


def test_tokenize_hashtag_kept_whole():
    toks = tokenize("so scary #ottawa!")
    assert ("#ottawa", TokenKind.HASHTAG) in kinds(toks)
    assert ("!", TokenKind.PUNCTUATION) in kinds(toks)


def test_tokenize_numbers():
    toks = tokenize("lost $5 million, 123 said")
    surface_kinds = dict(kinds(toks))
    assert surface_kinds["123"] == TokenKind.NUMBER
    assert surface_kinds["said"] == TokenKind.WORD


def test_token_lowercase_field():
    toks = tokenize("BREAKING News")
    assert [t.lowercase for t in toks] == ["breaking", "news"]


def recursive_emit_chunk(chunk, emoticons, out):
    """The chunk splitter as one recursive call per peeled piece: the
    oracle of `_emit_chunk`, which peels in a loop."""
    if not chunk:
        return
    if URL_RE.fullmatch(chunk):
        out.append(_make_token(chunk, TokenKind.URL))
        return
    if chunk in emoticons:
        out.append(_make_token(chunk, TokenKind.EMOTICON))
        return
    mention = MENTION_RE.match(chunk)
    if mention:
        out.append(_make_token(mention.group(), TokenKind.MENTION))
        recursive_emit_chunk(chunk[mention.end():], emoticons, out)
        return
    hashtag = HASHTAG_RE.match(chunk)
    if hashtag:
        out.append(_make_token(hashtag.group(), TokenKind.HASHTAG))
        recursive_emit_chunk(chunk[hashtag.end():], emoticons, out)
        return
    if NUMBER_RE.fullmatch(chunk):
        out.append(_make_token(chunk, TokenKind.NUMBER))
        return
    dots = DOTS_RUN_RE.match(chunk)
    if dots:
        out.append(_make_token(dots.group(), TokenKind.PUNCTUATION))
        recursive_emit_chunk(chunk[dots.end():], emoticons, out)
        return
    if _is_strippable(chunk[0]):
        out.append(_make_token(chunk[0], TokenKind.PUNCTUATION))
        recursive_emit_chunk(chunk[1:], emoticons, out)
        return
    trailing_dots = DOTS_RUN_RE.search(chunk)
    if trailing_dots and trailing_dots.end() == len(chunk):
        recursive_emit_chunk(chunk[:trailing_dots.start()], emoticons, out)
        out.append(_make_token(trailing_dots.group(), TokenKind.PUNCTUATION))
        return
    if _is_strippable(chunk[-1]):
        recursive_emit_chunk(chunk[:-1], emoticons, out)
        out.append(_make_token(chunk[-1], TokenKind.PUNCTUATION))
        return
    out.append(_make_token(chunk, TokenKind.WORD))


_CHUNK_PIECES = (*"aZ7@#.!?()$:,;'\"-_£€“”¿", "...", ":)", ":-)", "http://t.co/x", "www.a.b")


@settings(max_examples=500, deadline=None)
@given(chunk=st.lists(st.sampled_from(_CHUNK_PIECES), max_size=12).map("".join),
       emoticons=st.sampled_from([frozenset(), frozenset({":)", ":-)"})]))
def test_chunk_splitter_equals_the_recursive_oracle(chunk, emoticons):
    got, want = [], []
    _emit_chunk(chunk, emoticons, got)
    recursive_emit_chunk(chunk, emoticons, want)
    assert got == want


def test_a_long_punctuation_run_splits_without_recursion():
    run = "!?" * 3000
    assert kinds(tokenize(run + "word" + run)) == (
        [(ch, TokenKind.PUNCTUATION) for ch in run] + [("word", TokenKind.WORD)]
        + [(ch, TokenKind.PUNCTUATION) for ch in run])
    assert len(tokenize("@a" * 3000)) == 3000


def test_a_long_trailing_run_splits_as_fast_as_a_leading_one():
    run = "!" * 20_000
    leading, trailing = run + "word", "word" + run
    assert len(tokenize(leading)) == len(tokenize(trailing)) == 20_001

    def best_of_three(text):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            tokenize(text)
            times.append(time.perf_counter() - start)
        return min(times)

    assert best_of_three(trailing) <= 3 * best_of_three(leading)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_tokenize_loses_no_characters(text):
    """The multiset of non-whitespace characters survives tokenization."""
    joined = "".join(t.surface for t in tokenize(text))
    want = Counter(ch for ch in text if not ch.isspace())
    got = Counter(ch for ch in joined if not ch.isspace())
    assert got == want


def test_pos_tag_rules():
    toks = tokenize("the running 123 @user http://x.co #tag ?")
    tags = pos_tag(toks)
    by_surface = dict(zip((t.surface for t in toks), tags))
    assert by_surface["the"] == PosTag.DET
    assert by_surface["running"] == PosTag.VERB
    assert by_surface["123"] == PosTag.NUM
    assert by_surface["@user"] == PosTag.X
    assert by_surface["http://x.co"] == PosTag.X
    assert by_surface["#tag"] == PosTag.X
    assert by_surface["?"] == PosTag.PUNCT


def test_pos_tag_emoticon_is_x(bundle):
    toks = tokenize("ok :)", emoticons=bundle.lexicons.all_emoticons)
    assert pos_tag(toks)[-1] == PosTag.X


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=60))
def test_pos_tag_length_matches(text):
    toks = tokenize(text)
    assert len(pos_tag(toks)) == len(toks)


def entities(tokens, gazetteers) -> SimpleNamespace:
    """The entity flags of the tokens, by name."""
    flags = entity_flags(tokens, gazetteer_hits(tokens, gazetteers), token_marks(tokens))
    return SimpleNamespace(**dict(zip(("person", "organization", "date", "location", "money"),
                                      flags)))


def test_detect_entities_money_and_date(bundle):
    gaz = bundle.gazetteers
    flags = entities(tokenize("$5 million lost"), gaz)
    assert flags.money == 1
    flags = entities(tokenize("see you on Monday"), gaz)
    assert flags.date == 1
    flags = entities([], gaz)
    assert (flags.person, flags.organization, flags.date, flags.location, flags.money) == (0, 0, 0, 0, 0)


def test_detect_entities_gazetteer_location(bundle):
    gaz = bundle.gazetteers
    entry = next(iter(gaz.location))
    text = "reports from " + entry.title()
    flags = entities(tokenize(text), gaz)
    assert flags.location == 1


def test_sentiment_neutral_default():
    assert sentiment_score(tokenize("lorem ipsum dolor"), {}) == 2


def test_sentiment_buckets():
    lex = {"good": 1, "bad": -1, "meh": 0}
    assert sentiment_score(tokenize("good"), lex) == 4  # mean 1.0 is "very positive"
    assert sentiment_score(tokenize("good meh"), lex) == 3  # mean 0.5
    assert sentiment_score(tokenize("good bad"), lex) == 2  # mean 0.0
    assert sentiment_score(tokenize("bad meh"), lex) == 1  # mean -0.5
    assert sentiment_score(tokenize("bad"), lex) == 0  # mean -1.0 is "very negative"


def test_sentiment_negation_flip():
    lex = {"good": 1, "meh": 0}
    # flipped +1 lands at -1, the "very negative" edge
    assert sentiment_score(tokenize("not good"), lex) == 0
    # diluted by a neutral match: mean -0.5
    assert sentiment_score(tokenize("not good meh"), lex) == 1


def test_sentiment_negation_window():
    lex = {"good": 1}
    # cue more than 3 tokens before the word: no flip, mean stays +1
    assert sentiment_score(tokenize("not a b c good"), lex) == 4


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(whitelist_categories=("Ll", "Zs")), max_size=60))
def test_sentiment_range(text):
    lex = {"good": 1, "bad": -1}
    assert sentiment_score(tokenize(text), lex) in {0, 1, 2, 3, 4}


def test_sentiment_monotone_in_positive_words():
    lex = {"good": 1, "great": 2, "bad": -2}
    base = "bad bad"
    scores = [
        sentiment_score(tokenize(base), lex),
        sentiment_score(tokenize(base + " great"), lex),
        sentiment_score(tokenize(base + " great great"), lex),
    ]
    assert scores == sorted(scores)


def test_negation_stats_hand_counts():
    assert negation_stats(tokenize("this is not true")) == (0.25, 1)
    assert negation_stats(tokenize("confirmed by police")) == (0.0, 0)
    assert negation_stats(tokenize("can't won't don't")) == (1.0, 1)


def test_negation_stats_no_words():
    assert negation_stats(tokenize("!!! ???")) == (0.0, 0)
    assert negation_stats([]) == (0.0, 0)

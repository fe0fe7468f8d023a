"""Deterministic text preprocessing: tokenizer, coarse POS tagger,
named-entity heuristics, lexicon sentiment scorer, negation-cue detection.

Everything here is a pure function over immutable resources, so the results
are reproducible between training and test time by construction.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from enum import Enum


class TokenKind(Enum):
    WORD = "word"
    HASHTAG = "hashtag"
    MENTION = "mention"
    URL = "url"
    EMOTICON = "emoticon"
    PUNCTUATION = "punctuation"
    NUMBER = "number"


@dataclass(frozen=True)
class Token:
    surface: str
    lowercase: str
    kind: TokenKind


class PosTag(Enum):
    NOUN = "NOUN"
    VERB = "VERB"
    ADJ = "ADJ"
    ADV = "ADV"
    PRON = "PRON"
    DET = "DET"
    ADP = "ADP"
    CONJ = "CONJ"
    NUM = "NUM"
    PRT = "PRT"
    PUNCT = "PUNCT"
    X = "X"


URL_RE = re.compile(r"(?:https?://\S+|www\.\S+)")
MENTION_RE = re.compile(r"@\w+")
HASHTAG_RE = re.compile(r"#\w+")
NUMBER_RE = re.compile(r"[+-]?\d+(?:[.,]\d+)*")
DOTS_RUN_RE = re.compile(r"\.{3,}")


def _is_strippable(ch: str) -> bool:
    return unicodedata.category(ch)[0] in ("P", "S")


def _make_token(surface: str, kind: TokenKind) -> Token:
    return Token(surface=surface, lowercase=surface.lower(), kind=kind)


def _emit_chunk(chunk: str, emoticons: frozenset, out: list) -> None:
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
        # keep "@user" whole even with trailing punctuation, as in "RT @user:"
        out.append(_make_token(mention.group(), TokenKind.MENTION))
        _emit_chunk(chunk[mention.end():], emoticons, out)
        return
    hashtag = HASHTAG_RE.match(chunk)
    if hashtag:
        out.append(_make_token(hashtag.group(), TokenKind.HASHTAG))
        _emit_chunk(chunk[hashtag.end():], emoticons, out)
        return
    if NUMBER_RE.fullmatch(chunk):
        out.append(_make_token(chunk, TokenKind.NUMBER))
        return
    dots = DOTS_RUN_RE.match(chunk)
    if dots:
        out.append(_make_token(dots.group(), TokenKind.PUNCTUATION))
        _emit_chunk(chunk[dots.end():], emoticons, out)
        return
    if _is_strippable(chunk[0]):
        out.append(_make_token(chunk[0], TokenKind.PUNCTUATION))
        _emit_chunk(chunk[1:], emoticons, out)
        return
    trailing_dots = DOTS_RUN_RE.search(chunk)
    if trailing_dots and trailing_dots.end() == len(chunk):
        _emit_chunk(chunk[:trailing_dots.start()], emoticons, out)
        out.append(_make_token(trailing_dots.group(), TokenKind.PUNCTUATION))
        return
    if _is_strippable(chunk[-1]):
        _emit_chunk(chunk[:-1], emoticons, out)
        out.append(_make_token(chunk[-1], TokenKind.PUNCTUATION))
        return
    out.append(_make_token(chunk, TokenKind.WORD))


def tokenize(text: str, emoticons: frozenset = frozenset()) -> list:
    """Split a tweet into tokens on Unicode whitespace.

    URLs, @mentions, #hashtags, and dictionary emoticons survive as single
    tokens; leading/trailing punctuation is split off into punctuation tokens,
    with runs of three or more dots kept as one token.
    """
    tokens: list = []
    for chunk in text.split():
        _emit_chunk(chunk, emoticons, tokens)
    return tokens


# --- coarse POS tagging ------------------------------------------------------

_CLOSED_CLASS = {}
for _word in ("the", "a", "an", "this", "that", "these", "those", "each", "every",
              "either", "neither", "some", "any", "no", "all", "both", "such",
              "what", "which"):
    _CLOSED_CLASS[_word] = PosTag.DET
for _word in ("i", "me", "you", "he", "him", "she", "her", "it", "we", "us",
              "they", "them", "my", "mine", "your", "yours", "his", "hers",
              "its", "our", "ours", "their", "theirs", "myself", "yourself",
              "himself", "herself", "itself", "ourselves", "themselves",
              "who", "whom", "whose", "someone", "anyone", "everyone",
              "nobody", "something", "anything", "nothing", "everything"):
    _CLOSED_CLASS[_word] = PosTag.PRON
for _word in ("in", "on", "at", "by", "for", "with", "about", "against",
              "between", "into", "through", "during", "before", "after",
              "above", "below", "from", "up", "down", "of", "off", "over",
              "under", "near", "since", "until", "within", "without",
              "via", "per", "amid", "toward", "towards"):
    _CLOSED_CLASS[_word] = PosTag.ADP
for _word in ("and", "but", "or", "nor", "so", "yet", "because", "although",
              "though", "while", "whereas", "if", "unless", "whether", "as"):
    _CLOSED_CLASS[_word] = PosTag.CONJ
for _word in ("is", "are", "was", "were", "am", "be", "been", "being",
              "do", "does", "did", "done", "have", "has", "had", "having",
              "will", "would", "shall", "should", "can", "could", "may",
              "might", "must", "get", "got", "go", "goes", "went", "say",
              "says", "said", "see", "saw", "seen", "know", "knows", "knew",
              "think", "thinks", "thought", "make", "makes", "made"):
    _CLOSED_CLASS[_word] = PosTag.VERB
for _word in ("not", "never", "very", "too", "also", "just", "only", "now",
              "then", "here", "there", "again", "still", "already", "soon",
              "always", "often", "really", "quite", "almost", "even", "maybe",
              "perhaps", "when", "where", "why", "how"):
    _CLOSED_CLASS[_word] = PosTag.ADV
for _word in ("to", "'s", "n't", "out"):
    _CLOSED_CLASS[_word] = PosTag.PRT

# suffix rules, tried in this order
_SUFFIX_TAGS = (
    (("ly",), PosTag.ADV),
    (("ing", "ed", "ise", "ize", "ify", "ate"), PosTag.VERB),
    (("ful", "ous", "ive", "able", "ible", "al", "ic", "ish",
      "less", "est", "ier", "iest"), PosTag.ADJ),
    (("tion", "sion", "ment", "ness", "ity", "ism", "ist",
      "er", "or", "ship", "hood", "ure", "age"), PosTag.NOUN),
)

_KIND_TAGS = {
    TokenKind.URL: PosTag.X,
    TokenKind.MENTION: PosTag.X,
    TokenKind.HASHTAG: PosTag.X,
    TokenKind.EMOTICON: PosTag.X,
    TokenKind.PUNCTUATION: PosTag.PUNCT,
    TokenKind.NUMBER: PosTag.NUM,
}


def _tag_word(word: str) -> PosTag:
    tag = _CLOSED_CLASS.get(word)
    if tag is not None:
        return tag
    if word.endswith("n't"):
        return PosTag.PRT
    for suffixes, suffix_tag in _SUFFIX_TAGS:
        if any(word.endswith(s) and len(word) > len(s) + 1 for s in suffixes):
            return suffix_tag
    return PosTag.NOUN


def pos_tag(tokens) -> list:
    """One coarse tag per token: kind-driven tags, then a closed-class
    lexicon, then suffix rules, defaulting to NOUN."""
    tags = []
    for token in tokens:
        kind_tag = _KIND_TAGS.get(token.kind)
        tags.append(kind_tag if kind_tag is not None else _tag_word(token.lowercase))
    return tags


# --- named-entity heuristics --------------------------------------------------

_MONTHS = frozenset("january february march april may june july august september "
                    "october november december jan feb mar apr jun jul aug sep "
                    "sept oct nov dec".split())
_WEEKDAYS = frozenset("monday tuesday wednesday thursday friday saturday sunday "
                      "mon tue tues wed thu thur thurs fri sat sun".split())
_DATE_NUM_RE = re.compile(r"\d{1,4}[-/.]\d{1,2}(?:[-/.]\d{1,4})?")
_DAY_ORDINAL_RE = re.compile(r"\d{1,2}(?:st|nd|rd|th)", re.IGNORECASE)
_CURRENCY_SYMBOLS = frozenset({"$", "€", "£", "¥"})
_CURRENCY_CODES = frozenset({"usd", "eur", "gbp", "cad", "aud", "jpy", "chf"})
_CURRENCY_AMOUNT_RE = re.compile(r"[$€£¥]\d+(?:[.,]\d+)*[mkb]?", re.IGNORECASE)


@dataclass(frozen=True)
class EntityFlags:
    person: int = 0
    organization: int = 0
    date: int = 0
    location: int = 0
    money: int = 0


def _gazetteer_hits(tokens, entries: frozenset) -> set:
    """Token indices covered by gazetteer matches over capitalized,
    non-initial unigrams and bigrams."""
    hits: set = set()
    for i, token in enumerate(tokens):
        if i == 0 or token.kind not in (TokenKind.WORD, TokenKind.HASHTAG):
            continue
        if not token.surface[:1].isupper():
            continue
        if token.lowercase in entries:
            hits.add(i)
        if i + 1 < len(tokens):
            nxt = tokens[i + 1]
            if nxt.kind is TokenKind.WORD and nxt.surface[:1].isupper():
                bigram = f"{token.lowercase} {nxt.lowercase}"
                if bigram in entries:
                    hits.add(i)
                    hits.add(i + 1)
    return hits


def _has_date(tokens) -> bool:
    for token in tokens:
        if token.lowercase in _MONTHS or token.lowercase in _WEEKDAYS:
            return True
        if _DATE_NUM_RE.fullmatch(token.surface):
            return True
        if _DAY_ORDINAL_RE.fullmatch(token.surface):
            return True
    return False


def _has_money(tokens) -> bool:
    for i, token in enumerate(tokens):
        if _CURRENCY_AMOUNT_RE.fullmatch(token.surface):
            return True
        is_marker = token.surface in _CURRENCY_SYMBOLS or token.lowercase in _CURRENCY_CODES
        if is_marker and i + 1 < len(tokens) and tokens[i + 1].kind is TokenKind.NUMBER:
            return True
    return False


def detect_entities(tokens, gazetteers) -> EntityFlags:
    """Binary flags for the five entity classes, from gazetteers and patterns."""
    return EntityFlags(
        person=int(bool(_gazetteer_hits(tokens, gazetteers.person))),
        organization=int(bool(_gazetteer_hits(tokens, gazetteers.org))),
        date=int(_has_date(tokens)),
        location=int(bool(_gazetteer_hits(tokens, gazetteers.location))),
        money=int(_has_money(tokens)),
    )


def entity_token_indices(tokens, gazetteers) -> set:
    """Indices of tokens matched by the person/org/location gazetteers."""
    hits = _gazetteer_hits(tokens, gazetteers.person)
    hits |= _gazetteer_hits(tokens, gazetteers.org)
    hits |= _gazetteer_hits(tokens, gazetteers.location)
    return hits


# --- sentiment and negation ---------------------------------------------------

_NEGATION_CUES = frozenset({"not", "no", "never", "cannot", "without",
                            "neither", "nor"})
_NEGATION_WINDOW = 3


def _is_negation_cue(token: Token) -> bool:
    return token.lowercase in _NEGATION_CUES or token.lowercase.endswith("n't")


def sentiment_score(tokens, lexicon: dict) -> int:
    """Lexicon polarity of a tweet on the 0 (very negative) .. 4 (very
    positive) scale; 2 when no lexicon word matches.

    Polarity of a word within three tokens after a negation cue is flipped.
    """
    cue_positions = [i for i, t in enumerate(tokens) if _is_negation_cue(t)]
    total = 0.0
    matched = 0
    for i, token in enumerate(tokens):
        polarity = lexicon.get(token.lowercase)
        if polarity is None:
            continue
        flipped = any(0 < i - j <= _NEGATION_WINDOW for j in cue_positions)
        total += -polarity if flipped else polarity
        matched += 1
    if matched == 0:
        return 2
    mean = total / matched
    if mean <= -1.0:
        return 0
    if mean <= -0.25:
        return 1
    if mean < 0.25:
        return 2
    if mean < 1.0:
        return 3
    return 4


def negation_stats(tokens) -> tuple:
    """(cue count / word-token count, has-any-cue flag)."""
    cues = sum(1 for t in tokens if _is_negation_cue(t))
    words = sum(1 for t in tokens if t.kind is TokenKind.WORD)
    average = cues / words if words else 0.0
    return average, int(cues > 0)

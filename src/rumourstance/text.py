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
    """Append the tokens of one whitespace-free chunk to `out`: pieces are
    peeled off its front onto `out` and off its back onto `trailing`, which
    follows the core in reverse, until a whole-chunk form or a word is left."""
    trailing = []
    while chunk:
        if URL_RE.fullmatch(chunk):
            out.append(_make_token(chunk, TokenKind.URL))
            break
        if chunk in emoticons:
            out.append(_make_token(chunk, TokenKind.EMOTICON))
            break
        # keep "@user" whole even with trailing punctuation, as in "RT @user:"
        lead = MENTION_RE.match(chunk) or HASHTAG_RE.match(chunk)
        if lead:
            kind = TokenKind.MENTION if chunk[0] == "@" else TokenKind.HASHTAG
            out.append(_make_token(lead.group(), kind))
            chunk = chunk[lead.end():]
            continue
        if NUMBER_RE.fullmatch(chunk):
            out.append(_make_token(chunk, TokenKind.NUMBER))
            break
        dots = DOTS_RUN_RE.match(chunk)
        if dots or _is_strippable(chunk[0]):
            end = dots.end() if dots else 1
            out.append(_make_token(chunk[:end], TokenKind.PUNCTUATION))
            chunk = chunk[end:]
            continue
        dots = DOTS_RUN_RE.search(chunk)
        if dots and dots.end() == len(chunk):
            start = dots.start()
        elif _is_strippable(chunk[-1]):
            start = -1
        else:
            out.append(_make_token(chunk, TokenKind.WORD))
            break
        trailing.append(_make_token(chunk[start:], TokenKind.PUNCTUATION))
        chunk = chunk[:start]
    out.extend(reversed(trailing))


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
    return [_KIND_TAGS.get(token.kind) or _tag_word(token.lowercase) for token in tokens]


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


def gazetteer_hits(tokens, gazetteers) -> tuple:
    """(person, org, location) sets of the token indices covered by
    gazetteer matches over capitalized, non-initial unigrams and bigrams,
    from one scan of the tokens."""
    tables = (gazetteers.person, gazetteers.org, gazetteers.location)
    found = (set(), set(), set())
    for i, token in enumerate(tokens):
        if i == 0 or token.kind not in (TokenKind.WORD, TokenKind.HASHTAG):
            continue
        if not token.surface[:1].isupper():
            continue
        bigram = None
        if i + 1 < len(tokens):
            nxt = tokens[i + 1]
            if nxt.kind is TokenKind.WORD and nxt.surface[:1].isupper():
                bigram = f"{token.lowercase} {nxt.lowercase}"
        for entries, hits in zip(tables, found):
            if token.lowercase in entries:
                hits.add(i)
            if bigram is not None and bigram in entries:
                hits.update((i, i + 1))
    return found


# token marks, one bit each: every test reads one token alone
_DATE, _AMOUNT, _MARKER = 1, 2, 4


def _is_currency_marker(token: Token) -> bool:
    return token.surface in _CURRENCY_SYMBOLS or token.lowercase in _CURRENCY_CODES


def token_marks(tokens) -> int:
    """The marks of the tokens, or-ed: _DATE for a month or weekday name, a
    numeric date or a day ordinal, _AMOUNT for a currency amount such as
    `$5m`, _MARKER for a currency symbol or code."""
    marks = 0
    for token in tokens:
        if (token.lowercase in _MONTHS or token.lowercase in _WEEKDAYS
                or _DATE_NUM_RE.fullmatch(token.surface)
                or _DAY_ORDINAL_RE.fullmatch(token.surface)):
            marks |= _DATE
        if _CURRENCY_AMOUNT_RE.fullmatch(token.surface):
            marks |= _AMOUNT
        if _is_currency_marker(token):
            marks |= _MARKER
    return marks


def entity_flags(tokens, hits, marks: int) -> tuple:
    """The (person, organization, date, location, money) flags of a text,
    0 or 1, given its `gazetteer_hits` and its `token_marks`. Money is a
    currency amount token, or a currency marker before a number token."""
    person, org, location = (int(bool(h)) for h in hits)
    money = bool(marks & _AMOUNT) or bool(marks & _MARKER) and any(
        _is_currency_marker(token) and tokens[i + 1].kind is TokenKind.NUMBER
        for i, token in enumerate(tokens[:-1]))
    return person, org, int(bool(marks & _DATE)), location, int(money)


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

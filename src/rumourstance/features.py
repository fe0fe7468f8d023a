"""Feature extraction: tweet + thread context -> named sparse vectors.

The column set is governed by a FeatureSchema built from fold-local
dictionaries (bag of words, POS n-grams) plus the fixed resource-driven
columns. Group tags drive ablation: removing a group removes exactly that
group's columns and nothing else.
"""

from __future__ import annotations

import math
import re
from dataclasses import astuple, dataclass, field
from functools import cached_property
from hashlib import blake2b
from typing import Optional

from .corpus import Dataset, StanceLabel, Thread, TweetRecord, parse_stance_label
from .errors import SchemaError
from .resources import (
    BROWN_CLUSTER_COUNT,
    MOOD_NAMES,
    ResourceBundle,
    cosine,
    cumulative_vector,
)
from .text import (
    TokenKind,
    detect_entities,
    entity_token_indices,
    negation_stats,
    pos_tag,
    sentiment_score,
    tokenize,
)

GROUPS = ("BOW", "BROWN", "POSNG", "SENT", "NE", "REPLY", "EMOT", "URL",
          "MOOD", "USER", "NEG", "LEX", "SURF", "REGEX",
          "AF_SS", "AF_DS", "AF_NDS", "AF_SPS", "AF_ITS", "AF_IQ")

AF_GROUPS = ("AF_SS", "AF_DS", "AF_NDS", "AF_SPS", "AF_ITS", "AF_IQ")

_POSNG_SIZES = (2, 3, 4)
_SECONDS_PER_DAY = 86400.0
_RETWEET_PREFIX_RE = re.compile(r"RT @\w+:?\s+")
_DOTS_RUN_RE = re.compile(r"\.{3,}")

_USER_COLUMNS = ("originality", "isUserVerified", "numberOfFollowers",
                 "roleScore", "engagementScore", "favouritesScore",
                 "hasGeoEnabled", "hasDescription", "lengthOfDescription")
_SURF_COLUMNS = ("averageWordLength", "hasQuestionMark", "hasExclamationMark",
                 "hasDotDotDot", "numberOfQuestionMark",
                 "numberOfExclamationMark", "numberOfDotDotDot")
_NE_COLUMNS = ("ne_person", "ne_organization", "ne_date", "ne_location",
               "ne_money")

_BINARY_NAMES = frozenset({
    "isReply", "hasURL", "isUserVerified", "hasGeoEnabled", "hasDescription",
    "hasNegation", "hasSlangOrCurseWord", "hasGoogleBadWord", "hasAcronyms",
    "hasQuestionMark", "hasExclamationMark", "hasDotDotDot", "isQuestion",
}) | frozenset(_NE_COLUMNS)

_COSINE_GROUPS = frozenset({"MOOD", "AF_SS", "AF_DS", "AF_NDS", "AF_SPS",
                            "AF_ITS"})
COSINE_SLACK = 1e-12


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered (name, group) columns; the contract every vector and model
    is checked against via a 64-bit fingerprint of the schema file text."""

    columns: tuple

    def __post_init__(self):
        seen = set()
        for name, group in self.columns:
            if group not in GROUPS:
                raise SchemaError(f"unknown feature group: {group}")
            if name in seen:
                raise SchemaError(f"duplicate feature name: {name}")
            seen.add(name)

    def __len__(self) -> int:
        return len(self.columns)

    @cached_property
    def name_to_index(self) -> dict:
        return {name: i for i, (name, _) in enumerate(self.columns)}

    @cached_property
    def groups_present(self) -> frozenset:
        return frozenset(group for _, group in self.columns)

    @cached_property
    def fingerprint(self) -> int:
        return fingerprint64(self)


@dataclass(frozen=True)
class FeatureDictionaries:
    """Fold-local vocabularies. provenance records which rumours the
    training tweets came from, so the leakage guard can audit folds."""

    bow_vocab: dict
    posng_vocab: dict
    provenance: tuple = ()


@dataclass(frozen=True)
class AfScores:
    ss: float
    ds: float
    nds: float
    sps: float
    its: float
    iq: int


@dataclass
class FeatureVector:
    tweet_id: str
    schema_fingerprint: int
    values: dict = field(default_factory=dict)
    label: Optional[StanceLabel] = None


def schema_text(schema: FeatureSchema) -> str:
    lines = [f"{i}\t{name}\t{group}"
             for i, (name, group) in enumerate(schema.columns)]
    return "\n".join(lines) + "\n" if lines else ""


def fingerprint64(schema: FeatureSchema) -> int:
    digest = blake2b(schema_text(schema).encode("utf-8"), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def write_schema_file(schema: FeatureSchema, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(schema_text(schema))


def read_schema_file(path) -> FeatureSchema:
    columns = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SchemaError(f"{path}:{lineno + 1}: expected index<TAB>name<TAB>group")
            index_text, name, group = parts
            try:
                index = int(index_text)
            except ValueError:
                raise SchemaError(f"{path}:{lineno + 1}: bad column index {index_text!r}") from None
            if index != len(columns):
                raise SchemaError(f"{path}:{lineno + 1}: non-contiguous column index {index}")
            columns.append((name, group))
    return FeatureSchema(columns=tuple(columns))


# --- dictionaries and schema ---------------------------------------------------


def _bow_terms(tokens) -> list:
    return [t.lowercase for t in tokens
            if t.kind in (TokenKind.WORD, TokenKind.HASHTAG)]


def _pos_ngrams(tokens) -> list:
    tags = [t.value for t in pos_tag(tokens)]
    grams = []
    for n in _POSNG_SIZES:
        grams.extend("|".join(tags[i:i + n]) for i in range(len(tags) - n + 1))
    return grams


def build_dictionaries(training, resources: ResourceBundle,
                       provenance=()) -> FeatureDictionaries:
    """Frequency-filtered vocabularies (total corpus count >= 2) over the
    training tweets only, with deterministic lexicographic column order."""
    if not training:
        raise SchemaError("cannot build feature dictionaries from an empty training set")
    emoticons = resources.lexicons.all_emoticons()
    bow_counts: dict = {}
    posng_counts: dict = {}
    for tweet in training:
        tokens = tokenize(tweet.text, emoticons)
        for term in _bow_terms(tokens):
            bow_counts[term] = bow_counts.get(term, 0) + 1
        for gram in _pos_ngrams(tokens):
            posng_counts[gram] = posng_counts.get(gram, 0) + 1
    bow = {w: i for i, w in enumerate(sorted(w for w, c in bow_counts.items() if c >= 2))}
    posng = {g: i for i, g in enumerate(sorted(g for g, c in posng_counts.items() if c >= 2))}
    return FeatureDictionaries(bow_vocab=bow, posng_vocab=posng,
                               provenance=tuple(sorted(provenance)))


def build_schema(dictionaries: FeatureDictionaries, resources: ResourceBundle,
                 groups=None) -> FeatureSchema:
    """Full column layout in fixed group order; pass a subset of group tags
    to build an ablated schema."""
    if groups is None:
        enabled = set(GROUPS)
    else:
        enabled = set(groups)
        unknown = enabled - set(GROUPS)
        if unknown:
            raise SchemaError(f"unknown feature groups: {sorted(unknown)}")
    columns: list = []

    def add(name: str, group: str) -> None:
        if group in enabled:
            columns.append((name, group))

    for word in sorted(dictionaries.bow_vocab, key=dictionaries.bow_vocab.get):
        add(f"bow={word}", "BOW")
    for cluster in range(BROWN_CLUSTER_COUNT):
        add(f"brown={cluster:04d}", "BROWN")
    for gram in sorted(dictionaries.posng_vocab, key=dictionaries.posng_vocab.get):
        add(f"posng={gram}", "POSNG")
    add("sentiment", "SENT")
    for name in _NE_COLUMNS:
        add(name, "NE")
    add("isReply", "REPLY")
    for category in sorted(resources.lexicons.emoticons):
        add(f"emot={category}", "EMOT")
    add("hasURL", "URL")
    for mood in MOOD_NAMES:
        add(f"mood_{mood}", "MOOD")
    for name in _USER_COLUMNS:
        add(name, "USER")
    add("averageNegation", "NEG")
    add("hasNegation", "NEG")
    add("hasSlangOrCurseWord", "LEX")
    add("hasGoogleBadWord", "LEX")
    add("hasAcronyms", "LEX")
    for name in _SURF_COLUMNS:
        add(name, "SURF")
    for i in range(len(resources.lexicons.regex_pack)):
        add(f"regex_{i}", "REGEX")
    add("surpriseScore", "AF_SS")
    add("doubtScore", "AF_DS")
    add("noDoubtScore", "AF_NDS")
    add("supportScore", "AF_SPS")
    add("initialTweetSim", "AF_ITS")
    add("isQuestion", "AF_IQ")
    return FeatureSchema(columns=tuple(columns))


# --- per-group extraction -------------------------------------------------------


def content_words(tokens, resources: ResourceBundle) -> list:
    """Lowercase embeddable forms of a tweet's content: word and hashtag
    tokens minus acronym-dictionary matches and gazetteer entity matches.
    URL, mention, number, punctuation, and emoticon tokens never qualify."""
    entity_hits = entity_token_indices(tokens, resources.gazetteers)
    words = []
    for i, token in enumerate(tokens):
        if token.kind not in (TokenKind.WORD, TokenKind.HASHTAG):
            continue
        if i in entity_hits:
            continue
        word = token.lowercase
        if token.kind is TokenKind.HASHTAG:
            word = word.lstrip("#")
            if not word:
                continue
        if word in resources.lexicons.acronyms:
            continue
        words.append(word)
    return words


def _lexical_forms(tokens) -> list:
    forms = []
    for token in tokens:
        if token.kind is TokenKind.WORD:
            forms.append(token.lowercase)
        elif token.kind is TokenKind.HASHTAG:
            body = token.lowercase.lstrip("#")
            if body:
                forms.append(body)
    return forms


def extract_content(t: TweetRecord, tokens, d: FeatureDictionaries,
                    r: ResourceBundle) -> dict:
    """Name -> value map for the tweet-content features: BOW and POS n-gram
    frequencies, Brown cluster indicators, sentiment bucket, entity flags,
    emoticon categories, URL/lexicon/surface/regex/negation columns.

    Vocabulary-backed names appear only when nonzero; scalar names always
    appear, zero included.
    """
    out: dict = {}

    for term in _bow_terms(tokens):
        if term in d.bow_vocab:
            key = f"bow={term}"
            out[key] = out.get(key, 0) + 1
    for gram in _pos_ngrams(tokens):
        if gram in d.posng_vocab:
            key = f"posng={gram}"
            out[key] = out.get(key, 0) + 1

    forms = _lexical_forms(tokens)
    for form in forms:
        cluster = r.brown.get(form)
        if cluster is not None:
            out[f"brown={cluster:04d}"] = 1

    out["sentiment"] = sentiment_score(tokens, r.lexicons.sentiment)

    out.update(zip(_NE_COLUMNS, astuple(detect_entities(tokens, r.gazetteers))))

    surfaces = {tok.surface for tok in tokens if tok.kind is TokenKind.EMOTICON}
    for category, members in r.lexicons.emoticons.items():
        out[f"emot={category}"] = int(bool(surfaces & members))

    out["hasURL"] = int(any(tok.kind is TokenKind.URL for tok in tokens))

    out["hasSlangOrCurseWord"] = int(any(f in r.lexicons.slang for f in forms))
    out["hasGoogleBadWord"] = int(any(f in r.lexicons.google_bad for f in forms))
    out["hasAcronyms"] = int(any(f in r.lexicons.acronyms for f in forms))

    word_lengths = [len(tok.surface) for tok in tokens if tok.kind is TokenKind.WORD]
    out["averageWordLength"] = (sum(word_lengths) / len(word_lengths)) if word_lengths else 0.0
    question_marks = t.text.count("?")
    exclamations = t.text.count("!")
    dot_runs = len(_DOTS_RUN_RE.findall(t.text))
    out["hasQuestionMark"] = int(question_marks > 0)
    out["hasExclamationMark"] = int(exclamations > 0)
    out["hasDotDotDot"] = int(dot_runs > 0)
    out["numberOfQuestionMark"] = question_marks
    out["numberOfExclamationMark"] = exclamations
    out["numberOfDotDotDot"] = dot_runs

    for i, pattern in enumerate(r.lexicons.regex_pack):
        out[f"regex_{i}"] = int(pattern.search(t.text) is not None)

    average, has = negation_stats(tokens)
    out["averageNegation"] = average
    out["hasNegation"] = has
    return out


def extract_user(t: TweetRecord, now: float) -> dict:
    """Author and position features. `now` is the config-pinned epoch used
    for activity-day normalization, never the wall clock."""
    user = t.user
    active_days = max(1, int((now - user.account_created) // _SECONDS_PER_DAY))
    description = user.description or ""
    return {
        "originality": user.statuses_count,
        "isUserVerified": int(user.verified),
        "numberOfFollowers": user.followers,
        "roleScore": user.followers / max(1, user.followees),
        "engagementScore": user.statuses_count / active_days,
        "favouritesScore": user.favourites_count / active_days,
        "hasGeoEnabled": int(user.geo_enabled),
        "hasDescription": int(bool(description.strip())),
        "lengthOfDescription": len(description.split()),
        "isReply": int(t.in_reply_to is not None),
    }


def _analyse_text(text: str, r: ResourceBundle) -> tuple:
    """(tokens, cumulative content vector) of a text: the one text ->
    content-vector step behind the mood and AF scores."""
    tokens = tokenize(text, r.lexicons.all_emoticons())
    return tokens, cumulative_vector(content_words(tokens, r), r.embeddings)


def _mood_scores(vector, r: ResourceBundle) -> dict:
    return {f"mood_{mood}": cosine(vector, r.list_vectors[mood])
            for mood in MOOD_NAMES}


def extract_mood(t: TweetRecord, r: ResourceBundle) -> dict:
    """Cosine of the tweet's cumulative content vector against each mood
    list's cumulative vector."""
    return _mood_scores(_analyse_text(t.text, r)[1], r)


def _normalized(text: str) -> str:
    return " ".join(text.split())


def _is_retweet_of(text: str, source_text: str) -> bool:
    if _normalized(text) == _normalized(source_text):
        return True
    match = _RETWEET_PREFIX_RE.match(text)
    return bool(match) and _normalized(text[match.end():]) == _normalized(source_text)


def _af_scores(t: TweetRecord, tokens, vector, thread: Thread,
               r: ResourceBundle) -> AfScores:
    source = thread.source
    if t.tweet_id == source.tweet_id or _is_retweet_of(t.text, source.text):
        its = 1.0
    else:
        its = cosine(vector, _analyse_text(source.text, r)[1])

    first_word = next((tok.lowercase for tok in tokens
                       if tok.kind is TokenKind.WORD), None)
    iq = int(first_word is not None and first_word in r.lexicons.interrogatives)

    lists = r.list_vectors
    return AfScores(ss=cosine(vector, lists["surprise"]),
                    ds=cosine(vector, lists["doubt"]),
                    nds=cosine(vector, lists["nodoubt"]),
                    sps=cosine(vector, lists["support"]),
                    its=its, iq=iq)


def extract_af(t: TweetRecord, thread: Thread, r: ResourceBundle) -> AfScores:
    """Confidence scores: cosine of the tweet's content vector against the
    surprise/doubt/no-doubt/support lists, similarity to the thread's source
    tweet (forced to 1.0 for the source itself and for exact retweets of it),
    and the interrogative-start flag."""
    return _af_scores(t, *_analyse_text(t.text, r), thread, r)


def assemble(t: TweetRecord, thread: Thread, d: FeatureDictionaries,
             r: ResourceBundle, schema: FeatureSchema, now: float) -> FeatureVector:
    """Concatenate all feature partials into one sparse vector under the
    schema. Columns the schema does not carry are silently dropped, which is
    exactly the ablation contract."""
    if t.rumour_id != thread.rumour_id:
        raise SchemaError(
            f"tweet {t.tweet_id} belongs to rumour {t.rumour_id}, "
            f"not to thread {thread.rumour_id}")

    tokens, vector = _analyse_text(t.text, r)
    named = extract_content(t, tokens, d, r)
    named.update(extract_user(t, now))
    named.update(_mood_scores(vector, r))
    af = _af_scores(t, tokens, vector, thread, r)
    named["surpriseScore"] = af.ss
    named["doubtScore"] = af.ds
    named["noDoubtScore"] = af.nds
    named["supportScore"] = af.sps
    named["initialTweetSim"] = af.its
    named["isQuestion"] = af.iq

    index_of = schema.name_to_index
    values = {}
    for name, value in named.items():
        index = index_of.get(name)
        if index is not None and value != 0:
            values[index] = float(value)
    return FeatureVector(tweet_id=t.tweet_id,
                         schema_fingerprint=schema.fingerprint,
                         values=values, label=t.label)


def featurize(tweets, threads: dict, d: FeatureDictionaries,
              r: ResourceBundle, schema: FeatureSchema, now: float) -> list:
    """Vectors of `tweets` under `schema`, each assembled in the context of
    its thread (`threads` maps rumour id -> Thread). Every command that
    featurizes goes through here."""
    return [assemble(t, threads[t.rumour_id], d, r, schema, now) for t in tweets]


def corpus_dictionaries(dataset: Dataset, r: ResourceBundle) -> FeatureDictionaries:
    """Vocabularies over a whole corpus: every tweet, labelled or not, with
    every rumour as provenance."""
    return build_dictionaries(dataset.tweets, r, provenance=dataset.rumours)


def resolve_now(now: Optional[float], *datasets: Dataset) -> float:
    """The pinned `now`, or else the newest tweet time of the datasets."""
    return now if now is not None else max(d.max_created_at() for d in datasets)


# --- validation and serialization ------------------------------------------------


def validate_vector(vector: FeatureVector, schema: FeatureSchema) -> None:
    """Range checks per column group; raises SchemaError on any violation."""
    if vector.schema_fingerprint != schema.fingerprint:
        raise SchemaError("vector does not match schema fingerprint")
    for index, value in vector.values.items():
        if not isinstance(index, int) or index < 0 or index >= len(schema):
            raise SchemaError(f"column index {index} outside schema")
        if not math.isfinite(value):
            raise SchemaError(f"non-finite value at column {index}")
        name, group = schema.columns[index]
        if group in ("BOW", "POSNG"):
            if value < 0 or not float(value).is_integer():
                raise SchemaError(f"{name}: frequency must be a non-negative integer")
        elif group == "BROWN" or name in _BINARY_NAMES:
            if value not in (0.0, 1.0):
                raise SchemaError(f"{name}: binary column out of range")
        elif group == "SENT":
            if not 0 <= value <= 4:
                raise SchemaError(f"{name}: sentiment outside [0, 4]")
        elif group in _COSINE_GROUPS:
            if not -1 - COSINE_SLACK <= value <= 1 + COSINE_SLACK:
                raise SchemaError(f"{name}: cosine outside [-1, 1]")
        elif name == "averageNegation":
            if not 0 <= value <= 1:
                raise SchemaError(f"{name}: ratio outside [0, 1]")
        elif name.startswith("numberOf") or name == "lengthOfDescription":
            if value < 0 or not float(value).is_integer():
                raise SchemaError(f"{name}: count must be a non-negative integer")
        elif value < 0:
            raise SchemaError(f"{name}: negative value")


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(value)


def write_vectors(vectors, path) -> None:
    """Sparse vector file: tweet_id<TAB>label<TAB>idx:val idx:val ...
    Unlabelled tweets carry "-" in the label slot."""
    with open(path, "w", encoding="utf-8") as fh:
        for vector in vectors:
            label = vector.label.value if vector.label is not None else "-"
            cells = " ".join(f"{i}:{_format_value(v)}"
                             for i, v in sorted(vector.values.items()))
            fh.write(f"{vector.tweet_id}\t{label}\t{cells}\n")


def read_vectors(path, schema: FeatureSchema) -> list:
    vectors = []
    fingerprint = schema.fingerprint
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise SchemaError(f"{path}:{lineno + 1}: expected 3 tab-separated fields")
            tweet_id, label_text, cells = parts
            label = None if label_text == "-" else parse_stance_label(label_text)
            values = {}
            for cell in cells.split():
                index_text, _, value_text = cell.partition(":")
                try:
                    index = int(index_text)
                    value = float(value_text)
                except ValueError:
                    raise SchemaError(f"{path}:{lineno + 1}: bad cell {cell!r}") from None
                if index < 0 or index >= len(schema):
                    raise SchemaError(f"{path}:{lineno + 1}: column {index} outside schema")
                values[index] = value
            vectors.append(FeatureVector(tweet_id=tweet_id,
                                         schema_fingerprint=fingerprint,
                                         values=values, label=label))
    return vectors

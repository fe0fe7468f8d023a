"""Feature extraction: tweet + thread context -> sparse `{column: value}` rows.

The column set is governed by a FeatureSchema built from fold-local
dictionaries (bag of words, POS n-grams) plus the fixed resource-driven
columns. Group tags drive ablation: removing a group removes exactly that
group's columns and nothing else.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import blake2b
from typing import Optional

from .corpus import Dataset, StanceLabel, Thread, TweetRecord, build_threads, thread_index
from .errors import SchemaError
from .resources import (
    BROWN_CLUSTER_COUNT,
    MOOD_NAMES,
    ResourceBundle,
    cumulative_vector,
    norm,
    normed_cosine,
)
from .text import (
    DOTS_RUN_RE,
    TokenKind,
    entity_flags,
    gazetteer_hits,
    negation_stats,
    pos_tag,
    sentiment_score,
    token_marks,
    tokenize,
)

GROUPS = ("BOW", "BROWN", "POSNG", "SENT", "NE", "REPLY", "EMOT", "URL",
          "MOOD", "USER", "NEG", "LEX", "SURF", "REGEX",
          "AF_SS", "AF_DS", "AF_NDS", "AF_SPS", "AF_ITS", "AF_IQ")

AF_GROUPS = ("AF_SS", "AF_DS", "AF_NDS", "AF_SPS", "AF_ITS", "AF_IQ")

_POSNG_SIZES = (2, 3, 4)
_SECONDS_PER_DAY = 86400.0
_RETWEET_PREFIX_RE = re.compile(r"RT @\w+:?\s+")

# group -> its columns in schema order, for every group whose columns no
# vocabulary or bundle sets
_FIXED_COLUMNS = {
    "SENT": ("sentiment",),
    "NE": ("ne_person", "ne_organization", "ne_date", "ne_location", "ne_money"),
    "REPLY": ("isReply",),
    "URL": ("hasURL",),
    "MOOD": tuple(f"mood_{mood}" for mood in MOOD_NAMES),
    "USER": ("originality", "isUserVerified", "numberOfFollowers", "roleScore",
             "engagementScore", "favouritesScore", "hasGeoEnabled", "hasDescription",
             "lengthOfDescription"),
    "NEG": ("averageNegation", "hasNegation"),
    "LEX": ("hasSlangOrCurseWord", "hasGoogleBadWord", "hasAcronyms"),
    "SURF": ("averageWordLength", "hasQuestionMark", "hasExclamationMark", "hasDotDotDot",
             "numberOfQuestionMark", "numberOfExclamationMark", "numberOfDotDotDot"),
    "AF_SS": ("surpriseScore",),
    "AF_DS": ("doubtScore",),
    "AF_NDS": ("noDoubtScore",),
    "AF_SPS": ("supportScore",),
    "AF_ITS": ("initialTweetSim",),
    "AF_IQ": ("isQuestion",),
}
# (column, word list) of each list cosine: the moods, then the AF
# confidence lists
_LIST_COLUMNS = (*zip(_FIXED_COLUMNS["MOOD"], MOOD_NAMES),
                 ("surpriseScore", "surprise"), ("doubtScore", "doubt"),
                 ("noDoubtScore", "nodoubt"), ("supportScore", "support"))

@dataclass(frozen=True)
class FeatureSchema:
    """Ordered (name, group) columns; a model records the 64-bit fingerprint
    of their text, which `stance predict` checks its rebuilt schema against."""

    columns: tuple

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
    """Fold-local vocabularies, term tuples in column order. provenance records
    which rumours the training tweets came from, so the leakage guard can audit folds."""

    bow_vocab: tuple
    posng_vocab: tuple
    provenance: tuple = ()


@dataclass(frozen=True, slots=True)
class TweetAnalysis:
    """What a tweet's vector needs that no fold changes: its nonzero
    columns outside the vocabularies, by name, and its BOW terms and POS
    n-grams in order, repeats kept. `vectorize` maps it onto a fold's
    schema as a `{column index: value}` row."""

    tweet_id: str
    label: Optional[StanceLabel]
    named: tuple  # (column name, value) pairs, zeros left out
    bow: tuple
    posng: tuple


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


# --- dictionaries and schema ---------------------------------------------------


def _bow_terms(tokens) -> list:
    return [t.lowercase for t in tokens
            if t.kind in (TokenKind.WORD, TokenKind.HASHTAG)]


def _pos_ngrams(tags) -> list:
    """The POS n-grams of a text, given its tag values in order."""
    grams = []
    for n in _POSNG_SIZES:
        grams.extend("|".join(tags[i:i + n]) for i in range(len(tags) - n + 1))
    return grams


def build_dictionaries(analyses, provenance=()) -> FeatureDictionaries:
    """Frequency-filtered vocabularies (total count >= 2) over the BOW terms
    and POS n-grams of the analysed training tweets only, with
    deterministic lexicographic column order."""
    if not analyses:
        raise SchemaError("cannot build feature dictionaries from an empty training set")
    bow_counts = Counter(term for a in analyses for term in a.bow)
    posng_counts = Counter(gram for a in analyses for gram in a.posng)
    bow = tuple(sorted(w for w, c in bow_counts.items() if c >= 2))
    posng = tuple(sorted(g for g, c in posng_counts.items() if c >= 2))
    return FeatureDictionaries(bow_vocab=bow, posng_vocab=posng,
                               provenance=tuple(sorted(provenance)))


def check_groups(groups, error) -> tuple:
    """The group tags as a tuple, or `error` naming the unknown ones."""
    groups = tuple(groups)
    unknown = sorted(set(groups) - set(GROUPS))
    if unknown:
        raise error(f"unknown feature groups: {', '.join(map(repr, unknown))}")
    return groups


def build_schema(dictionaries: FeatureDictionaries, resources: ResourceBundle,
                 groups=None) -> FeatureSchema:
    """The columns of the enabled groups (all of them, or the subset of
    group tags `groups`, for an ablated schema), group by group in `GROUPS`
    order: the vocabularies' and the bundle's groups computed, every other
    group's from `_FIXED_COLUMNS`."""
    enabled = set(GROUPS if groups is None else check_groups(groups, SchemaError))
    lexicons = resources.lexicons
    layout = {
        **_FIXED_COLUMNS,
        "BOW": [f"bow={word}" for word in dictionaries.bow_vocab],
        "BROWN": [f"brown={cluster:04d}" for cluster in range(BROWN_CLUSTER_COUNT)],
        "POSNG": [f"posng={gram}" for gram in dictionaries.posng_vocab],
        "EMOT": [f"emot={category}" for category in sorted(lexicons.emoticons)],
        "REGEX": [f"regex_{i}" for i in range(len(lexicons.regex_pack))],
    }
    return FeatureSchema(columns=tuple((name, group) for group in GROUPS if group in enabled
                                       for name in layout[group]))


# --- per-group extraction -------------------------------------------------------


def content_words(tokens, resources: ResourceBundle, entity_hits=None) -> list:
    """Lowercase embeddable forms of a tweet's content: word and hashtag
    tokens minus acronym-dictionary matches and gazetteer entity matches
    (`entity_hits`, the matched token indices, when already known).
    URL, mention, number, punctuation, and emoticon tokens never qualify."""
    if entity_hits is None:
        entity_hits = set().union(*gazetteer_hits(tokens, resources.gazetteers))
    words = []
    for i, token in enumerate(tokens):
        if token.kind not in (TokenKind.WORD, TokenKind.HASHTAG) or i in entity_hits:
            continue
        word = token.lowercase.lstrip("#")  # a word token never starts with "#"
        if word and word not in resources.lexicons.acronyms:
            words.append(word)
    return words


def _lexical_forms(tokens) -> list:
    """Word tokens and hashtag bodies, lowercase."""
    return [term.lstrip("#") for term in _bow_terms(tokens)]


def extract_content(t: TweetRecord, tokens, hits, marks: int, r: ResourceBundle) -> dict:
    """Name -> value map for the tweet-content features outside the BOW and
    POS n-gram vocabularies: Brown cluster indicators, sentiment bucket,
    entity flags (from the text's `gazetteer_hits` and `token_marks`),
    emoticon categories, URL/lexicon/surface/regex/negation columns.

    Brown names appear only when nonzero; scalar names always appear, zero
    included.
    """
    out: dict = {}

    forms = _lexical_forms(tokens)
    for form in forms:
        cluster = r.brown.get(form)
        if cluster is not None:
            out[f"brown={cluster:04d}"] = 1

    out["sentiment"] = sentiment_score(tokens, r.lexicons.sentiment)

    out.update(zip(_FIXED_COLUMNS["NE"], entity_flags(tokens, hits, marks)))

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
    dot_runs = len(DOTS_RUN_RE.findall(t.text))
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


@dataclass
class _Run:
    """What one `analyse_many` call keeps: each thread source's
    `_analyse_text`, and for each distinct whitespace chunk its tokens,
    their POS tag values and their `token_marks`. Gazetteer hits, POS
    n-grams and the currency-then-number check read a token's position and
    neighbours: never kept."""

    sources: dict = field(default_factory=dict)
    chunks: dict = field(default_factory=dict)


def _analyse_text(text: str, r: ResourceBundle, run: _Run) -> tuple:
    """(tokens, their POS tag values, cumulative content vector, its norm,
    gazetteer hits, token marks) of a text: the one text -> content-vector
    step behind the mood and AF scores. A chunk's tokens depend on nothing
    but the chunk, and a text's marks are its tokens' marks or-ed, so the
    text is put together from the records `run.chunks` keeps."""
    tokens, tags, marks = [], [], 0
    for chunk in text.split():
        record = run.chunks.get(chunk)
        if record is None:
            chunk_tokens = tokenize(chunk, r.lexicons.all_emoticons)
            record = run.chunks[chunk] = (chunk_tokens,
                                          [tag.value for tag in pos_tag(chunk_tokens)],
                                          token_marks(chunk_tokens))
        tokens += record[0]
        tags += record[1]
        marks |= record[2]
    hits = gazetteer_hits(tokens, r.gazetteers)
    vector = cumulative_vector(content_words(tokens, r, set().union(*hits)), r.embeddings)
    return tokens, tags, vector, norm(vector), hits, marks


def _normalized(text: str) -> str:
    return " ".join(text.split())


def _is_retweet_of(text: str, source_text: str) -> bool:
    if _normalized(text) == _normalized(source_text):
        return True
    match = _RETWEET_PREFIX_RE.match(text)
    return bool(match) and _normalized(text[match.end():]) == _normalized(source_text)


def _source_text(source: TweetRecord, r: ResourceBundle, run: _Run) -> tuple:
    """`_analyse_text` of a thread's source, looked up in or added to
    `run.sources`."""
    analysed = run.sources.get(source.tweet_id)
    if analysed is None:
        analysed = run.sources[source.tweet_id] = _analyse_text(source.text, r, run)
    return analysed


def _analyse(t: TweetRecord, thread: Thread, r: ResourceBundle, now: float,
             run: _Run) -> TweetAnalysis:
    """The one place a tweet's named columns are written."""
    if t.rumour_id != thread.rumour_id:
        raise SchemaError(
            f"tweet {t.tweet_id} belongs to rumour {t.rumour_id}, "
            f"not to thread {thread.rumour_id}")

    source = thread.source
    if t.tweet_id == source.tweet_id:
        tokens, tags, vector, vector_norm, hits, marks = _source_text(t, r, run)
    else:
        tokens, tags, vector, vector_norm, hits, marks = _analyse_text(t.text, r, run)
    named = extract_content(t, tokens, hits, marks, r)
    named.update(extract_user(t, now))
    for column, listed in _LIST_COLUMNS:
        named[column] = normed_cosine(vector, vector_norm, r.list_vectors[listed],
                                      r.list_norms[listed])
    if t.tweet_id == source.tweet_id or _is_retweet_of(t.text, source.text):
        named["initialTweetSim"] = 1.0
    else:
        named["initialTweetSim"] = normed_cosine(vector, vector_norm,
                                                 *_source_text(source, r, run)[2:4])
    first_word = next((tok.lowercase for tok in tokens if tok.kind is TokenKind.WORD), None)
    named["isQuestion"] = int(first_word in r.lexicons.interrogatives)
    return TweetAnalysis(
        tweet_id=t.tweet_id, label=t.label,
        named=tuple((name, float(value)) for name, value in named.items()
                    if value != 0),
        bow=tuple(_bow_terms(tokens)), posng=tuple(_pos_ngrams(tags)))


def analyse(t: TweetRecord, thread: Thread, r: ResourceBundle,
            now: float) -> TweetAnalysis:
    """The fold-invariant analysis of a tweet in the context of its thread;
    `now` is the config-pinned epoch of the user columns."""
    return _analyse(t, thread, r, now, _Run())


def analyse_many(tweets, threads: dict, r: ResourceBundle, now: float):
    """Analyses of `tweets` in order (`threads` maps rumour id -> Thread).
    Each text is embedded once, and each distinct chunk is split, tagged
    and marked once: a `_Run` keeps them, and a thread source's analysis,
    until the iteration ends."""
    run = _Run()
    for t in tweets:
        yield _analyse(t, threads[t.rumour_id], r, now, run)


def vectorize(a: TweetAnalysis, schema: FeatureSchema) -> dict:
    """The analysed tweet's sparse `{column index: value}` row under the
    schema: each BOW term and POS n-gram adds 1 to its column. Terms outside
    the vocabularies and columns the schema does not carry are silently
    dropped, which is exactly the ablation contract."""
    index_of = schema.name_to_index
    values = {}
    for prefix, items in (("bow=", a.bow), ("posng=", a.posng)):
        for item in items:
            index = index_of.get(prefix + item)
            if index is not None:
                values[index] = values.get(index, 0.0) + 1.0
    for name, value in a.named:
        index = index_of.get(name)
        if index is not None:
            values[index] = value
    return values


def assemble(t: TweetRecord, thread: Thread, r: ResourceBundle,
             schema: FeatureSchema, now: float) -> dict:
    """One tweet's sparse row (see `vectorize`) under the schema, in the
    context of its thread."""
    return vectorize(analyse(t, thread, r, now), schema)


def featurize_corpus(dataset: Dataset, r: ResourceBundle, groups,
                     now: float) -> tuple:
    """(dictionaries, schema, analyses of every tweet) for a command whose
    vocabulary is the whole corpus: every tweet, labelled or not, analysed
    once, with every rumour as provenance."""
    threads = thread_index(build_threads(dataset))
    analyses = list(analyse_many(dataset.tweets, threads, r, now))
    dictionaries = build_dictionaries(analyses, provenance=dataset.rumours)
    schema = build_schema(dictionaries, r, groups)
    return dictionaries, schema, analyses


def resolve_now(now: Optional[float], *datasets: Dataset) -> float:
    """The pinned `now`, or else the newest tweet time of the datasets."""
    return now if now is not None else max(d.max_created_at() for d in datasets)


# --- serialization --------------------------------------------------------------


def _format_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(value)


def write_vectors(analyses, schema: FeatureSchema, path) -> None:
    """Sparse vector file, one line per analysis, each vectorized as it is
    written: tweet_id<TAB>label<TAB>idx:val idx:val ...
    Unlabelled tweets carry "-" in the label slot."""
    with open(path, "w", encoding="utf-8") as fh:
        for a in analyses:
            label = a.label.value if a.label is not None else "-"
            cells = " ".join(f"{i}:{_format_value(v)}"
                             for i, v in sorted(vectorize(a, schema).items()))
            fh.write(f"{a.tweet_id}\t{label}\t{cells}\n")

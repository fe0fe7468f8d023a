"""Static linguistic resources: embeddings, Brown clusters, word lists,
emoticon/slang/acronym dictionaries, gazetteers, and the regex pack.

All tables are immutable after load; loading the same files always yields
identical tables. The cumulative-vector and cosine primitives used by the
confidence and mood scores live here too.
"""

from __future__ import annotations

import hashlib
import io
import logging
import math
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ResourceError

log = logging.getLogger(__name__)

BROWN_CLUSTER_COUNT = 1000
REGEX_PACK_SIZE = 10

AF_LIST_NAMES = ("surprise", "doubt", "nodoubt", "support")
MOOD_NAMES = ("amused", "disappointed", "indignant", "satisfied", "worried")

REQUIRED_BUNDLE_FILES = (
    "embeddings.txt",
    "brown.tsv",
    "regex.txt",
    "lists/surprise.txt",
    "lists/doubt.txt",
    "lists/nodoubt.txt",
    "lists/support.txt",
    "lists/amused.txt",
    "lists/disappointed.txt",
    "lists/indignant.txt",
    "lists/satisfied.txt",
    "lists/worried.txt",
    "lists/interrogatives.txt",
    "lists/sentiment.tsv",
    "dicts/emoticons.tsv",
    "dicts/slang.txt",
    "dicts/google_bad.txt",
    "dicts/acronyms.txt",
    "gazetteers/person.txt",
    "gazetteers/org.txt",
    "gazetteers/location.txt",
)


class EmbeddingTable:
    """Dense word vectors with lowercase lookup."""

    def __init__(self, dimension: int, vectors: dict):
        self.dimension = dimension
        self._vectors = vectors

    def get(self, word: str):
        return self._vectors.get(word.lower())

    def zero(self) -> np.ndarray:
        return np.zeros(self.dimension)


def _numbered_lines(path: Path):
    """(line number, line) of each line of a bundle text file, as iterating
    the file in text mode gives them; a byte sequence that is not UTF-8 is a
    ResourceError naming the file and the line."""
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ResourceError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from None
    return enumerate(io.StringIO(text, newline=None), start=1)


def _looks_like_header(parts: list) -> bool:
    if len(parts) != 2:
        return False
    return all(p.lstrip("+-").isdigit() for p in parts)


def load_embeddings(path) -> EmbeddingTable:
    """Load plain-text word vectors: one `word v1 v2 ... vd` entry per line.

    A word2vec-style header line (two integer tokens) is detected and skipped.
    Duplicate words: the last entry wins, with a warning.
    """
    path = Path(path)
    vectors: dict = {}
    dimension = None
    for lineno, line in _numbered_lines(path):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        if lineno == 1 and _looks_like_header(parts):
            continue
        word = parts[0].lower()
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError:
            raise ResourceError(f"{path}:{lineno}: non-numeric vector component") from None
        if not values:
            raise ResourceError(f"{path}:{lineno}: entry has no vector components")
        # a finite sum of squares keeps every dot product of mean vectors finite
        if not math.isfinite(sum(v * v for v in values)):
            raise ResourceError(f"{path}:{lineno}: vector component is not a finite "
                                "number, or the vector's squared norm overflows")
        if dimension is None:
            dimension = len(values)
        elif len(values) != dimension:
            raise ResourceError(
                f"{path}:{lineno}: dimension {len(values)} != {dimension} from first entry")
        if word in vectors:
            log.warning("duplicate embedding entry %r at %s:%d; last one wins",
                        word, path, lineno)
        vectors[word] = np.array(values, dtype=np.float64)
    if dimension is None:
        raise ResourceError(f"{path}: embedding file is empty")
    return EmbeddingTable(dimension=dimension, vectors=vectors)


class BrownTable:
    """Word -> dense cluster id assignments over a declared 1000-cluster space."""

    def __init__(self, word_to_cluster: dict):
        self._word_to_cluster = word_to_cluster

    def get(self, word: str):
        return self._word_to_cluster.get(word.lower())


def load_brown(path) -> BrownTable:
    """Load Brown cluster assignments from `bitstring<TAB>word<TAB>count` lines.

    Bitstrings are mapped to dense integer ids by first-appearance order.
    """
    path = Path(path)
    bitstring_ids: dict = {}
    word_to_cluster: dict = {}
    for lineno, line in _numbered_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) < 2:
            raise ResourceError(f"{path}:{lineno}: expected bitstring<TAB>word[<TAB>count]")
        bitstring, word = parts[0], parts[1].lower()
        if bitstring not in bitstring_ids:
            if len(bitstring_ids) >= BROWN_CLUSTER_COUNT:
                raise ResourceError(
                    f"{path}:{lineno}: more than {BROWN_CLUSTER_COUNT} distinct clusters")
            bitstring_ids[bitstring] = len(bitstring_ids)
        cluster = bitstring_ids[bitstring]
        previous = word_to_cluster.get(word)
        if previous is not None and previous != cluster:
            raise ResourceError(
                f"{path}:{lineno}: word {word!r} listed under two different clusters")
        word_to_cluster[word] = cluster
    return BrownTable(word_to_cluster)


def cumulative_vector(tokens, table: EmbeddingTable) -> np.ndarray:
    """Mean embedding of the in-vocabulary tokens; zero vector if none."""
    total = table.zero()
    count = 0
    for token in tokens:
        vec = table.get(token)
        if vec is not None:
            total += vec
            count += 1
    if count == 0:
        return table.zero()
    return total / count


def norm(v) -> float:
    return float(np.linalg.norm(v))


def normed_cosine(u, nu: float, v, nv: float) -> float:
    """Cosine similarity of two float64 vectors of one shape, given their
    norms; defined as 0.0 when either norm is zero."""
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


@dataclass(frozen=True)
class LexiconSet:
    """All word lists and dictionaries consumed by feature extraction."""

    af_lists: dict          # name -> tuple of words (surprise/doubt/nodoubt/support)
    mood_lists: dict        # name -> tuple of words (5 mood angles)
    sentiment: dict         # word -> polarity in [-2, +2]
    interrogatives: frozenset
    emoticons: dict         # category -> frozenset of emoticon strings
    slang: frozenset
    google_bad: frozenset
    acronyms: frozenset
    regex_pack: tuple       # 10 compiled case-insensitive patterns
    regex_sources: tuple

    @cached_property
    def all_emoticons(self) -> frozenset:
        """Every emoticon of every category, built once per lexicon set."""
        return frozenset().union(*self.emoticons.values())


@dataclass(frozen=True)
class Gazetteers:
    person: frozenset
    org: frozenset
    location: frozenset


@dataclass(frozen=True)
class ResourceBundle:
    path: str
    embeddings: EmbeddingTable
    brown: BrownTable
    lexicons: LexiconSet
    gazetteers: Gazetteers
    content_hash: str

    @cached_property
    def list_vectors(self) -> dict:
        """Cumulative vector of each AF and mood word list, by list name.
        Derived from this bundle's own tables, so a copy made with
        dataclasses.replace computes its own."""
        lists = {**self.lexicons.af_lists, **self.lexicons.mood_lists}
        return {name: cumulative_vector(sorted(words), self.embeddings)
                for name, words in lists.items()}

    @cached_property
    def list_norms(self) -> dict:
        """The norm of each of `list_vectors`, by list name."""
        return {name: norm(vector) for name, vector in self.list_vectors.items()}


def _read_word_list(path: Path) -> tuple:
    words = []
    for _, line in _numbered_lines(path):
        word = line.strip().lower()
        if word and not word.startswith("#"):
            words.append(word)
    return tuple(words)


def _read_word_set(path: Path) -> frozenset:
    return frozenset(_read_word_list(path))


def _read_sentiment(path: Path) -> dict:
    table = {}
    for lineno, line in _numbered_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ResourceError(f"{path}:{lineno}: expected word<TAB>polarity")
        word = parts[0].strip().lower()
        try:
            polarity = int(parts[1])
        except ValueError:
            raise ResourceError(f"{path}:{lineno}: polarity must be an integer") from None
        if not -2 <= polarity <= 2:
            raise ResourceError(f"{path}:{lineno}: polarity {polarity} outside [-2, 2]")
        table[word] = polarity
    return table


def _read_emoticons(path: Path) -> dict:
    groups: dict = {}
    for lineno, line in _numbered_lines(path):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ResourceError(f"{path}:{lineno}: expected emoticon<TAB>category")
        emoticon, category = parts[0], parts[1].strip().lower()
        groups.setdefault(category, set()).add(emoticon)
    return {category: frozenset(members) for category, members in groups.items()}


def _search_equivalent(source: str) -> str:
    """`source` without a leading or trailing `.*`, which cannot change
    whether a search hits but makes it retry `.*` from every start
    position. A `.*` quantified further (`.*?`, `.*+`) or an escaped
    `\\.*` is kept."""
    if source.startswith(".*") and source[2:3] not in ("?", "*", "+", "{"):
        source = source[2:]
    if source.endswith(".*") and source[-3:-2] != "\\":
        source = source[:-2]
    return source


def _read_regex_pack(path: Path):
    patterns = []
    sources = []
    for lineno, line in _numbered_lines(path):
        source = line.rstrip("\n")
        if not source.strip():
            continue
        sources.append(source)
        try:
            patterns.append(re.compile(_search_equivalent(source), re.IGNORECASE))
        except re.error as exc:
            raise ResourceError(f"{path}:{lineno}: bad pattern {source!r}: {exc}") from None
    if len(patterns) != REGEX_PACK_SIZE:
        raise ResourceError(
            f"{path}: regex pack must hold exactly {REGEX_PACK_SIZE} patterns, found {len(patterns)}")
    return tuple(patterns), tuple(sources)


def missing_bundle_files(path) -> list:
    """Relative paths of required bundle files that do not exist."""
    root = Path(path)
    return [rel for rel in REQUIRED_BUNDLE_FILES if not (root / rel).is_file()]


def bundle_content_hash(path) -> str:
    """SHA-256 over the bundle's files, keyed by sorted relative path."""
    root = Path(path)
    digest = hashlib.sha256()
    for file in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(file.relative_to(root)).encode("utf-8"))
        digest.update(b"\0")
        digest.update(file.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def load_bundle(path) -> ResourceBundle:
    """Load a resource bundle directory (see REQUIRED_BUNDLE_FILES for layout)."""
    root = Path(path)
    missing = missing_bundle_files(root)
    if missing:
        raise ResourceError(f"resource bundle {root} is missing: {', '.join(missing)}")

    af_lists = {name: _read_word_list(root / "lists" / f"{name}.txt") for name in AF_LIST_NAMES}
    for name, words in af_lists.items():
        if not words:
            raise ResourceError(f"AF word list {name!r} is empty")
    mood_lists = {name: _read_word_list(root / "lists" / f"{name}.txt") for name in MOOD_NAMES}
    regex_pack, regex_sources = _read_regex_pack(root / "regex.txt")

    lexicons = LexiconSet(
        af_lists=af_lists,
        mood_lists=mood_lists,
        sentiment=_read_sentiment(root / "lists" / "sentiment.tsv"),
        interrogatives=_read_word_set(root / "lists" / "interrogatives.txt"),
        emoticons=_read_emoticons(root / "dicts" / "emoticons.tsv"),
        slang=_read_word_set(root / "dicts" / "slang.txt"),
        google_bad=_read_word_set(root / "dicts" / "google_bad.txt"),
        acronyms=_read_word_set(root / "dicts" / "acronyms.txt"),
        regex_pack=regex_pack,
        regex_sources=regex_sources,
    )
    gazetteers = Gazetteers(
        person=_read_word_set(root / "gazetteers" / "person.txt"),
        org=_read_word_set(root / "gazetteers" / "org.txt"),
        location=_read_word_set(root / "gazetteers" / "location.txt"),
    )
    return ResourceBundle(
        path=str(root),
        embeddings=load_embeddings(root / "embeddings.txt"),
        brown=load_brown(root / "brown.tsv"),
        lexicons=lexicons,
        gazetteers=gazetteers,
        content_hash=bundle_content_hash(root),
    )

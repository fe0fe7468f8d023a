"""Normalized rumour-thread corpus: records, validation, thread building.

The on-disk format is JSONL, one tweet object per line. `build_dataset`
alone decides which values a record may hold, for `load_dataset` and
`ingest` alike; a built Dataset is validated and immutable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import CorpusError


class StanceLabel(Enum):
    SUPPORT = "support"
    DENY = "deny"
    QUERY = "query"
    COMMENT = "comment"


# Fixed tie-break order used by every learner and vote count.
CLASS_ORDER = tuple(StanceLabel)

_LABEL_ALIASES = {
    "support": StanceLabel.SUPPORT,
    "supporting": StanceLabel.SUPPORT,
    "deny": StanceLabel.DENY,
    "denying": StanceLabel.DENY,
    "query": StanceLabel.QUERY,
    "questioning": StanceLabel.QUERY,
    "comment": StanceLabel.COMMENT,
    "commenting": StanceLabel.COMMENT,
}


def parse_stance_label(raw: str) -> StanceLabel:
    """Parse a stance label string, case-insensitively, accepting PHEME synonyms."""
    if not isinstance(raw, str):
        raise CorpusError(f"stance label must be a string, got {raw!r}")
    label = _LABEL_ALIASES.get(raw.strip().lower())
    if label is None:
        raise CorpusError(f"unknown stance label: {raw!r}")
    return label


def parse_rfc3339(value: str) -> float:
    """Parse an RFC 3339 timestamp into seconds since epoch (UTC)."""
    if not isinstance(value, str):
        raise CorpusError(f"invalid RFC 3339 timestamp: {value!r}")
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(text)
    except ValueError as exc:
        raise CorpusError(f"invalid RFC 3339 timestamp: {value!r}") from exc
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def format_rfc3339(ts: float) -> str:
    """Render epoch seconds as an RFC 3339 UTC string ('...Z')."""
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return dt.isoformat().replace("+00:00", "Z")


@dataclass(frozen=True)
class UserStats:
    statuses_count: int
    verified: bool
    followers: int
    followees: int
    favourites_count: int
    account_created: float
    geo_enabled: bool
    description: Optional[str] = None


@dataclass(frozen=True)
class TweetRecord:
    tweet_id: str
    text: str
    created_at: float
    in_reply_to: Optional[str]
    rumour_id: str
    event_id: str
    user: UserStats
    label: Optional[StanceLabel] = None

    @property
    def is_source(self) -> bool:
        return self.in_reply_to is None


@dataclass(frozen=True)
class Thread:
    source: TweetRecord
    replies: tuple  # TweetRecord, ascending created_at, ties by tweet_id

    @property
    def rumour_id(self) -> str:
        return self.source.rumour_id


@dataclass
class Dataset:
    """A validated tweet collection with rumour and event indexes."""

    name: str
    tweets: list
    rumours: dict  # rumour_id -> [tweet_id] in file order
    events: dict   # event_id -> [rumour_id] in first-appearance order

    def __post_init__(self):
        self._by_id = {t.tweet_id: t for t in self.tweets}

    def get(self, tweet_id: str) -> TweetRecord:
        return self._by_id[tweet_id]

    def __len__(self) -> int:
        return len(self.tweets)

    def rumour_tweets(self, rumour_id: str) -> list:
        return [self._by_id[tid] for tid in self.rumours[rumour_id]]

    def event_of_rumour(self, rumour_id: str) -> str:
        for event_id, rumours in self.events.items():
            if rumour_id in rumours:
                return event_id
        raise KeyError(rumour_id)

    def labelled(self) -> list:
        return [t for t in self.tweets if t.label is not None]

    def max_created_at(self) -> float:
        if not self.tweets:
            return 0.0
        return max(t.created_at for t in self.tweets)


MAX_COUNT = 2 ** 53  # user counts feed float features, which hold every int up to it

_USER_FIELDS = ("statuses_count", "verified", "followers", "followees",
                "favourites_count", "account_created", "geo_enabled", "description")


def _parse_user(obj, created_at: float) -> UserStats:
    if not isinstance(obj, dict):
        raise CorpusError(f"user must be an object, got {obj!r}")
    for name in _USER_FIELDS:
        if name not in obj:
            raise CorpusError(f"user object missing field {name!r}")
    for name in ("statuses_count", "followers", "followees", "favourites_count"):
        value = obj[name]
        if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value <= MAX_COUNT:
            raise CorpusError(f"user field {name!r} must be an int in [0, 2**53], got {value!r}")
    for name in ("verified", "geo_enabled"):
        if not isinstance(obj[name], bool):
            raise CorpusError(f"user field {name!r} must be true or false, got {obj[name]!r}")
    account_created = parse_rfc3339(obj["account_created"])
    if account_created > created_at:
        raise CorpusError("account_created is after the tweet's timestamp")
    description = obj["description"]
    if description is not None and not isinstance(description, str):
        raise CorpusError(f"user field 'description' must be a string or null, got {description!r}")
    return UserStats(
        statuses_count=obj["statuses_count"],
        verified=obj["verified"],
        followers=obj["followers"],
        followees=obj["followees"],
        favourites_count=obj["favourites_count"],
        account_created=account_created,
        geo_enabled=obj["geo_enabled"],
        description=description,
    )


def _parse_record(obj) -> TweetRecord:
    if not isinstance(obj, dict):
        raise CorpusError("a corpus line must hold a JSON object")
    for name in ("tweet_id", "text", "created_at", "rumour_id", "event_id", "user"):
        if name not in obj:
            raise CorpusError(f"missing field {name!r}")
    for name in ("text", "event_id"):
        if not isinstance(obj[name], str):
            raise CorpusError(f"{name} must be a string, got {obj[name]!r}")
    tweet_id = obj["tweet_id"]
    if not isinstance(tweet_id, str) or not tweet_id:
        raise CorpusError("tweet_id must be a non-empty string")
    rumour_id = obj["rumour_id"]
    if not isinstance(rumour_id, str) or not rumour_id:
        raise CorpusError("rumour_id must be a non-empty string")
    for name in ("tweet_id", "rumour_id", "event_id"):  # ids are cells of the text outputs
        if any(c in obj[name] for c in "\t\n\r"):
            raise CorpusError(f"{name} must hold no tab or line break, got {obj[name]!r}")
    created_at = parse_rfc3339(obj["created_at"])
    in_reply_to = obj.get("in_reply_to")
    if in_reply_to is not None and not isinstance(in_reply_to, str):
        raise CorpusError("in_reply_to must be a string or null")
    raw_label = obj.get("label")
    label = parse_stance_label(raw_label) if raw_label is not None else None
    return TweetRecord(
        tweet_id=tweet_id,
        text=obj["text"],
        created_at=created_at,
        in_reply_to=in_reply_to,
        rumour_id=rumour_id,
        event_id=obj["event_id"],
        user=_parse_user(obj["user"], created_at),
        label=label,
    )


def encodable(value) -> bool:
    """Whether UTF-8 can encode every string in a JSON value: False when a
    `\\u` escape left a lone surrogate in one."""
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_json_lines(path: Path):
    """(line number, JSON value) of each non-blank line of a UTF-8 JSONL
    file, split at the same line ends as text-mode reading; CorpusError
    names the first line that is not UTF-8, not JSON, or escapes a lone
    surrogate, which no UTF-8 output could hold."""
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise CorpusError(f"{path}:{lineno}: not UTF-8 text: {exc}") from None
        if not line:
            continue
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from None
        if "\\u" in line and not encodable(obj):
            raise CorpusError(f"{path}:{lineno}: a string escapes a lone surrogate")
        yield lineno, obj


def load_dataset(path) -> Dataset:
    """Load and validate a JSONL dataset (see `build_dataset`)."""
    path = Path(path)
    return build_dataset(read_json_lines(path), path)


def build_dataset(numbered, path: Path) -> Dataset:
    """The validated Dataset, named after `path`, of the (line number, JSON
    value) pairs read from it; a CorpusError names the `path:line` of the
    first bad record.

    Each value holds one tweet object:
      {"tweet_id": str, "text": str, "created_at": RFC3339, "in_reply_to": str|null,
       "rumour_id": str, "event_id": str, "label": str|null, "user": {...}}

    Tweet ids are unique, no tweet, rumour or event id holds a tab or line
    break, and every tweet of a rumour names the same event. An in_reply_to
    naming a tweet absent from the file is kept as it is: only whether it is
    null is ever read.
    """
    records = []
    seen_lines = {}  # tweet id -> its line
    rumour_events = {}  # rumour id -> (event id, line of its first tweet)
    rumours: dict = {}
    events: dict = {}
    for lineno, obj in numbered:
        try:
            record = _parse_record(obj)
        except CorpusError as exc:
            raise CorpusError(f"{path}:{lineno}: {exc}") from None
        if record.tweet_id in seen_lines:
            raise CorpusError(
                f"{path}:{lineno}: duplicate tweet_id {record.tweet_id!r} "
                f"(first seen on line {seen_lines[record.tweet_id]})")
        seen_lines[record.tweet_id] = lineno
        event, first = rumour_events.setdefault(record.rumour_id, (record.event_id, lineno))
        if event != record.event_id:
            raise CorpusError(
                f"{path}:{lineno}: rumour {record.rumour_id!r} is in event "
                f"{record.event_id!r} here but in event {event!r} on line {first}")
        if first == lineno:
            events.setdefault(event, []).append(record.rumour_id)
        rumours.setdefault(record.rumour_id, []).append(record.tweet_id)
        records.append(record)
    return Dataset(name=path.stem, tweets=records, rumours=rumours, events=events)


def build_threads(dataset: Dataset) -> list:
    """Group a dataset into one Thread per rumour.

    Replies are ordered by created_at ascending, ties broken by tweet_id.
    """
    threads = []
    for rumour_id, tweet_ids in dataset.rumours.items():
        tweets = [dataset.get(tid) for tid in tweet_ids]
        source_tweets = [t for t in tweets if t.is_source]
        if not source_tweets:
            raise CorpusError(f"rumour {rumour_id!r} has no source tweet")
        if len(source_tweets) > 1:
            ids = ", ".join(t.tweet_id for t in source_tweets)
            raise CorpusError(f"rumour {rumour_id!r} has multiple source tweets: {ids}")
        source = source_tweets[0]
        replies = sorted(
            (t for t in tweets if not t.is_source),
            key=lambda t: (t.created_at, t.tweet_id))
        threads.append(Thread(source=source, replies=tuple(replies)))
    return threads


def thread_index(threads: list) -> dict:
    """Map rumour_id -> Thread for quick lookup during feature extraction."""
    return {th.rumour_id: th for th in threads}

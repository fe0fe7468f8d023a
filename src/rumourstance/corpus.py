"""Normalized rumour-thread corpus: records, validation, thread building.

The on-disk format is JSONL, one tweet object per line (see `load_dataset`).
A loaded Dataset is validated and immutable; replies whose parent tweet is
missing from the collection are reattached to their rumour's source tweet.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import CorpusError

log = logging.getLogger(__name__)


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
    label = _LABEL_ALIASES.get(raw.strip().lower())
    if label is None:
        raise CorpusError(f"unknown stance label: {raw!r}")
    return label


def parse_rfc3339(value: str) -> float:
    """Parse an RFC 3339 timestamp into seconds since epoch (UTC)."""
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

    def all_tweets(self) -> list:
        return [self.source, *self.replies]


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

    def __contains__(self, tweet_id: str) -> bool:
        return tweet_id in self._by_id

    def __len__(self) -> int:
        return len(self.tweets)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (self.name == other.name and self.tweets == other.tweets
                and self.rumours == other.rumours and self.events == other.events)

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


_USER_FIELDS = ("statuses_count", "verified", "followers", "followees",
                "favourites_count", "account_created", "geo_enabled", "description")


def _parse_user(obj: dict, created_at: float) -> UserStats:
    for name in _USER_FIELDS:
        if name not in obj:
            raise CorpusError(f"user object missing field {name!r}")
    for name in ("statuses_count", "followers", "followees", "favourites_count"):
        value = obj[name]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CorpusError(f"user field {name!r} must be a non-negative integer, got {value!r}")
    account_created = parse_rfc3339(obj["account_created"])
    if account_created > created_at:
        raise CorpusError("account_created is after the tweet's timestamp")
    description = obj["description"]
    if description is not None and not isinstance(description, str):
        raise CorpusError("user description must be a string or null")
    return UserStats(
        statuses_count=obj["statuses_count"],
        verified=bool(obj["verified"]),
        followers=obj["followers"],
        followees=obj["followees"],
        favourites_count=obj["favourites_count"],
        account_created=account_created,
        geo_enabled=bool(obj["geo_enabled"]),
        description=description,
    )


def _parse_record(obj: dict) -> TweetRecord:
    for name in ("tweet_id", "text", "created_at", "rumour_id", "event_id", "user"):
        if name not in obj:
            raise CorpusError(f"missing field {name!r}")
    tweet_id = obj["tweet_id"]
    if not isinstance(tweet_id, str) or not tweet_id:
        raise CorpusError("tweet_id must be a non-empty string")
    rumour_id = obj["rumour_id"]
    if not isinstance(rumour_id, str) or not rumour_id:
        raise CorpusError("rumour_id must be a non-empty string")
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


def load_dataset(path) -> Dataset:
    """Load and validate a JSONL dataset.

    Each line holds one tweet object:
      {"tweet_id": str, "text": str, "created_at": RFC3339, "in_reply_to": str|null,
       "rumour_id": str, "event_id": str, "label": str|null, "user": {...}}

    Dangling in_reply_to references (parent id absent from the file) are
    repaired to point at the rumour's source tweet.
    """
    path = Path(path)
    records = []
    seen_lines = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                record = _parse_record(obj)
            except CorpusError as exc:
                raise CorpusError(f"{path}:{lineno}: {exc}") from None
            except json.JSONDecodeError as exc:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if record.tweet_id in seen_lines:
                raise CorpusError(
                    f"{path}:{lineno}: duplicate tweet_id {record.tweet_id!r} "
                    f"(first seen on line {seen_lines[record.tweet_id]})")
            seen_lines[record.tweet_id] = lineno
            records.append(record)
    return _build_dataset(records, path.stem)


def _build_dataset(records: list, name: str) -> Dataset:
    by_id = {t.tweet_id: t for t in records}
    rumours: dict = {}
    events: dict = {}
    for t in records:
        rumours.setdefault(t.rumour_id, []).append(t.tweet_id)
        event_rumours = events.setdefault(t.event_id, [])
        if t.rumour_id not in event_rumours:
            event_rumours.append(t.rumour_id)

    # Repair dangling parents: a reply to a tweet outside the collection is
    # reattached to its rumour's source so every annotated tweet stays usable.
    sources = {}
    for rumour_id, tweet_ids in rumours.items():
        rumour_sources = [tid for tid in tweet_ids if by_id[tid].is_source]
        if len(rumour_sources) == 1:
            sources[rumour_id] = rumour_sources[0]

    repaired = []
    fixed = 0
    for t in records:
        if t.in_reply_to is not None and t.in_reply_to not in by_id:
            source_id = sources.get(t.rumour_id)
            if source_id is None:
                raise CorpusError(
                    f"tweet {t.tweet_id!r} replies to missing tweet {t.in_reply_to!r} "
                    f"and rumour {t.rumour_id!r} has no unique source to reattach to")
            t = replace(t, in_reply_to=source_id)
            fixed += 1
        repaired.append(t)
    if fixed:
        log.info("reattached %d dangling replies to their rumour sources", fixed)
    return Dataset(name=name, tweets=repaired, rumours=rumours, events=events)


def record_to_obj(t: TweetRecord) -> dict:
    return {
        "tweet_id": t.tweet_id,
        "text": t.text,
        "created_at": format_rfc3339(t.created_at),
        "in_reply_to": t.in_reply_to,
        "rumour_id": t.rumour_id,
        "event_id": t.event_id,
        "label": t.label.value if t.label is not None else None,
        "user": {
            "statuses_count": t.user.statuses_count,
            "verified": t.user.verified,
            "followers": t.user.followers,
            "followees": t.user.followees,
            "favourites_count": t.user.favourites_count,
            "account_created": format_rfc3339(t.user.account_created),
            "geo_enabled": t.user.geo_enabled,
            "description": t.user.description,
        },
    }


def save_dataset(dataset: Dataset, path) -> None:
    """Serialize a Dataset back to the JSONL ingestion schema."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for t in dataset.tweets:
            fh.write(json.dumps(record_to_obj(t), ensure_ascii=False) + "\n")


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


def subset_by_rumours(dataset: Dataset, rumour_ids, name: Optional[str] = None) -> Dataset:
    """A new Dataset containing only the given rumours, preserving order."""
    wanted = set(rumour_ids)
    records = [t for t in dataset.tweets if t.rumour_id in wanted]
    return _build_dataset(records, name or dataset.name)

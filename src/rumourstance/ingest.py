"""Normalize raw tweet exports into the corpus JSONL schema.

Raw lines are tolerant Twitter-API-shaped objects: alternative field names
are accepted, Twitter's legacy created_at format is parsed, and tweets whose
stance annotation is outside the four-class set are dropped (sources are kept
unlabelled instead, since replies need them for thread structure).
"""

from __future__ import annotations

import json
import logging
from datetime import datetime, timezone
from pathlib import Path

from .corpus import (
    _LABEL_ALIASES,
    MAX_COUNT,
    CorpusError,
    format_rfc3339,
    parse_rfc3339,
    read_json_lines,
)

log = logging.getLogger(__name__)

_TWITTER_TIME_FORMAT = "%a %b %d %H:%M:%S %z %Y"
# the epoch seconds format_rfc3339 can render: years 1 to 9999
_EARLIEST = datetime(1, 1, 1, tzinfo=timezone.utc).timestamp()
_LATEST = datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp()


def _parse_any_timestamp(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        ts = value
    else:
        text = str(value).strip()
        try:
            ts = parse_rfc3339(text)
        except CorpusError:
            try:
                ts = datetime.strptime(text, _TWITTER_TIME_FORMAT).timestamp()
            except ValueError:
                raise CorpusError(f"unrecognized timestamp: {value!r}") from None
    if not _EARLIEST <= ts <= _LATEST:  # NaN fails too
        raise CorpusError(f"timestamp out of range: {value!r}")
    return float(ts)


def _first(obj: dict, *names, default=None):
    for name in names:
        if name in obj and obj[name] is not None:
            return obj[name]
    return default


def _as_count(user: dict, *names) -> int:
    value = _first(user, *names)
    if value is None:
        return 0
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        # +inf and digit strings past int()'s 4,300-digit limit are above 2**53
        digits = isinstance(value, str) and value.strip().removeprefix("+").isdecimal()
        if not digits and value != float("inf"):
            return 0
        n = MAX_COUNT + 1
    if n > MAX_COUNT:
        raise CorpusError(f"user field {names[0]!r} is above 2**53")
    return max(0, n)


def _as_flag(user: dict, name: str) -> bool:
    """A user flag: false when absent or null, else a JSON boolean."""
    value = _first(user, name, default=False)
    if not isinstance(value, bool):
        raise CorpusError(f"user field {name!r} must be true or false, got {value!r}")
    return value


def normalize_record(obj: dict) -> dict:
    """Map one raw tweet object to the normalized ingestion schema; its
    event_id is None when the object names no event."""
    if not isinstance(obj, dict):
        raise CorpusError("a raw export line must hold a JSON object")
    tweet_id = _first(obj, "tweet_id", "id_str", "id")
    if tweet_id is None:
        raise CorpusError("raw tweet has no id")
    text = _first(obj, "text", "full_text", default="")
    created_raw = _first(obj, "created_at", "timestamp")
    if created_raw is None:
        raise CorpusError(f"raw tweet {tweet_id} has no created_at")
    created_at = _parse_any_timestamp(created_raw)
    in_reply_to = _first(obj, "in_reply_to", "in_reply_to_status_id_str",
                         "in_reply_to_status_id")
    rumour_id = _first(obj, "rumour_id", "thread_id", "conversation_id")
    if rumour_id is None:
        raise CorpusError(f"raw tweet {tweet_id} has no rumour/thread id")
    event_id = _first(obj, "event_id", "event")

    user = obj.get("user") or {}
    if not isinstance(user, dict):
        raise CorpusError(f"raw tweet {tweet_id}: user must be an object, got {user!r}")
    account_raw = _first(user, "account_created", "created_at")
    account_created = _parse_any_timestamp(account_raw) if account_raw is not None else created_at
    account_created = min(account_created, created_at)
    description = user.get("description")
    normalized_user = {
        "statuses_count": _as_count(user, "statuses_count", "statuses"),
        "verified": _as_flag(user, "verified"),
        "followers": _as_count(user, "followers", "followers_count"),
        "followees": _as_count(user, "followees", "friends_count", "following"),
        "favourites_count": _as_count(user, "favourites_count", "favorites_count"),
        "account_created": format_rfc3339(account_created),
        "geo_enabled": _as_flag(user, "geo_enabled"),
        "description": str(description) if description else None,
    }
    label = _first(obj, "label", "stance")
    return {
        "tweet_id": str(tweet_id),
        "text": str(text),
        "created_at": format_rfc3339(created_at),
        "in_reply_to": str(in_reply_to) if in_reply_to is not None else None,
        "rumour_id": str(rumour_id),
        "event_id": str(event_id) if event_id is not None else None,
        "label": str(label) if label is not None else None,
        "user": normalized_user,
    }


def ingest_file(raw_path, out_path, default_event: str = "unknown") -> dict:
    """Normalize a raw JSONL export; returns {"kept": n, "dropped": n}.

    Tweets with an annotation outside the four-class set are dropped, except
    source tweets, which are kept with the label cleared. A tweet that names
    no event takes the first event named by a tweet of its rumour, else
    `default_event`. Every line is normalized before `out_path` is opened,
    so a bad line writes nothing.
    """
    raw_path = Path(raw_path)
    out_path = Path(out_path)
    records = []
    named_events = {}  # rumour id -> the first event a tweet of it names
    dropped = 0
    for lineno, obj in read_json_lines(raw_path):
        try:
            record = normalize_record(obj)
        except CorpusError as exc:
            raise CorpusError(f"{raw_path}:{lineno}: {exc}") from None
        if record["event_id"] is not None:
            named_events.setdefault(record["rumour_id"], record["event_id"])
        label = record["label"]
        if label is not None and label.strip().lower() not in _LABEL_ALIASES:
            if record["in_reply_to"] is None:
                record["label"] = None  # keep sources for thread structure
            else:
                dropped += 1
                continue
        records.append(record)
    lines = []
    for record in records:
        if record["event_id"] is None:
            record["event_id"] = named_events.get(record["rumour_id"], default_event)
        lines.append(json.dumps(record, ensure_ascii=False) + "\n")
    with out_path.open("w", encoding="utf-8") as fout:
        fout.writelines(lines)
    if dropped:
        log.warning("dropped %d tweets with out-of-set annotations", dropped)
    return {"kept": len(lines), "dropped": dropped}

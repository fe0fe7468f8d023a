"""Normalize raw tweet exports into the corpus JSONL schema.

Raw lines are tolerant Twitter-API-shaped objects: alternative field names
are accepted, absent fields get defaults, Twitter's legacy created_at format
is parsed, and tweets whose string stance annotation is outside the
four-class set are dropped (sources are kept unlabelled instead, since
replies need them for thread structure). Every other value that is present
goes unchanged to `corpus.build_dataset`, which decides whether it is valid.
"""

from __future__ import annotations

import json
import logging
from datetime import datetime, timezone
from pathlib import Path

from .corpus import (
    _LABEL_ALIASES,
    CorpusError,
    build_dataset,
    build_threads,
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


def _as_id(obj: dict, *names):
    """The first non-null of `names`, as a string: an integer id becomes its
    decimal string. Ids key the event map before the corpus checks run, so
    any other value is an error here."""
    for name in names:
        value = obj.get(name)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise CorpusError(f"{name} must be a string or an integer, got {value!r}")
        return str(value)
    return None


def normalize_record(obj: dict) -> dict:
    """Map one raw tweet object to the normalized ingestion schema: dialect
    names renamed, absent or null fields filled (a count of 0, a flag of
    false, text ""), timestamps converted and account_created clamped. An
    empty description becomes null; every other value is copied unchanged
    for `corpus.build_dataset` to check. event_id is None when the object
    names no event."""
    if not isinstance(obj, dict):
        raise CorpusError("a raw export line must hold a JSON object")
    created_raw = _first(obj, "created_at", "timestamp")
    if created_raw is None:
        raise CorpusError("raw tweet has no created_at")
    created_at = _parse_any_timestamp(created_raw)
    user = _first(obj, "user", default={})
    if not isinstance(user, dict):
        raise CorpusError(f"user must be an object, got {user!r}")
    account_raw = _first(user, "account_created", "created_at")
    account_created = _parse_any_timestamp(account_raw) if account_raw is not None else created_at
    description = user.get("description")
    return {
        "tweet_id": _as_id(obj, "tweet_id", "id_str", "id"),
        "text": _first(obj, "text", "full_text", default=""),
        "created_at": format_rfc3339(created_at),
        "in_reply_to": _as_id(obj, "in_reply_to", "in_reply_to_status_id_str",
                              "in_reply_to_status_id"),
        "rumour_id": _as_id(obj, "rumour_id", "thread_id", "conversation_id"),
        "event_id": _as_id(obj, "event_id", "event"),
        "label": _first(obj, "label", "stance"),
        "user": {
            "statuses_count": _first(user, "statuses_count", "statuses", default=0),
            "verified": _first(user, "verified", default=False),
            "followers": _first(user, "followers", "followers_count", default=0),
            "followees": _first(user, "followees", "friends_count", "following", default=0),
            "favourites_count": _first(user, "favourites_count", "favorites_count", default=0),
            "account_created": format_rfc3339(min(account_created, created_at)),
            "geo_enabled": _first(user, "geo_enabled", default=False),
            "description": None if description == "" else description,
        },
    }


def ingest_file(raw_path, out_path, default_event: str = "unknown") -> dict:
    """Normalize a raw JSONL export; returns {"kept": n, "dropped": n}.

    Tweets with a string annotation outside the four-class set are dropped,
    except sources, which are kept with the label cleared. A tweet that
    names no event takes the first event named by a tweet of its rumour,
    else `default_event`. The kept records must pass `corpus.build_dataset`
    and `build_threads`, each named by its raw line, before `out_path` is
    opened, so a bad export writes nothing.
    """
    raw_path = Path(raw_path)
    numbered = []  # (raw line, normalized record)
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
        if isinstance(label, str) and label.strip().lower() not in _LABEL_ALIASES:
            if record["in_reply_to"] is None:
                record["label"] = None  # keep sources for thread structure
            else:
                dropped += 1
                continue
        numbered.append((lineno, record))
    for _, record in numbered:
        if record["event_id"] is None:
            record["event_id"] = named_events.get(record["rumour_id"], default_event)
    build_threads(build_dataset(numbered, raw_path))
    with Path(out_path).open("w", encoding="utf-8") as fout:
        fout.writelines(json.dumps(record, ensure_ascii=False) + "\n" for _, record in numbered)
    if dropped:
        log.warning("dropped %d tweets with out-of-set annotations", dropped)
    return {"kept": len(numbered), "dropped": dropped}

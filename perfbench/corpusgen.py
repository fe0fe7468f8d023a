"""Seeded generator of the benchmark inputs: a four-event rumour corpus in
the canonical JSONL schema, and a raw export of further rumours written in
the alternative field-name dialect that `stance ingest` accepts.

Label counts per event follow the PHEME proportions in
`rumourstance.benchmarks.EVENT_LABEL_COUNTS` (Zubiaga et al., 2016), scaled
down so that one workload pass takes seconds. Every rumour's source tweet is
labelled support, as in that corpus. Reply texts are built from the
resource bundle's vocabulary, so the BROWN, MOOD and AF columns fire; a
share of replies borrows another label's wording, so accuracy is not
saturated. Comment templates are no shorter than the others: on Euclidean
distance over bag-of-words columns, short comment replies would be the
nearest neighbours of every tweet, and k-NN would answer comment whatever
the text.

The export holds about four times as many tweets as the corpus, so that
`label-export` predicts a larger batch than it fits on. Its tweet ids are
the same for every seed; only texts, users and labels differ.

Only the standard library draws the random numbers, so the same seed gives
the same bytes on any platform.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timezone
from pathlib import Path

# the PHEME per-event statistics of rumourstance.benchmarks, copied so that
# the generated inputs, and with them the recorded reference, stay fixed
# whatever the program under test does to that module
EVENT_LABEL_COUNTS = {
    "ottawa": {"rumours": 58, "support": 161, "deny": 76, "query": 64,
               "comment": 481},
    "ferguson": {"rumours": 46, "support": 192, "deny": 83, "query": 94,
                 "comment": 685},
    "charliehebdo": {"rumours": 74, "support": 236, "deny": 56, "query": 51,
                     "comment": 710},
    "sydneysiege": {"rumours": 71, "support": 89, "deny": 4, "query": 99,
                    "comment": 713},
}
LABELS = ("support", "deny", "query", "comment")

CORPUS_SCALE = 0.035     # share of each event's stance labels generated
EXPORT_SCALE = 0.14      # the same share for the raw export
RUMOUR_SCALE = 0.10      # share of each event's rumour threads generated
NOISE_SHARE = 0.30       # replies worded with another label's template
NESTED_SHARE = 0.2       # replies answering an earlier reply, not the source

SUPPORT_WORDS = (
    "confirmed", "verified", "official", "definite", "evidence", "proven",
    "reliable", "credible", "corroborated", "validated", "dependable",
    "truthful", "substantiated", "affirmed", "plausible", "upheld",
    "trustworthy", "genuine", "accurate", "authenticated", "legitimate",
    "verifiable", "solid", "authentic", "factual", "established")
NODOUBT_WORDS = ("certain", "sure", "undeniable", "absolutely", "obvious",
                 "clearly", "fact", "undoubtedly")
DOUBT_WORDS = (
    "doubt", "doubtful", "unconfirmed", "skeptical", "dubious",
    "questionable", "unverified", "suspicious", "manufactured", "falsified",
    "fabricated", "mistaken", "invented", "imaginary", "untrue", "spurious",
    "concocted", "groundless", "fictitious", "bogus", "exaggerated",
    "distorted", "phony", "misreported", "misleading", "doctored", "false")
SURPRISE_WORDS = ("wow", "unbelievable", "incredible", "shocking",
                  "astonishing", "stunned", "whoa", "astonished")
MOOD_WORDS = (
    "amused", "funny", "hilarious", "laughing", "joking", "disappointed",
    "letdown", "sighing", "unfortunate", "regrettable", "outraged",
    "indignant", "furious", "disgusted", "livid", "satisfied", "pleased",
    "glad", "contented", "relieved", "worried", "anxious", "scared",
    "nervous", "afraid")
QUESTION_WORDS = ("who", "what", "when", "where", "why", "how", "which",
                  "is", "are", "was", "did", "does", "can", "could", "anyone")
TOPIC_WORDS = ("bridge", "collapse", "mayor", "resignation", "water",
               "contamination", "stadium", "blaze", "train", "derailment",
               "power", "outage", "incident", "gunman", "hostage", "suspect",
               "lockdown", "shooting", "protest", "cafe")
GENERAL_WORDS = (
    "breaking", "reported", "witnesses", "say", "story", "morning", "police",
    "sources", "account", "already", "local", "reporters", "believe", "claim",
    "overnight", "several", "officials", "report", "earlier", "update",
    "happened", "photos", "link", "reports", "coming", "source", "people",
    "news", "live", "scene", "coverage", "week", "tonight", "home",
    "watching", "everyone", "nearby", "media", "feed", "channel", "video",
    "statement", "crowd", "street", "downtown", "hours", "minutes", "latest")
SENTIMENT_WORDS = ("terrible", "awful", "horrible", "tragic", "sad", "bad",
                   "scary", "wrong", "good", "nice", "hope", "safe", "great",
                   "amazing")
PLACES = ("main street", "harbour bridge", "river park", "central station",
          "city hall", "north district")
EMOTICONS = (":)", ":(", ":D", ";)", ":o", ":-(")
SLANG = ("gonna", "tbh", "smh", "dunno", "lol", "omg", "wtf", "btw")

TEMPLATES = {
    "support": (
        "{S} , {G} say the {T} story is {S}",
        "this is {N} {S} , the {T} report holds",
        "{G} {G} confirm it : {S} and {N}",
        "{N} {S} now , {G} at {P} back the {T} claim",
        "officials say the {T} news is {S} {E}",
        "{X} but {S} , {G} confirm the {T}",
    ),
    "deny": (
        "{D} , the {T} story is not true",
        "not confirmed , this {T} claim looks {D} and {D}",
        "{G} say the {T} report was {D} {E}",
        "that is {D} , no {T} at {P}",
        "stop sharing , {D} {T} rumour , it is a hoax",
        "{D} story , {G} deny any {T}",
    ),
    "query": (
        "{Q} is the {T} story {S} ?",
        "{Q} did this happen , any {G} ?",
        "really ? {Q} say that about the {T} ?",
        "is that true ? any update on the {T} at {P} ?",
        "{Q} is the source for the {T} claim ?",
        "any more news on the {T} ? {X}",
    ),
    "comment": (
        "{M} and {M} , {G} {G} watching the {T} news tonight {E}",
        "{M} and {M} watching the {T} coverage with {G} {G}",
        "stay safe everyone at {P} , so {M} about the {T} {E}",
        "thoughts with the people near {P} , {M} and {M} {E}",
        "{X} , {M} about the {T} , {G} {G} {E}",
        "{L} {M} , {G} {G} all day with the {T} {E}",
    ),
}

_SLOTS = {
    "S": SUPPORT_WORDS, "N": NODOUBT_WORDS, "D": DOUBT_WORDS,
    "X": SURPRISE_WORDS, "M": MOOD_WORDS, "Q": QUESTION_WORDS,
    "G": GENERAL_WORDS, "P": PLACES, "E": EMOTICONS + ("", "", ""),
    "L": SLANG,
}

_BASE_TIME = datetime(2014, 10, 22, 12, 0, 0, tzinfo=timezone.utc).timestamp()


def scaled_counts(scale: float) -> dict:
    """Per event: rumour count and stance label counts at `scale`.

    Sources are support tweets, so an event has no more rumours than
    support labels; it keeps at least two rumours, which leave-one-out
    needs, and at least one reply per rumour.
    """
    out = {}
    for event, counts in EVENT_LABEL_COUNTS.items():
        labels = {label: round(counts[label] * scale) for label in LABELS}
        rumours = max(2, min(round(counts["rumours"] * RUMOUR_SCALE),
                             labels["support"]))
        labels["support"] = max(labels["support"], rumours)
        replies = sum(labels.values()) - rumours
        if replies < rumours:
            labels["comment"] += rumours - replies
        out[event] = {"rumours": rumours, **labels}
    return out


def _iso(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _twitter_time(ts: float) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime(
        "%a %b %d %H:%M:%S +0000 %Y")


def _fill(template: str, rng: random.Random, topic: str) -> str:
    words = []
    for piece in template.split():
        if piece.startswith("{") and piece.endswith("}"):
            slot = piece[1:-1]
            piece = topic if slot == "T" else rng.choice(_SLOTS[slot])
        if piece:
            words.append(piece)
    return " ".join(words)


def _reply_text(label: str, rng: random.Random, topic: str) -> str:
    voice = label
    if rng.random() < NOISE_SHARE:
        voice = rng.choice([other for other in LABELS if other != label])
    text = _fill(rng.choice(TEMPLATES[voice]), rng, topic)
    extras = [rng.choice(GENERAL_WORDS + SENTIMENT_WORDS)
              for _ in range(rng.randrange(0, 4))]
    if extras:
        text = f"{text} {' '.join(extras)}"
    if rng.random() < 0.15:
        text = f"@user{rng.randrange(1000)} {text}"
    if rng.random() < 0.1:
        text = f"{text} http://t.co/{rng.randrange(10 ** 6):06d}"
    return text


def _user(rng: random.Random, created: float) -> dict:
    return {
        "statuses_count": rng.randrange(10, 20000),
        "verified": rng.random() < 0.1,
        "followers": rng.randrange(0, 5000),
        "followees": rng.randrange(1, 2000),
        "favourites_count": rng.randrange(0, 8000),
        "account_created": _iso(created - rng.randrange(60, 2000) * 86400.0),
        "geo_enabled": rng.random() < 0.3,
        "description": rng.choice((None, "news watcher", "local resident",
                                   "coffee first", "just here for updates")),
    }


def _event_tweets(event: str, counts: dict, rng: random.Random,
                  prefix: str, event_index: int) -> list:
    """Canonical records for one event: sources first in each thread, then
    replies in time order."""
    n_rumours = counts["rumours"]
    pool = ["support"] * (counts["support"] - n_rumours)
    for label in ("deny", "query", "comment"):
        pool.extend([label] * counts[label])
    rng.shuffle(pool)
    # threads of near-equal size, so that the work per fold, and with it
    # the run time, varies little from seed to seed
    chunks = [pool[r::n_rumours] for r in range(n_rumours)]
    records = []
    for r, labels in enumerate(chunks):
        rumour = f"{prefix}{event}-r{r:02d}"
        topic = rng.choice(TOPIC_WORDS)
        start = _BASE_TIME + event_index * 30 * 86400.0 + r * 3600.0
        source_id = f"{rumour}-t000"
        records.append({
            "tweet_id": source_id,
            "text": (f"breaking : {topic} {rng.choice(TOPIC_WORDS)} reported "
                     f"near {rng.choice(PLACES)} #{event}"),
            "created_at": start, "in_reply_to": None, "rumour_id": rumour,
            "event_id": event, "label": "support",
        })
        reply_ids = []
        for i, label in enumerate(labels, start=1):
            tweet_id = f"{rumour}-t{i:03d}"
            parent = source_id
            if reply_ids and rng.random() < NESTED_SHARE:
                parent = rng.choice(reply_ids)
            records.append({
                "tweet_id": tweet_id, "text": _reply_text(label, rng, topic),
                "created_at": start + i * 40.0 + rng.randrange(40),
                "in_reply_to": parent, "rumour_id": rumour,
                "event_id": event, "label": label,
            })
            reply_ids.append(tweet_id)
    for record in records:
        record["user"] = _user(rng, record["created_at"])
    return records


def _corpus_records(seed: int, scale: float, prefix: str) -> list:
    rng = random.Random(f"rumourstance-bench/{prefix}/{seed}")
    records = []
    for i, (event, counts) in enumerate(scaled_counts(scale).items()):
        records.extend(_event_tweets(event, counts, rng, prefix, i))
    return records


def _canonical(record: dict) -> dict:
    return {**record, "created_at": _iso(record["created_at"])}


def _raw_dialect(record: dict) -> dict:
    """The same tweet under Twitter-API field names, as `stance ingest`
    accepts them."""
    user = record["user"]
    account = datetime.strptime(user["account_created"], "%Y-%m-%dT%H:%M:%SZ")
    account_ts = account.replace(tzinfo=timezone.utc).timestamp()
    return {
        "id_str": record["tweet_id"],
        "full_text": record["text"],
        "created_at": _twitter_time(record["created_at"]),
        "in_reply_to_status_id_str": record["in_reply_to"],
        "conversation_id": record["rumour_id"],
        "event": record["event_id"],
        "stance": record["label"],
        "user": {
            "statuses_count": user["statuses_count"],
            "verified": user["verified"],
            "followers_count": user["followers"],
            "friends_count": user["followees"],
            "favorites_count": user["favourites_count"],
            "created_at": _twitter_time(account_ts),
            "geo_enabled": user["geo_enabled"],
            "description": user["description"],
        },
    }


def _write_lines(path: Path, objects) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def write_inputs(seed: int, out_dir) -> dict:
    """Write the corpus (`pheme4.jsonl`) and the raw export
    (`export_raw.jsonl`) for `seed` into `out_dir`; return their paths and
    the export's gold labels by tweet id."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = _corpus_records(seed, CORPUS_SCALE, "")
    export = _corpus_records(seed, EXPORT_SCALE, "x")
    corpus_path = out_dir / "pheme4.jsonl"
    export_path = out_dir / "export_raw.jsonl"
    _write_lines(corpus_path, (_canonical(r) for r in corpus))
    _write_lines(export_path, (_raw_dialect(r) for r in export))
    return {
        "corpus": corpus_path,
        "export": export_path,
        "export_labels": {r["tweet_id"]: r["label"] for r in export},
    }

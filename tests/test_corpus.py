"""Corpus loading, label parsing, and thread assembly."""
from __future__ import annotations

import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rumourstance.bundled import micro_corpus_path
from rumourstance.cli import main
from rumourstance.corpus import (
    CLASS_ORDER,
    CorpusError,
    StanceLabel,
    build_threads,
    format_rfc3339,
    load_dataset,
    parse_rfc3339,
    parse_stance_label,
    read_json_lines,
    thread_index,
)
from rumourstance.errors import StanceError
from rumourstance.ingest import ingest_file


def test_class_order_is_fixed():
    assert [l.value for l in CLASS_ORDER] == ["support", "deny", "query", "comment"]


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("support", StanceLabel.SUPPORT),
        ("supporting", StanceLabel.SUPPORT),
        ("deny", StanceLabel.DENY),
        ("denying", StanceLabel.DENY),
        ("query", StanceLabel.QUERY),
        ("questioning", StanceLabel.QUERY),
        ("comment", StanceLabel.COMMENT),
        ("commenting", StanceLabel.COMMENT),
        ("  Support ", StanceLabel.SUPPORT),
    ],
)
def test_label_aliases(raw, expected):
    assert parse_stance_label(raw) is expected


def test_null_label_means_unlabelled(tmp_path):
    row = {
        "tweet_id": "t1",
        "text": "hello",
        "created_at": "2015-03-01T08:00:00Z",
        "in_reply_to": None,
        "rumour_id": "r1",
        "event_id": "e1",
        "label": None,
        "user": {
            "statuses_count": 1,
            "verified": False,
            "followers": 0,
            "followees": 0,
            "favourites_count": 0,
            "account_created": "2014-01-01T00:00:00Z",
            "geo_enabled": False,
            "description": None,
        },
    }
    path = tmp_path / "one.jsonl"
    path.write_text(json.dumps(row) + "\n")
    ds = load_dataset(path)
    assert ds.tweets[0].label is None


def test_unknown_label_rejected():
    with pytest.raises(CorpusError):
        parse_stance_label("agree")


def test_rfc3339_round_trip():
    ts = parse_rfc3339("2015-03-01T08:00:00Z")
    assert format_rfc3339(ts) == "2015-03-01T08:00:00Z"
    # offset forms normalise to UTC
    assert parse_rfc3339("2015-03-01T09:00:00+01:00") == ts


def test_micro_dataset_shape(micro):
    assert len(micro.tweets) == 96
    assert len(micro.rumours) == 6
    assert len(micro.events) == 2
    for tweet in micro.tweets:
        assert tweet.rumour_id in micro.rumours
        assert tweet.event_id in micro.events


def test_threads_sorted_and_sourced(micro):
    threads = build_threads(micro)
    assert len(threads) == 6
    for thread in threads:
        assert thread.source.in_reply_to is None
        assert thread.rumour_id == thread.source.rumour_id
        times = [r.created_at for r in thread.replies]
        assert times == sorted(times)
        assert 1 + len(thread.replies) == len(micro.rumours[thread.rumour_id])


def test_datasets_compare_by_their_fields(micro):
    again = load_dataset(micro_corpus_path())
    assert again is not micro and again == micro
    tweets = list(again.tweets)
    tweets[5] = replace(tweets[5], text=tweets[5].text + "!")
    assert replace(again, tweets=tweets) != micro


def test_thread_index_keys(micro):
    threads = build_threads(micro)
    index = thread_index(threads)
    assert set(index) == set(micro.rumours)


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dupes.jsonl"
    first = None
    with open(micro_corpus_path()) as src, open(path, "w") as dst:
        for line in src:
            if first is None:
                first = line
            dst.write(line)
        dst.write(first)
    with pytest.raises(CorpusError):
        load_dataset(path)


# ------------------------------------------------------------ input boundary

with open(micro_corpus_path(), "rb") as _fh:
    _GOOD_LINE = _fh.readline()
_RECORD = json.loads(_GOOD_LINE)
# corpus fields, then raw-export aliases that ingest also reads
_FIELDS = (*_RECORD, *(f"user.{k}" for k in _RECORD["user"]),
           "id", "timestamp", "full_text", "stance", "user.created_at",
           "user.followers_count")

# half the strings may hold lone surrogates, which json.dumps writes as \u escapes
_strings = st.text(max_size=30) | st.text(st.characters() | st.characters(categories=("Cs",)),
                                          max_size=30)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _strings,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=6)


def _with_field(field, value) -> bytes:
    """A reply to the good line's source tweet with `field` (dotted for a
    user field) set to `value`, so that only that field can make it fail."""
    record = json.loads(_GOOD_LINE)
    record.update(tweet_id="a1-reply", in_reply_to=record["tweet_id"])
    target = record["user"] if field.startswith("user.") else record
    target[field.removeprefix("user.")] = value
    return json.dumps(record).encode()


def _new_rumour(rumour_id, event_id) -> bytes:
    """The good line as the source tweet of a rumour and event that no
    other line names, so that only those ids can make it fail."""
    record = json.loads(_GOOD_LINE)
    record.update(tweet_id="b1-source", rumour_id=rumour_id, event_id=event_id)
    return json.dumps(record).encode()


@pytest.mark.parametrize("command, bad_line", [
    pytest.param("featurize", _with_field("text", 5), id="featurize-text-5"),
    pytest.param("featurize", _with_field("text", None), id="featurize-text-null"),
    pytest.param("featurize", _with_field("event_id", ["a"]), id="featurize-event-list"),
    pytest.param("featurize", _with_field("user", 5), id="featurize-user-5"),
    pytest.param("featurize", _with_field("created_at", 12), id="featurize-created-12"),
    pytest.param("featurize", _with_field("user.account_created", 7),
                 id="featurize-account-created-7"),
    pytest.param("featurize", _with_field("label", 3), id="featurize-label-3"),
    pytest.param("featurize", b"5", id="featurize-bare-5"),
    pytest.param("featurize", b"\xff\xfe{}", id="featurize-not-utf8"),
    pytest.param("featurize", _with_field("user.verified", "false"),
                 id="featurize-verified-string"),
    pytest.param("featurize", _with_field("user.geo_enabled", "no"),
                 id="featurize-geo-enabled-string"),
    pytest.param("featurize", _with_field("user.verified", 0), id="featurize-verified-0"),
    pytest.param("featurize", _with_field("user.followers", 10**400),
                 id="featurize-followers-10e400"),
    pytest.param("featurize", _with_field("event_id", "eb"),
                 id="featurize-rumour-in-two-events"),
    pytest.param("featurize", _with_field("text", "\udc80"), id="featurize-lone-surrogate"),
    pytest.param("featurize", _with_field("tweet_id", "a\tb"), id="featurize-tweet-id-tab"),
    pytest.param("featurize", _new_rumour("b1", "e\nb"), id="featurize-event-id-newline"),
    pytest.param("featurize", _new_rumour("b\t1", "eb"), id="featurize-rumour-id-tab"),
    pytest.param("ingest", b"5", id="ingest-bare-5"),
    pytest.param("ingest", _with_field("user", 5), id="ingest-user-5"),
    pytest.param("ingest", _with_field("user", [1]), id="ingest-user-list"),
    pytest.param("ingest", _with_field("created_at", float("inf")),
                 id="ingest-created-infinity"),
    pytest.param("ingest", b"\xff\xfe{}", id="ingest-not-utf8"),
    pytest.param("ingest", _with_field("user.verified", "false"), id="ingest-verified-string"),
    pytest.param("ingest", _with_field("user.geo_enabled", "no"),
                 id="ingest-geo-enabled-string"),
    pytest.param("ingest", _with_field("user.geo_enabled", 1), id="ingest-geo-enabled-1"),
    pytest.param("ingest", _with_field("user.followers", 10**400), id="ingest-followers-10e400"),
    pytest.param("ingest", _with_field("user.followers", "9" * 5000),
                 id="ingest-followers-5000-digits"),
    pytest.param("ingest", _with_field("user.followers", float("inf")),
                 id="ingest-followers-infinity"),
    pytest.param("ingest", _with_field("user.description", "a \ud800 b"),
                 id="ingest-lone-surrogate"),
    pytest.param("ingest", _with_field("tweet_id", ""), id="ingest-empty-tweet-id"),
    pytest.param("ingest", _with_field("tweet_id", True), id="ingest-tweet-id-true"),
    pytest.param("ingest", _with_field("text", {"a": 1}), id="ingest-text-object"),
    pytest.param("ingest", _with_field("rumour_id", ["a1"]), id="ingest-rumour-id-list"),
    pytest.param("ingest", _GOOD_LINE.rstrip(b"\n"), id="ingest-duplicate-id"),
    pytest.param("ingest", _with_field("tweet_id", "a\nb"), id="ingest-tweet-id-newline"),
    pytest.param("ingest", _new_rumour("b1", "e\nb"), id="ingest-event-id-newline"),
    pytest.param("ingest", _new_rumour("b\t1", "eb"), id="ingest-rumour-id-tab"),
    pytest.param("ingest", _with_field("user.followers", True), id="ingest-followers-true"),
    pytest.param("ingest", _with_field("user.followers", "123"),
                 id="ingest-followers-digit-string"),
    pytest.param("ingest", _with_field("user.followers", -5), id="ingest-followers-negative"),
    pytest.param("ingest", _with_field("user.followees", "many"), id="ingest-followees-many"),
    pytest.param("ingest", _with_field("user.statuses_count", 3.7),
                 id="ingest-statuses-count-3.7"),
    pytest.param("ingest", _with_field("user.description", {"a": 1}),
                 id="ingest-description-object"),
    pytest.param("ingest", _with_field("label", 5), id="ingest-label-5"),
    pytest.param("ingest", _with_field("label", ["deny"]), id="ingest-label-list"),
])
def test_bad_input_line_is_a_one_line_error(command, bad_line, tmp_path, capsys):
    path = tmp_path / "input.jsonl"
    path.write_bytes(_GOOD_LINE + bad_line + b"\n")
    flag = "--dataset" if command == "featurize" else "--input"
    code = main([command, flag, str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {path}:2: ")
    assert err.count("\n") == 1
    # a bad export writes nothing, not the lines before the bad one
    assert not (tmp_path / "out" / "normalized.jsonl").exists()


@pytest.mark.parametrize("field, value", [("verified", "false"), ("geo_enabled", "no"),
                                          ("verified", 1), ("geo_enabled", [True])])
def test_user_flags_must_be_json_booleans(field, value, tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_bytes(_GOOD_LINE + _with_field(f"user.{field}", value) + b"\n")
    normalized = tmp_path / "normalized.jsonl"
    for load in (load_dataset, lambda p: ingest_file(p, normalized)):
        with pytest.raises(CorpusError, match=f"user field '{field}' must be true or false"):
            load(path)


def _without_event(line: bytes) -> dict:
    record = json.loads(line)
    del record["event_id"]
    return record


@pytest.mark.parametrize("reply_first", [False, True])
def test_ingest_gives_a_record_without_event_its_rumours_event(reply_first, tmp_path, capsys):
    # the good line names event "ea"; its reply names none
    lines = [_GOOD_LINE.decode().rstrip("\n"),
             json.dumps(_without_event(_with_field("text", "is this true?")))]
    if reply_first:
        lines.reverse()
    path, out = tmp_path / "raw.jsonl", tmp_path / "out"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["ingest", "--input", str(path), "--out", str(out / "ingest")]) == 0
    normalized = out / "ingest" / "normalized.jsonl"
    assert [t.event_id for t in load_dataset(normalized).tweets] == ["ea", "ea"]
    assert main(["featurize", "--dataset", str(normalized), "--out", str(out / "feat")]) == 0
    capsys.readouterr()


def test_ingest_fills_an_unnamed_rumour_with_the_default_event(tmp_path):
    path, normalized = tmp_path / "raw.jsonl", tmp_path / "normalized.jsonl"
    path.write_text(json.dumps(_without_event(_GOOD_LINE)) + "\n"
                    + json.dumps(_without_event(_with_field("text", "ok"))) + "\n")
    ingest_file(path, normalized, default_event="ottawa")
    assert [t.event_id for t in load_dataset(normalized).tweets] == ["ottawa", "ottawa"]


def test_ingested_rumour_naming_two_events_fails_to_load(tmp_path):
    path, normalized = tmp_path / "raw.jsonl", tmp_path / "normalized.jsonl"
    path.write_bytes(_GOOD_LINE + json.dumps(_without_event(_with_field("text", "ok"))).encode()
                     + b"\n" + _with_field("event_id", "eb").replace(b"a1-reply", b"a1-r2")
                     + b"\n")
    with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:3: rumour 'a1' is in "
                                          r"event 'eb' here but in event 'ea' on line 1$"):
        ingest_file(path, normalized)
    assert not normalized.exists()


def _micro_with_dangling_reply(*extra: bytes) -> bytes:
    """Micro with reply a1-t01 pointing at a tweet absent from the corpus."""
    lines = micro_corpus_path().read_bytes().splitlines(keepends=True)
    record = json.loads(lines[1])
    assert record["tweet_id"] == "a1-t01"
    record["in_reply_to"] = "gone"
    lines[1] = json.dumps(record).encode() + b"\n"
    return b"".join(lines) + b"".join(line + b"\n" for line in extra)


def test_reply_to_a_missing_tweet_featurizes_as_any_reply(tmp_path, capsys):
    path = tmp_path / "dangling.jsonl"
    path.write_bytes(_micro_with_dangling_reply())
    assert main(["featurize", "--dataset", str(path), "--out", str(tmp_path / "dangling")]) == 0
    assert main(["featurize", "--dataset", str(micro_corpus_path()),
                 "--out", str(tmp_path / "micro")]) == 0
    capsys.readouterr()
    assert ((tmp_path / "dangling" / "vectors.tsv").read_bytes()
            == (tmp_path / "micro" / "vectors.tsv").read_bytes())


def test_reply_to_a_missing_tweet_beside_two_sources_is_a_thread_error(tmp_path, capsys):
    path = tmp_path / "dangling.jsonl"
    path.write_bytes(_micro_with_dangling_reply(_with_field("in_reply_to", None)))
    assert main(["featurize", "--dataset", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "rumour 'a1' has multiple source tweets" in capsys.readouterr().err


def test_ingest_reads_an_absent_or_null_user_flag_as_false(tmp_path):
    source = json.loads(_GOOD_LINE)
    del source["user"]["verified"]
    source["user"]["geo_enabled"] = True
    reply = json.loads(_with_field("user.geo_enabled", None))
    reply["user"]["verified"] = True
    path, normalized = tmp_path / "in.jsonl", tmp_path / "normalized.jsonl"
    path.write_text(json.dumps(source) + "\n" + json.dumps(reply) + "\n")
    ingest_file(path, normalized)
    flags = [(t.user.verified, t.user.geo_enabled) for t in load_dataset(normalized).tweets]
    assert flags == [(False, True), (True, False)]


_lines = st.one_of(
    st.binary(max_size=40),
    _json_values.map(lambda v: json.dumps(v).encode()),
    st.builds(_with_field, st.sampled_from(_FIELDS), _json_values),
)


_COUNT_ALIASES = {"statuses_count": ("statuses_count", "statuses"),
                  "followers": ("followers", "followers_count"),
                  "followees": ("followees", "friends_count", "following"),
                  "favourites_count": ("favourites_count", "favorites_count")}


def _succeeds(call) -> bool:
    try:
        call()
    except StanceError:
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(line=_lines)
def test_any_input_line_loads_or_is_a_stance_error(line):
    # a corpus or raw-export line of any JSON value or bytes, after a good
    # line; what ingest writes must load and thread without an error
    with tempfile.TemporaryDirectory() as tmp:
        path, normalized = Path(tmp) / "in.jsonl", Path(tmp) / "normalized.jsonl"
        path.write_bytes(_GOOD_LINE + line + b"\n")
        _succeeds(lambda: load_dataset(path))
        if _succeeds(lambda: ingest_file(path, normalized)):
            loaded = load_dataset(normalized)
            build_threads(loaded)
            # each present count is copied as it is, type included (true is not 1)
            by_id = {t.tweet_id: t for t in loaded.tweets}
            for _, raw in read_json_lines(path):
                tweet_id = next(str(raw[n]) for n in ("tweet_id", "id_str", "id")
                                if raw.get(n) is not None)
                if tweet_id not in by_id:
                    continue  # dropped for an out-of-set label
                user = raw.get("user") or {}
                for name, aliases in _COUNT_ALIASES.items():
                    want = next((user[n] for n in aliases if user.get(n) is not None), 0)
                    got = getattr(by_id[tweet_id].user, name)
                    assert (type(got), got) == (type(want), want)

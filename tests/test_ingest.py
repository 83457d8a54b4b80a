"""Feed parsing and stream ingestion."""

from __future__ import annotations

import calendar
import json

import pytest

from alertpaths.bench import build_store
from alertpaths.errors import OutOfOrderError, ParseError
from alertpaths.ingest import (
    ingest_stream,
    parse_csv_line,
    parse_eve_line,
    parse_timestamp,
)
from alertpaths.store import AlertStore

from conftest import canonical_state, mk_alert


def eve_line(
    src: str,
    dst: str,
    timestamp: str,
    sid: int = 2025649,
    event_type: str = "alert",
) -> str:
    return json.dumps(
        {
            "timestamp": timestamp,
            "event_type": event_type,
            "src_ip": src,
            "dest_ip": dst,
            "alert": {"signature_id": sid},
        }
    )


# ---------------------------------------------------------------------------
# timestamps
# ---------------------------------------------------------------------------


def test_timestamp_suricata_offset_form():
    micros = parse_timestamp("2018-02-21T10:00:00.000001+0000")
    assert micros == calendar.timegm((2018, 2, 21, 10, 0, 0)) * 1_000_000 + 1


def test_timestamp_colon_offset_and_zulu_agree():
    a = parse_timestamp("2018-02-21T10:00:00.250000+00:00")
    b = parse_timestamp("2018-02-21T10:00:00.250000Z")
    assert a == b


def test_timestamp_nonzero_offset_converts_to_utc():
    shifted = parse_timestamp("2018-02-21T11:30:00.000000+0130")
    plain = parse_timestamp("2018-02-21T10:00:00.000000+0000")
    assert shifted == plain


def test_timestamp_without_subseconds_pads_to_zero():
    micros = parse_timestamp("2018-02-21T10:00:00+0000")
    assert micros % 1_000_000 == 0


def test_timestamp_without_offset_rejected():
    with pytest.raises(ParseError):
        parse_timestamp("2018-02-21T10:00:00.000001")


def test_timestamp_garbage_rejected():
    with pytest.raises(ParseError):
        parse_timestamp("not-a-time")


_TEN_UTC = calendar.timegm((2018, 2, 21, 10, 0, 0)) * 1_000_000


@pytest.mark.parametrize(
    "text, micros",
    [
        ("2018-02-21T10:00:00+0000", _TEN_UTC),
        ("2018-02-21T10:00:00.5+00:00", _TEN_UTC + 500_000),
        ("2018-02-21T10:00:00.25z", _TEN_UTC + 250_000),
        ("2018-02-21 10:00:00.000001Z", _TEN_UTC + 1),
        ("2018-02-21T11:30:00.123456+0130", _TEN_UTC + 123_456),
        ("2018-02-21T05:00:00-05:00", _TEN_UTC),
        ("2018-02-21T10:00:00-0000", _TEN_UTC),
        (" 2018-02-21T10:00:00Z\n", _TEN_UTC),
    ],
)
def test_timestamp_grammar_values(text, micros):
    assert parse_timestamp(text) == micros


@pytest.mark.parametrize(
    "text",
    [
        "2018-W08-3T10:00:00+00:00",  # week date
        "2018-02-21T10:00:00,5+00:00",  # comma fraction
        "20180221T100000+0000",  # basic format
        "2018-02-21T10:00:00.1234567+00:00",  # more than six fraction digits
        "2018-02-21T10:00:00.+00:00",  # empty fraction
        "2018-02-21T10+00:00",  # hour only
        "2018-02-21T10:00+00:00",  # minutes only
        "2018-02-21T10:00:00+00",  # offset hours only
        "2018-02-21T10:00:00+00:00:00",  # offset seconds
        "2018-02-21T10:00:00+00:60",
        "2018-02-21T10:00:00+24:00",
        "2018-02-30T10:00:00+00:00",
        "2018-02-21T24:00:00+00:00",
        "٢٠١٨-02-21T10:00:00+00:00",  # Arabic-Indic digits
        "2018-02-21",
        "2018-02-21T10:00:00.000001",  # no offset
    ],
)
def test_timestamp_grammar_rejections(text):
    with pytest.raises(ParseError):
        parse_timestamp(text)


# ---------------------------------------------------------------------------
# line parsers
# ---------------------------------------------------------------------------


def test_parse_eve_alert_line():
    alert = parse_eve_line(
        eve_line("172.31.67.46", "103.0.0.1", "2018-02-21T10:00:00.000001+0000")
    )
    assert alert is not None
    assert alert.source == "172.31.67.46"
    assert alert.destination == "103.0.0.1"
    assert alert.sid == 2025649
    assert alert.time_us % 1_000_000 == 1


def test_parse_eve_other_event_types_skip():
    line = eve_line("a", "b", "2018-02-21T10:00:00+0000", event_type="flow")
    assert parse_eve_line(line) is None


def test_parse_eve_error_cases():
    with pytest.raises(ParseError):
        parse_eve_line("{broken json")
    with pytest.raises(ParseError):
        parse_eve_line('"just a string"')
    with pytest.raises(ParseError):
        parse_eve_line('{"src_ip": "a"}')  # no event_type
    missing_sid = json.dumps(
        {
            "timestamp": "2018-02-21T10:00:00+0000",
            "event_type": "alert",
            "src_ip": "a",
            "dest_ip": "b",
            "alert": {},
        }
    )
    with pytest.raises(ParseError):
        parse_eve_line(missing_sid)
    # each of these once ingested and then made the saved store unreadable,
    # or named a host "None" or ""
    good = json.loads(eve_line("a", "b", "2018-02-21T10:00:00+0000"))
    for field, value in [
        ("src_ip", None),
        ("src_ip", ""),
        ("dest_ip", None),
        ("dest_ip", ""),
        ("dest_ip", 10),
        ("alert", {"signature_id": True}),
        ("alert", {"signature_id": False}),
        ("alert", {"signature_id": 1.0}),
        ("alert", {"signature_id": "1"}),
    ]:
        with pytest.raises(ParseError):
            parse_eve_line(json.dumps({**good, field: value}))


def test_parse_csv_line():
    alert = parse_csv_line("v1,v2,1000,42")
    assert alert is not None
    assert (alert.source, alert.destination, alert.time_us, alert.sid) == (
        "v1",
        "v2",
        1000,
        42,
    )
    assert parse_csv_line("   ") is None


def test_parse_csv_error_cases():
    with pytest.raises(ParseError):
        parse_csv_line("v1,v2,1000")
    with pytest.raises(ParseError):
        parse_csv_line("v1,v2,soon,42")
    # only plain ASCII decimal, which int() alone would widen
    for line in ("a,b,1_000,2", "a,b, +7 ,\u0663", "a,b,7,\u0663", "a,b,+7,3",
                 "a,b,\uff11\uff12,3", "a,b,12,\uff13", "a,b,-,3", "a,b,--1,3"):
        with pytest.raises(ParseError):
            parse_csv_line(line)
    with pytest.raises(ParseError, match="non-empty string endpoints"):
        parse_csv_line(",b,1,2")


# ---------------------------------------------------------------------------
# streams
# ---------------------------------------------------------------------------


def test_ingest_mixed_eve_stream(data_dir):
    store = AlertStore()
    with open(data_dir / "sample_eve.jsonl", encoding="utf-8") as feed:
        report = ingest_stream(store, feed)
    assert report.parsed == 3
    assert report.skipped == 1
    assert report.error_count == 1
    assert report.inserted == 3
    assert store.stats().alert_count == 3
    # the three alerts chain across hosts
    assert store.stats().path_count == 6
    # field order, with the error list replaced by its count
    assert list(report.to_dict().items()) == [
        ("parsed", 3), ("skipped", 1), ("inserted", 3), ("reinserted", 0),
        ("errors", 1), ("endpoints_created", 3), ("paths_created", 6),
    ]


def test_ingest_strict_raises_with_line_number(data_dir):
    store = AlertStore()
    with open(data_dir / "sample_eve.jsonl", encoding="utf-8") as feed:
        with pytest.raises(ParseError, match="line 4"):
            ingest_stream(store, feed, strict=True)


def test_ingest_chronological_sorts_batch():
    lines = [
        "v2,v3,2000,1",
        "v1,v2,1000,1",  # out of order in the file
    ]
    store = AlertStore()
    report = ingest_stream(store, lines, fmt="csv")
    assert report.inserted == 2
    assert report.reinserted == 0
    assert {p.vertices for p in store.paths()} == {
        ("v1", "v2"),
        ("v2", "v3"),
        ("v1", "v2", "v3"),
    }


def test_ingest_equal_timestamps_keep_input_order():
    lines = ["v1,v2,1000,1", "v2,v3,1000,1"]
    store = AlertStore()
    ingest_stream(store, lines, fmt="csv")
    # input order breaks the tie, so the two-arc path is feasible
    assert ("v1", "v2", "v3") in {p.vertices for p in store.paths()}


def test_ingest_auto_routes_late_alerts_to_reinsertion():
    lines = ["v1,v2,1000,1", "v3,v4,3000,1", "v2,v3,2000,1"]
    store = AlertStore()
    report = ingest_stream(store, lines, fmt="csv", mode="auto")
    assert report.inserted == 2
    assert report.reinserted == 1
    chronological = build_store(
        [
            mk_alert("v1", "v2", 1000, sid=1, seq=0),
            mk_alert("v2", "v3", 2000, sid=1, seq=1),
            mk_alert("v3", "v4", 3000, sid=1, seq=2),
        ]
    )
    assert {p.vertices for p in store.paths()} == {
        p.vertices for p in chronological.paths()
    }


def test_ingest_chronological_fails_behind_existing_store():
    store = AlertStore()
    ingest_stream(store, ["v1,v2,5000,1"], fmt="csv")
    with pytest.raises(OutOfOrderError, match=r"^line 2: .*--mode auto"):
        ingest_stream(store, ["", "v9,v8,1000,1", "v9,v7,6000,1"], fmt="csv")
    assert store.stats().alert_count == 1


def test_ingest_unknown_format_rejected():
    with pytest.raises(ValueError):
        ingest_stream(AlertStore(), [], fmt="xml")  # type: ignore[arg-type]


def test_ingest_unknown_mode_rejected_before_any_change():
    # "Auto" is not "auto": it must neither sort nor reinsert, but fail
    # before the first line is parsed or stored
    store = AlertStore()
    ingest_stream(store, ["v1,v2,5000,1"], fmt="csv")
    before = canonical_state(store)
    for mode in ("Auto", "sorted", ""):
        with pytest.raises(ValueError, match="mode"):
            ingest_stream(store, ["v2,v3,6000,1", "v9,v8,1000,1"], fmt="csv", mode=mode)
        assert canonical_state(store) == before
        assert store.stats().path_count == 1


def test_reinsert_stream_routes_everything():
    # auto mode inserts what arrives at the head and reinserts what is behind it
    store = AlertStore()
    report = ingest_stream(
        store, ["v2,v3,2000,1", "v1,v2,1000,1"], fmt="csv", mode="auto"
    )
    assert report.reinserted == 1
    assert report.inserted == 1
    assert {p.vertices for p in store.paths()} == {
        ("v1", "v2"),
        ("v2", "v3"),
        ("v1", "v2", "v3"),
    }


def test_ingest_is_deterministic(data_dir, tmp_path):
    snapshots = []
    for run in range(2):
        store = AlertStore()
        with open(data_dir / "sample_eve.jsonl", encoding="utf-8") as feed:
            ingest_stream(store, feed)
        target = tmp_path / f"run{run}.jsonl"
        store.snapshot(target)
        snapshots.append(target.read_bytes())
    assert snapshots[0] == snapshots[1]


def test_ingest_progress_callback():
    lines = [f"v{i},w{i},{1000 + i},1" for i in range(2500)]
    seen: list[int] = []
    ingest_stream(AlertStore(), lines, fmt="csv", progress=seen.append)
    assert seen == [1000, 2000]

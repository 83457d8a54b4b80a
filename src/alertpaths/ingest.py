"""Turning alert feeds into store updates.

Two line formats are understood: Suricata EVE JSON (the primary feed; only
``event_type == "alert"`` records matter, everything else is skipped) and a
plain CSV fixture format ``source,destination,epoch_micros,id``. Parsers
return alerts with ``seq == 0``; the stream loop assigns real ordinals.

Timestamps must carry a UTC offset; an offset-less timestamp is ambiguous
and rejected rather than guessed at.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable, Iterable, Literal

from .errors import OutOfOrderError, ParseError
from .maintenance import insert_alert, reinsert_alert
from .model import Alert
from .store import AlertStore

_EPOCH = datetime(1970, 1, 1)  # read as UTC; the offset is applied separately
_MICROSECOND = timedelta(microseconds=1)
_TIMESTAMP = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})[T ]([0-9]{2}):([0-9]{2}):([0-9]{2})"
    r"(?:\.([0-9]{1,6}))?([Zz]|([+-])([01][0-9]|2[0-3]):?([0-5][0-9]))?"
)
_DECIMAL = re.compile(r"-?[0-9]+")  # not int()'s syntax: no sign "+", "_" or non-ASCII digits
_PROGRESS_EVERY = 1000


@dataclass(slots=True)
class IngestReport:
    """Outcome of one stream run."""

    parsed: int = 0
    skipped: int = 0
    inserted: int = 0
    reinserted: int = 0
    errors: list[tuple[int, str]] = field(default_factory=list)
    endpoints_created: int = 0
    paths_created: int = 0

    @property
    def error_count(self) -> int:
        return len(self.errors)

    def to_dict(self) -> dict:
        return {
            "parsed": self.parsed,
            "skipped": self.skipped,
            "inserted": self.inserted,
            "reinserted": self.reinserted,
            "errors": self.error_count,
            "endpoints_created": self.endpoints_created,
            "paths_created": self.paths_created,
        }


def parse_timestamp(text: str) -> int:
    """ISO 8601 timestamp with offset -> epoch microseconds (exact integer).

    The grammar is fixed here rather than left to `datetime.fromisoformat`,
    whose grammar differs between Python versions: ``YYYY-MM-DD``, ``T`` or a
    space, ``HH:MM:SS``, an optional ``.`` with 1-6 digits padded to
    microseconds, then ``Z``/``z``, ``+HH:MM`` or Suricata's ``+HHMM`` (or
    ``-``). Anything else, an out-of-range field included, raises
    `ParseError`.
    """
    match = _TIMESTAMP.fullmatch(text.strip())
    if match is None:
        raise ParseError(f"unparsable timestamp {text!r}")
    *fields, fraction, zone, sign, offset_hours, offset_minutes = match.groups()
    if zone is None:
        raise ParseError(f"timestamp {text!r} has no UTC offset")
    try:
        moment = datetime(*map(int, fields), int(fraction.ljust(6, "0")) if fraction else 0)
    except ValueError:
        raise ParseError(f"unparsable timestamp {text!r}")
    micros = (moment - _EPOCH) // _MICROSECOND
    if sign is None:  # Z or z
        return micros
    offset = (int(offset_hours) * 60 + int(offset_minutes)) * 60_000_000
    return micros + offset if sign == "-" else micros - offset


def parse_eve_line(line: str) -> Alert | None:
    """One EVE JSON line -> Alert, or None for non-alert event types; a
    value that breaks `Alert`'s field rule raises `ParseError`."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON ({exc.msg})")
    if not isinstance(event, dict):
        raise ParseError("expected a JSON object")
    try:
        event_type = event["event_type"]
    except KeyError:
        raise ParseError("missing field 'event_type'")
    if event_type != "alert":
        return None
    try:
        source = event["src_ip"]
        dest = event["dest_ip"]
        timestamp = event["timestamp"]
        sid = event["alert"]["signature_id"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing field {exc}")
    try:
        return Alert(source, dest, parse_timestamp(str(timestamp)), sid)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_csv_line(line: str) -> Alert | None:
    """One ``source,destination,epoch_micros,id`` row -> Alert; blank -> None.
    A time or id other than ``-?[0-9]+`` after stripping, or a field `Alert`
    rejects, raises `ParseError`."""
    if not line.strip():
        return None
    rows = list(csv.reader([line]))
    fields = rows[0] if rows else []
    if len(fields) != 4:
        raise ParseError(f"expected 4 fields, got {len(fields)}")
    source, dest, time_text, sid_text = (f.strip() for f in fields)
    if not (_DECIMAL.fullmatch(time_text) and _DECIMAL.fullmatch(sid_text)):
        raise ParseError(f"time and id must be plain decimal integers in {line.strip()!r}")
    try:
        return Alert(source, dest, int(time_text), int(sid_text))
    except ValueError as exc:
        raise ParseError(f"{exc} in {line.strip()!r}") from None


_PARSERS: dict[str, Callable[[str], Alert | None]] = {
    "eve": parse_eve_line,
    "csv": parse_csv_line,
}


def ingest_stream(
    store: AlertStore,
    lines: Iterable[str],
    *,
    fmt: Literal["eve", "csv"] = "eve",
    mode: Literal["chronological", "auto"] = "chronological",
    strict: bool = False,
    progress: Callable[[int], None] | None = None,
) -> IngestReport:
    """Parse a feed and fold it into the store.

    ``chronological`` sorts the batch by (time, then input order), assigns
    consecutive ordinals, and requires nothing in the store to be newer; a
    conflict raises `OutOfOrderError` naming the line, before the store
    changes. ``auto`` keeps input order and routes any alert
    older than the store's latest time through reinsertion. An unknown
    ``fmt`` or ``mode`` raises `ValueError` before any line is read. Parse
    failures are recorded per line and skipped unless ``strict``.
    This is `parse_feed` followed by `fold_alerts`.
    """
    _check_mode(mode)
    parsed, report = parse_feed(lines, fmt=fmt, strict=strict)
    return fold_alerts(store, parsed, report, mode=mode, progress=progress)


def parse_feed(
    lines: Iterable[str], *, fmt: Literal["eve", "csv"] = "eve", strict: bool = False
) -> tuple[list[tuple[int, Alert]], IngestReport]:
    """The first half of `ingest_stream`: every alert of a feed with its line
    number, and a report that counts what was parsed, skipped and rejected.
    Touches no store, so a caller can parse before it locks one."""
    try:
        parser = _PARSERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; expected one of {sorted(_PARSERS)}")
    report = IngestReport()
    alerts: list[tuple[int, Alert]] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            alert = parser(line)
        except ParseError as exc:
            if strict:
                raise ParseError(str(exc), line_no) from None
            report.errors.append((line_no, str(exc)))
            continue
        if alert is None:
            report.skipped += 1
            continue
        report.parsed += 1
        alerts.append((line_no, alert))
    return alerts, report


def fold_alerts(
    store: AlertStore,
    parsed: list[tuple[int, Alert]],
    report: IngestReport,
    *,
    mode: Literal["chronological", "auto"] = "chronological",
    progress: Callable[[int], None] | None = None,
) -> IngestReport:
    """The second half of `ingest_stream`: fold `parse_feed`'s alerts into
    the store, counting into its report, which is returned."""
    _check_mode(mode)
    alerts = parsed
    if mode == "chronological":
        alerts = sorted(parsed, key=lambda item: item[1].time_us)  # ties keep input order
    for done, (line_no, alert) in enumerate(alerts, start=1):
        alert = Alert(alert.source, alert.destination, alert.time_us, alert.sid, store.next_seq)
        latest = store.latest_time_us
        if latest is not None and alert.time_us < latest:
            if mode == "chronological":
                # the batch is sorted, so only its first alert can be behind
                # the head, and the store has not changed yet
                raise OutOfOrderError(
                    f"line {line_no}: alert at time {alert.time_us} is older than "
                    f"the store's newest at {latest}; ingest late alerts with "
                    'mode="auto" (--mode auto)'
                )
            outcome = reinsert_alert(store, alert)
            report.reinserted += 1
        else:
            outcome = insert_alert(store, alert)
            report.inserted += 1
        report.endpoints_created += outcome.endpoints_created
        report.paths_created += outcome.paths_created
        if progress is not None and done % _PROGRESS_EVERY == 0:
            progress(done)
    return report


def _check_mode(mode: str) -> None:
    if mode not in ("chronological", "auto"):
        raise ValueError(f"mode must be 'chronological' or 'auto', got {mode!r}")

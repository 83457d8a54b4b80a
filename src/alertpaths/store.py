"""Embedded store for endpoint and path records.

Single-writer, in-process. Every query the maintenance and query layers
need is backed by a dict index, never a scan over unrelated records; the
access counters exist so tests can verify that. Snapshots are
line-delimited JSON in a canonical sort order, which makes equal stores
produce byte-identical files.

Concurrency contract: one writer at a time, readers see a consistent store
only between mutating calls. The CLI enforces this across processes with
file locks; in-process callers must not share a store between threads
without their own locking.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from .errors import StoreError
from .model import Alert, EndpointPair, EndpointRecord, PathRecord

SNAPSHOT_FORMAT = "alert-path-store"
SNAPSHOT_VERSION = 2
# Version 1 path lines also carried a "children" list, which load ignores.
READABLE_VERSIONS = (1, 2)


@dataclass(frozen=True, slots=True)
class StoreStats:
    """Cheap size readout; every field is maintained incrementally."""

    node_count: int
    endpoint_count: int
    alert_count: int
    path_count: int


@dataclass(slots=True)
class AccessCounters:
    """Records touched by lookups, for verifying index-backed complexity."""

    endpoint_records: int = 0
    path_records: int = 0

    def reset(self) -> None:
        self.endpoint_records = 0
        self.path_records = 0


class AlertStore:
    """Endpoint and path records plus the indexes over them."""

    def __init__(self) -> None:
        self._endpoints: dict[EndpointPair, EndpointRecord] = {}
        self._paths: dict[tuple[str, ...], PathRecord] = {}
        self._by_origin: dict[str, list[PathRecord]] = defaultdict(list)
        self._by_target: dict[str, list[PathRecord]] = defaultdict(list)
        self._by_extremes: dict[tuple[str, str], list[PathRecord]] = defaultdict(list)
        self._nodes: set[str] = set()
        self._seqs: set[int] = set()
        self._alert_count = 0
        self._max_seq = -1
        self._latest_time_us: int | None = None
        self._ranked_endpoints: list[EndpointRecord] | None = None
        self._ranked_paths: list[PathRecord] | None = None
        self.scores_stale = False
        self.counters = AccessCounters()

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def upsert_endpoint(self, alert: Alert) -> tuple[EndpointRecord, bool]:
        """Append an alert to its pair's record, creating the record if new.

        Returns (record, created). The alert's seq must be unused; both
        vertices become known nodes even for self-loops.
        """
        if alert.seq in self._seqs:
            raise StoreError(f"ingestion ordinal {alert.seq} already in use")
        pair = alert.pair
        record = self._endpoints.get(pair)
        created = record is None
        if record is None:
            record = EndpointRecord(pair)
            self._endpoints[pair] = record
        record.alerts.append(alert)
        self._nodes.add(alert.source)
        self._nodes.add(alert.destination)
        self._seqs.add(alert.seq)
        self._alert_count += 1
        if alert.seq > self._max_seq:
            self._max_seq = alert.seq
        if self._latest_time_us is None or alert.time_us > self._latest_time_us:
            self._latest_time_us = alert.time_us
        self.scores_stale = True
        self._ranked_endpoints = None
        return record, created

    def endpoint(self, pair: EndpointPair) -> EndpointRecord | None:
        record = self._endpoints.get(pair)
        if record is not None:
            self.counters.endpoint_records += 1
        return record

    def endpoints(self) -> Iterator[EndpointRecord]:
        for record in self._endpoints.values():
            self.counters.endpoint_records += 1
            yield record

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def insert_path(self, path: PathRecord) -> None:
        """Index a new path. Duplicates and dangling pairs are rejected.

        Callers prevent duplicates with `has_path`; the check here is a
        backstop. Endpoint records must already exist for every pair so
        readers never see a path whose annotations are missing.
        """
        if path.vertices in self._paths:
            raise StoreError(f"path {path.vertices} already stored")
        for pair in path.pairs:
            if pair not in self._endpoints:
                raise StoreError(
                    f"path {path.vertices} references unknown pair {pair}"
                )
        self._paths[path.vertices] = path
        self._by_origin[path.origin].append(path)
        self._by_target[path.target].append(path)
        self._by_extremes[(path.origin, path.target)].append(path)
        self.scores_stale = True
        self._ranked_paths = None

    def get_path(self, vertices: tuple[str, ...]) -> PathRecord | None:
        record = self._paths.get(vertices)
        if record is not None:
            self.counters.path_records += 1
        return record

    def has_path(self, vertices: tuple[str, ...]) -> bool:
        return vertices in self._paths

    def paths(self) -> Iterator[PathRecord]:
        for record in self._paths.values():
            self.counters.path_records += 1
            yield record

    def find_paths_ending_at(self, vertex: str) -> list[PathRecord]:
        found = list(self._by_target.get(vertex, ()))
        self.counters.path_records += len(found)
        return found

    def find_paths_starting_at(self, vertex: str) -> list[PathRecord]:
        found = list(self._by_origin.get(vertex, ()))
        self.counters.path_records += len(found)
        return found

    def find_paths_between(self, origin: str, target: str) -> list[PathRecord]:
        found = list(self._by_extremes.get((origin, target), ()))
        self.counters.path_records += len(found)
        return found

    # ------------------------------------------------------------------
    # ranking
    # ------------------------------------------------------------------

    def top_endpoints_by_ets(self, k: int) -> tuple[list[EndpointRecord], bool]:
        """k highest cached ETS values, ties broken by pair.

        The second element reports whether cached scores are stale. The
        ranking index is rebuilt at most once per mutation epoch; the call
        itself only scans the first k entries.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if self._ranked_endpoints is None:
            self._ranked_endpoints = sorted(
                self._endpoints.values(), key=lambda r: (-r.ets, r.pair)
            )
        top = self._ranked_endpoints[:k]
        self.counters.endpoint_records += len(top)
        return top, self.scores_stale

    def top_paths_by_pts(self, k: int) -> tuple[list[PathRecord], bool]:
        """k highest cached PTS values, ties broken by vertex sequence."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if self._ranked_paths is None:
            self._ranked_paths = sorted(
                self._paths.values(), key=lambda p: (-p.pts, p.vertices)
            )
        top = self._ranked_paths[:k]
        self.counters.path_records += len(top)
        return top, self.scores_stale

    def mark_scores_fresh(self) -> None:
        """Called after a recompute pass: scores now match the data."""
        self.scores_stale = False
        self._ranked_endpoints = None
        self._ranked_paths = None

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        return self._max_seq + 1

    @property
    def latest_time_us(self) -> int | None:
        return self._latest_time_us

    def stats(self) -> StoreStats:
        return StoreStats(
            node_count=len(self._nodes),
            endpoint_count=len(self._endpoints),
            alert_count=self._alert_count,
            path_count=len(self._paths),
        )

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def snapshot(self, destination: str | Path) -> None:
        """Write the whole store to one portable file.

        Records are emitted in canonical order (endpoints by pair with
        alerts by (time, seq), then paths by vertex sequence), so stores
        with equal content produce byte-identical snapshots.
        """
        destination = Path(destination)
        header = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "scores_stale": self.scores_stale,
            "endpoints": len(self._endpoints),
            "paths": len(self._paths),
        }
        lines = [_dump(header)]
        for pair in sorted(self._endpoints):
            record = self._endpoints[pair]
            lines.append(
                _dump(
                    {
                        "src": pair.source,
                        "dst": pair.destination,
                        "ets": record.ets,
                        "alerts": [
                            [a.time_us, a.sid, a.seq]
                            for a in sorted(record.alerts, key=lambda a: a.key)
                        ],
                    }
                )
            )
        for vertices in sorted(self._paths):
            record = self._paths[vertices]
            lines.append(
                _dump(
                    {
                        "vertices": list(vertices),
                        "pts": record.pts,
                    }
                )
            )
        tmp = destination.with_name(destination.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
            handle.flush()
            # the rename below must never publish a file whose data is not on disk
            os.fsync(handle.fileno())
        os.replace(tmp, destination)

    def load(self, source: str | Path) -> None:
        """Replace the store's contents with a snapshot's."""
        source = Path(source)
        try:
            raw = source.read_text(encoding="utf-8")
        except OSError as exc:
            raise StoreError(f"cannot read snapshot {source}: {exc}") from exc
        lines = raw.splitlines()
        if not lines:
            raise StoreError(f"snapshot {source} is empty")
        header = _load_line(lines[0], 1)
        if header.get("format") != SNAPSHOT_FORMAT:
            raise StoreError(f"not a {SNAPSHOT_FORMAT} snapshot: {source}")
        if header.get("version") not in READABLE_VERSIONS:
            raise StoreError(f"unsupported snapshot version {header.get('version')}")
        n_endpoints = int(header["endpoints"])
        n_paths = int(header["paths"])
        if len(lines) != 1 + n_endpoints + n_paths:
            raise StoreError(
                f"snapshot {source} truncated: header promises "
                f"{n_endpoints + n_paths} records, found {len(lines) - 1}"
            )

        self.__init__()
        for offset in range(n_endpoints):
            line_no = 2 + offset
            row = _load_line(lines[1 + offset], line_no)
            try:
                pair = EndpointPair(row["src"], row["dst"])
                record = EndpointRecord(pair, ets=float(row["ets"]))
                for time_us, sid, seq in row["alerts"]:
                    record.alerts.append(
                        Alert(pair.source, pair.destination, int(time_us), int(sid), int(seq))
                    )
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"snapshot line {line_no}: bad endpoint record ({exc})")
            if not record.alerts:
                raise StoreError(f"snapshot line {line_no}: endpoint without alerts")
            self._endpoints[pair] = record
            self._nodes.add(pair.source)
            self._nodes.add(pair.destination)
            for alert in record.alerts:
                if alert.seq in self._seqs:
                    raise StoreError(
                        f"snapshot line {line_no}: duplicate ordinal {alert.seq}"
                    )
                self._seqs.add(alert.seq)
                self._alert_count += 1
                if alert.seq > self._max_seq:
                    self._max_seq = alert.seq
                if self._latest_time_us is None or alert.time_us > self._latest_time_us:
                    self._latest_time_us = alert.time_us
        for offset in range(n_paths):
            line_no = 2 + n_endpoints + offset
            row = _load_line(lines[1 + n_endpoints + offset], line_no)
            try:
                record = PathRecord(tuple(row["vertices"]), pts=float(row["pts"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise StoreError(f"snapshot line {line_no}: bad path record ({exc})")
            self.insert_path(record)
        self.scores_stale = bool(header.get("scores_stale", False))


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load_line(line: str, line_no: int) -> dict:
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise StoreError(f"snapshot line {line_no}: invalid JSON ({exc.msg})")
    if not isinstance(row, dict):
        raise StoreError(f"snapshot line {line_no}: expected an object")
    return row

"""Embedded store for endpoint and path records, and the read interface
it shares with the alert log.

`PathReader` writes the read interface once: endpoint lookups, paths
between two vertices, both rankings, `stats` and `snapshot`. It reads the
endpoint records and what each subclass supplies: `paths()`, the lookups
by origin and by target, and a path count. `AlertStore` answers these from
its path set and indexes; `derivation.AlertLog` derives them.

Single-writer, in-process. The store keeps the path set and two indexes,
by origin and by target; everything else is computed when it is read.
Lookups by origin or target touch only the matching records, a lookup by
both filters the origin's paths, and rankings scan every record. Scores
are cached on the records and marked stale by every mutation; each reader
of a score first calls `recompute_threat_scores`, which refreshes them
only when they are stale. No other module assigns a score.
Paths are kept prefix-first: `insert_path` accepts a path only after its
one-hop-shorter prefix, so `paths()` and the lookups by origin yield every
path after its prefix.
Records keep their alerts' (time, seq) keys beside them, so any pair is bisected in place.
Snapshots hold only the alert log, as line-delimited JSON, records by pair
and alerts as kept, so equal stores produce byte-identical files.
`read_snapshot` is the one validator of that file. `load` replays what it
reads through `insert_alert`, so paths are derived again, and scores on the
first read after it; `derivation.AlertLog` answers the same reads from the
same alerts without building the path set.

Concurrency contract: one writer at a time, readers see a consistent store
only between mutating calls. The CLI enforces this across processes with
file locks; in-process callers must not share a store between threads
without their own locking.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import StoreError
from .model import Alert, EndpointPair, EndpointRecord, OrderKey, PathRecord, alert_key

SNAPSHOT_FORMAT = "alert-path-store"
SNAPSHOT_VERSION = 3
# Versions 1 and 2 also hold path lines, which load counts but never reads.
READABLE_VERSIONS = (1, 2, 3)


@dataclass(frozen=True, slots=True)
class StoreStats:
    """Size readout; node_count is counted over the endpoint pairs on each call."""

    node_count: int
    endpoint_count: int
    alert_count: int
    path_count: int


class PathReader:
    """The read interface over ``_endpoints`` and the four methods below that
    a subclass supplies; scores are fresh unless a subclass marks them stale."""

    _endpoints: dict[EndpointPair, EndpointRecord]
    scores_stale = False

    def paths(self) -> Iterator[PathRecord]:  # each path after its prefix
        raise NotImplementedError

    def find_paths_starting_at(self, vertex: str) -> list[PathRecord]:
        raise NotImplementedError

    def find_paths_ending_at(self, vertex: str) -> list[PathRecord]:
        raise NotImplementedError

    def _path_count(self) -> int:
        raise NotImplementedError

    def endpoint(self, pair: EndpointPair) -> EndpointRecord | None:
        return self._endpoints.get(pair)

    def endpoints(self) -> Iterator[EndpointRecord]:
        return iter(self._endpoints.values())

    def find_paths_between(self, origin: str, target: str) -> list[PathRecord]:
        """The origin's paths that end at target, in lookup order."""
        return [p for p in self.find_paths_starting_at(origin) if p.target == target]

    def top_endpoints_by_ets(self, k: int) -> tuple[list[EndpointRecord], bool]:
        """k highest ETS values, ties broken by pair.

        Scores are refreshed first if stale, so the second element, the
        staleness flag, is always False. Each call selects from every
        record with a k-bounded heap.
        """
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        recompute_threat_scores(self)
        ranked = heapq.nsmallest(k, self._endpoints.values(), key=lambda r: (-r.ets, r.pair))
        return ranked, self.scores_stale

    def top_paths_by_pts(self, k: int) -> tuple[list[PathRecord], bool]:
        """k highest PTS values, ties broken by vertex sequence; fresh like
        `top_endpoints_by_ets`."""
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        recompute_threat_scores(self)
        ranked = heapq.nsmallest(k, self.paths(), key=lambda p: (-p.pts, p.vertices))
        return ranked, self.scores_stale

    def stats(self) -> StoreStats:
        records = self._endpoints.values()
        return StoreStats(
            node_count=len({vertex for pair in self._endpoints for vertex in pair}),
            endpoint_count=len(records),
            alert_count=sum(len(record.alerts) for record in records),
            path_count=self._path_count(),
        )

    def snapshot(self, destination: str | Path) -> None:
        """Write the alert log with `write_snapshot`; paths and scores are
        derived from it on load. Equal logs produce byte-identical
        snapshots."""
        write_snapshot(destination, self._endpoints.values())


class AlertStore(PathReader):
    """Endpoint and path records plus the indexes over them."""

    def __init__(self) -> None:
        self._endpoints: dict[EndpointPair, EndpointRecord] = {}
        self._paths: dict[tuple[str, ...], PathRecord] = {}
        self._by_origin: dict[str, list[PathRecord]] = defaultdict(list)
        self._by_target: dict[str, list[PathRecord]] = defaultdict(list)
        self._seqs: set[int] = set()
        self._max_seq = -1
        self._head: OrderKey | None = None
        self.scores_stale = False

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def upsert_endpoint(self, alert: Alert) -> tuple[EndpointRecord, bool]:
        """Place an alert, and its key, in its pair's record; returns (record, created)."""
        if alert.seq in self._seqs:
            raise StoreError(f"ingestion ordinal {alert.seq} already in use")
        pair = alert.pair
        record = self._endpoints.get(pair)
        created = record is None
        if record is None:
            record = EndpointRecord(pair)
            self._endpoints[pair] = record
        key = alert.key
        at = bisect_right(record.keys, key)
        record.keys.insert(at, key)
        record.alerts.insert(at, alert)
        self._seqs.add(alert.seq)
        if alert.seq > self._max_seq:
            self._max_seq = alert.seq
        if self._head is None or key > self._head:
            self._head = key
        self.scores_stale = True
        return record, created

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def insert_path(self, path: PathRecord) -> None:
        """Index a new path after its one-hop-shorter prefix.

        The one gate for the stored-path rule. Duplicates are rejected as a
        backstop to `insert_alert`'s `has_path` and `reinsert_alert`'s key
        window. The last pair must have an endpoint record, the last vertex
        must be new to the path and, beyond one hop, the prefix stored; by
        induction every stored path is simple, at least one hop long and has
        a record for every pair, and the path set stays prefix-first.
        """
        vertices = path.vertices
        if vertices in self._paths:
            raise StoreError(f"path {vertices} already stored")
        last = vertices[-2:]  # a plain tuple hashes like EndpointPair
        if last not in self._endpoints:
            raise StoreError(f"path {vertices} references unknown pair {last}")
        if vertices[-1] in vertices[:-1]:
            raise StoreError(f"path {vertices} repeats its last vertex")
        if len(vertices) > 2 and vertices[:-1] not in self._paths:
            raise StoreError(f"path {vertices} has no stored prefix {vertices[:-1]}")
        self._paths[vertices] = path
        self._by_origin[path.origin].append(path)
        self._by_target[path.target].append(path)
        self.scores_stale = True

    def has_path(self, vertices: tuple[str, ...]) -> bool:
        return vertices in self._paths

    def paths(self) -> Iterator[PathRecord]:
        """Every stored path in insertion order, so each after its prefix."""
        return iter(self._paths.values())

    def find_paths_ending_at(self, vertex: str) -> list[PathRecord]:
        return list(self._by_target.get(vertex, ()))

    def find_paths_starting_at(self, vertex: str) -> list[PathRecord]:
        return list(self._by_origin.get(vertex, ()))

    def _path_count(self) -> int:
        return len(self._paths)

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        return self._max_seq + 1

    @property
    def head(self) -> OrderKey | None:
        """The largest (time, seq) key stored: the front of the stream."""
        return self._head

    @property
    def latest_time_us(self) -> int | None:
        return None if self._head is None else self._head[0]

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def load(self, source: str | Path) -> None:
        """Replace the store's contents with a snapshot's.

        `read_snapshot` validates the whole file before the store is
        touched, so a bad file leaves the store as it was. The alerts are
        then replayed in (time, seq) order, so every path is derived, never
        read from the file; scores are computed by the first read that
        needs them.
        """
        # maintenance imports this module, so importing it at the top would be circular
        from .maintenance import insert_alert

        alerts = read_snapshot(source)
        self.__init__()
        alerts.sort(key=alert_key)
        for alert in alerts:
            insert_alert(self, alert)


def write_snapshot(destination: str | Path, records: Iterable[EndpointRecord]) -> None:
    """Write an alert log to one portable file, atomically and durably.

    Only alerts are written, endpoints by pair with alerts as each record
    keeps them, by (time, seq), so equal logs produce byte-identical files.
    """
    destination = Path(destination)
    records = sorted(records, key=lambda r: r.pair)
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "endpoints": len(records),
    }
    lines = [_dump(header)]
    for record in records:
        lines.append(
            _dump(
                {
                    "src": record.pair.source,
                    "dst": record.pair.destination,
                    "alerts": [[a.time_us, a.sid, a.seq] for a in record.alerts],
                }
            )
        )
    tmp = destination.with_name(destination.name + ".tmp")
    handle = open(tmp, "w", encoding="utf-8")
    try:
        with handle:
            handle.write("\n".join(lines) + "\n")
            handle.flush()
            # the rename below must never publish a file whose data is not on disk
            os.fsync(handle.fileno())
        os.replace(tmp, destination)
    except BaseException:
        tmp.unlink(missing_ok=True)  # created or truncated by the open above
        raise
    if hasattr(os, "O_DIRECTORY"):  # POSIX: make the rename itself durable
        directory = os.open(destination.parent, os.O_RDONLY | os.O_DIRECTORY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def read_snapshot(source: str | Path) -> list[Alert]:
    """Every alert of a snapshot file, in file order.

    The file is outside input. Every line is validated, each alert by
    `Alert`'s field rule (a violation is a `StoreError` naming the line),
    and ordinals and pairs must be unique; any failure raises `StoreError`.
    """
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
    version = header.get("version")
    if not _is_int(version) or version not in READABLE_VERSIONS:
        raise StoreError(f"unsupported snapshot version {version!r}")
    n_endpoints = _header_count(header, "endpoints")
    n_paths = _header_count(header, "paths") if version < 3 else 0
    if len(lines) != 1 + n_endpoints + n_paths:
        raise StoreError(
            f"snapshot {source} truncated: header promises "
            f"{n_endpoints + n_paths} records, found {len(lines) - 1}"
        )

    alerts: list[Alert] = []
    line_of_seq: dict[int, int] = {}
    line_of_pair: dict[tuple[str, str], int] = {}
    for line_no in range(2, 2 + n_endpoints):
        row = _load_line(lines[line_no - 1], line_no)
        triples = row.get("alerts")
        if not isinstance(triples, list) or not triples:
            raise StoreError(
                f"snapshot line {line_no}: alerts must be a non-empty list"
            )
        for triple in triples:
            if not (isinstance(triple, list) and len(triple) == 3):
                raise StoreError(
                    f"snapshot line {line_no}: alert {triple!r} is not "
                    "a three-element list [time_us, sid, seq]"
                )
            try:
                alert = Alert(row.get("src"), row.get("dst"), *triple)
            except ValueError as exc:
                raise StoreError(f"snapshot line {line_no}: {exc}") from None
            if alert.seq in line_of_seq:
                raise StoreError(
                    f"snapshot line {line_no}: ordinal {alert.seq} already used "
                    f"on line {line_of_seq[alert.seq]}"
                )
            line_of_seq[alert.seq] = line_no
            alerts.append(alert)
        pair = (alert.source, alert.destination)  # one line per pair, or load merges them
        first = line_of_pair.setdefault(pair, line_no)
        if first != line_no:
            raise StoreError(f"snapshot line {line_no}: pair {pair} already on line {first}")
    return alerts


def recompute_threat_scores(store: PathReader) -> tuple[int, int]:
    """Refresh every cached ETS and PTS if any is stale; returns counts of
    changed records, (0, 0) at once when none is stale.

    A score is sqrt(distinct sids x alerts), as `threat_score` computes it.
    `reduce_pairs` reduces each pair once to (alert count, sid mask); a
    path's value is its one-hop-shorter prefix's combined with its last
    pair's. Paths are visited in stored order, which puts every prefix first.
    """
    if not store.scores_stale:
        return 0, 0
    arcs: dict[tuple[str, str], tuple[int, int]] = {}
    endpoints_updated = 0
    for record, count, mask in reduce_pairs(store.endpoints()):
        arcs[record.pair] = (count, mask)
        score = math.sqrt(mask.bit_count() * count)
        if score != record.ets:
            record.ets = score
            endpoints_updated += 1
    sums: dict[tuple[str, ...], tuple[int, int]] = {}
    paths_updated = 0
    for path in store.paths():
        vertices = path.vertices
        try:
            count, mask = arcs[vertices[-2:]]
            if len(vertices) > 2:
                prefix_count, prefix_mask = sums[vertices[:-1]]
                count += prefix_count
                mask |= prefix_mask
        except KeyError as exc:
            raise StoreError(f"path {vertices} lacks pair or prefix {exc.args[0]}") from None
        sums[vertices] = (count, mask)
        score = math.sqrt(mask.bit_count() * count)
        if score != path.pts:
            path.pts = score
            paths_updated += 1
    store.scores_stale = False
    return endpoints_updated, paths_updated


def reduce_pairs(
    records: Iterable[EndpointRecord],
) -> Iterator[tuple[EndpointRecord, int, int]]:
    """Each record with its pair reduced to (alert count, sid mask), the
    integer sums that ETS and PTS are computed from. A sid gets its bit when
    it is first seen, so masks compare only within one call.
    """
    bits: dict[int, int] = {}
    for record in records:
        mask = 0
        for sid in {alert.sid for alert in record.alerts}:
            bit = bits.get(sid)
            if bit is None:
                bit = bits[sid] = 1 << len(bits)
            mask |= bit
        yield record, len(record.alerts), mask


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


def _is_int(value: object) -> bool:
    # JSON true and false load as bool, which subclasses int
    return isinstance(value, int) and not isinstance(value, bool)


def _header_count(header: dict, key: str) -> int:
    value = header.get(key)
    if not _is_int(value) or value < 0:
        raise StoreError(
            f"snapshot line 1: {key!r} must be a non-negative integer, got {value!r}"
        )
    return value

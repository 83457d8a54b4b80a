"""Embedded store for endpoint and path records, and the read interface
it shares with the alert log.

`PathReader` writes the read interface once: endpoint lookups, paths
between two vertices, both rankings, `stats` and `snapshot`. It reads the
endpoint records and what each subclass supplies: `paths()`, the lookup
by origin, a root's paths as sorted sequences (`walk`) and a path count.
`AlertStore` answers these from its indexes; `AlertLog` derives them.

Single-writer, in-process. The store keeps its paths in insertion order,
a prefix trie over them (each path in its parent node's `children`, as
positions by last vertex, a one-hop path under its origin's never-stored
zero-hop root) and two indexes, by origin and by target; everything else
is computed when it is read. Lookups by origin or target touch only the
matching records, a lookup by both filters the origin's paths, and
rankings scan every record.
Scores are cached on the records and marked stale by every mutation; each
reader of a score first calls `recompute_threat_scores`, which refreshes
them only when they are stale, in one pass down the trie. No other module
assigns a score.
`extend` is the one gate for new paths: it stores a path under its parent
node, a root or a stored path, so `paths()` and the lookups by origin yield
every path after its prefix, and no path is looked up by its vertex tuple.
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
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from .errors import StoreError
from .model import Alert, Direction, EndpointPair, EndpointRecord, OrderKey, PathRecord, alert_key

SNAPSHOT_FORMAT = "alert-path-store"
SNAPSHOT_VERSION = 3
# Versions 1 and 2 also hold path lines, which load counts but never reads.
READABLE_VERSIONS = (1, 2, 3)
# A path as `walk` yields it: its vertices from the walk's root, and its PTS.
RootedPath = tuple[tuple[str, ...], float]


def check_direction(direction: str) -> None:  # raises ValueError unless a Direction
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")


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

    def walk(self, root: str, direction: Direction = "forward") -> Iterable[RootedPath]:
        """Every path from (forward) or to (backward) ``root``, sorted, which is a preorder."""
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
        # the prefix trie: each origin's zero-hop root node, and every path in
        # its parent node's children, as positions in _paths, which keeps
        # every path in insertion order; roots are never in _paths
        self._roots: dict[str, PathRecord] = {}
        self._paths: list[PathRecord] = []
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

    def root(self, vertex: str) -> PathRecord:
        """The zero-hop trie node ``(vertex,)``, parent of each one-hop path from
        ``vertex``: made on first use, never stored, so no lookup or count sees it."""
        return self._roots.get(vertex) or self._roots.setdefault(vertex, PathRecord((vertex,)))

    def extend(self, parent: PathRecord, vertex: str) -> PathRecord | None:
        """Store the path one hop longer than ``parent`` and return it; or
        store nothing and return None when that path is stored already or
        would repeat a vertex.

        ``parent`` is a node of this store's trie: a root from `root`, or a
        stored path as the lookups return them. This is the one gate for
        the stored-path rule: a duplicate is a stored child of
        ``parent``, a repeat is ``vertex`` among its vertices, and a last
        pair with no endpoint record raises `StoreError`. A path is stored
        only under its parent, so by induction every stored path is simple,
        at least one hop long and has a record for every pair, and the path
        set stays prefix-first.
        """
        prefix, children = parent.vertices, parent.children
        if children is not None and vertex in children:
            return None
        last = (prefix[-1], vertex)  # a plain tuple hashes like EndpointPair
        if last not in self._endpoints:
            raise StoreError(f"path {prefix + (vertex,)} references unknown pair {last}")
        if vertex in prefix:
            return None
        path = PathRecord(prefix + (vertex,))
        if children is None:  # a node's dict is made with its first child
            children = parent.children = {}
        children[vertex] = len(self._paths)
        self._paths.append(path)
        self._by_origin[prefix[0]].append(path)
        self._by_target[vertex].append(path)
        self.scores_stale = True
        return path

    def splice(self, start: PathRecord, vertices: tuple[str, ...]) -> PathRecord:
        """Store ``start`` followed by ``vertices`` with `extend` and return
        it. Its one-hop-shorter prefix is reached from ``start``, a node of
        the trie, by the stored child of each step; no vertices, a missing
        prefix, a duplicate or a repeat raises `StoreError`."""
        if not vertices:
            raise StoreError("a splice needs at least one vertex after its start")
        parent = self._descend(start, vertices[:-1])
        path = None if parent is None else self.extend(parent, vertices[-1])
        if path is None:
            full = start.vertices + vertices
            if parent is None:
                raise StoreError(f"path {full} has no stored prefix {full[:-1]}")
            raise StoreError(f"path {full} is stored already or repeats its last vertex")
        return path

    def _descend(self, start: PathRecord, vertices: tuple[str, ...]) -> PathRecord | None:
        """The node reached from the trie node ``start`` by the stored child of
        each vertex in turn: ``start`` for no vertices, None if one is missing."""
        node = start
        for vertex in vertices:
            at = node.children.get(vertex) if node.children else None
            if at is None:
                return None
            node = self._paths[at]
        return node

    def paths(self) -> Iterator[PathRecord]:
        """Every stored path in insertion order, so each after its prefix."""
        return iter(self._paths)

    def find_paths_ending_at(self, vertex: str) -> list[PathRecord]:
        return list(self._by_target.get(vertex, ()))

    def find_paths_starting_at(self, vertex: str) -> list[PathRecord]:
        return list(self._by_origin.get(vertex, ()))

    def walk(self, root: str, direction: Direction = "forward") -> list[RootedPath]:
        """The root's indexed paths with their PTS, refreshed if stale, sorted."""
        check_direction(direction)
        recompute_threat_scores(self)
        if direction == "forward":
            found = [(p.vertices, p.pts) for p in self._by_origin.get(root, ())]
        else:
            found = [(p.vertices[::-1], p.pts) for p in self._by_target.get(root, ())]
        found.sort(key=itemgetter(0))
        return found

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
    `reduce_pairs` reduces each pair once to (alert count, sid mask). Each
    path's (count, mask) is its parent's with its last pair's added, carried
    down the prefix trie from each root's (0, 0), the zero-hop sums (only an
    `AlertStore` marks its scores stale). The paths are scored in stored
    order, which puts every parent first, so the score floats are made in
    the order that `paths()`, and so every ranking, reads them. A missing
    pair record, or a stored path that the trie does not reach from its
    origin's root, raises `StoreError`.
    """
    if not store.scores_stale:
        return 0, 0
    # arcs[source][destination] = (count, mask) of that pair
    arcs: defaultdict[str, dict[str, tuple[int, int]]] = defaultdict(dict)
    endpoints_updated = 0
    for record, count, mask in reduce_pairs(store.endpoints()):
        source, destination = record.pair
        arcs[source][destination] = (count, mask)
        score = math.sqrt(mask.bit_count() * count)
        if score != record.ets:
            record.ets = score
            endpoints_updated += 1
    paths = store._paths
    # (count, mask) by position in paths, set by the parent and dropped once scored
    sums: list[tuple[int, int] | None] = [None] * len(paths)

    def carry(node: PathRecord, count: int, mask: int) -> None:
        last = node.vertices[-1]
        row = arcs[last]
        for vertex, at in node.children.items():
            try:
                arc_count, arc_mask = row[vertex]
            except KeyError:
                raise StoreError(f"path {paths[at].vertices} lacks pair {(last, vertex)}") from None
            sums[at] = (count + arc_count, mask | arc_mask)

    for root in store._roots.values():
        if root.children:
            carry(root, 0, 0)
    paths_updated = 0
    for at, path in enumerate(paths):
        summed = sums[at]
        if summed is None:
            raise StoreError(f"path {path.vertices} is not reached from its origin in the trie")
        sums[at] = None
        count, mask = summed
        score = math.sqrt(mask.bit_count() * count)
        if score != path.pts:
            path.pts = score
            paths_updated += 1
        if path.children:
            carry(path, count, mask)
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

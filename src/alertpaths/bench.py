"""Synthetic workloads, the brute-force oracle, and growth-law checks.

The oracle enumerates paths from first principles, sharing no code with
the streaming inserter: it grows simple vertex sequences over the observed
arc pairs and accepts a sequence only if an exhaustive backtracking search
finds one alert per consecutive pair in strictly increasing (time, seq)
order. Guard limits keep the search tractable; the oracle refuses larger
instances rather than silently taking hours.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .maintenance import insert_alert, reinsert_alert
from .model import Alert, OrderKey
from .store import AlertStore

ORACLE_MAX_NODES = 10
ORACLE_MAX_ALERTS = 60
MAX_CHAIN_ARCS = 400  # verify_complexity_tables' ceiling

_SID_POOL = (1000001, 1000002, 1000003, 1000004)


# ---------------------------------------------------------------------------
# workload generation
# ---------------------------------------------------------------------------


def generate_chain(n: int) -> list[Alert]:
    """n alerts v1 -> v2 -> ... -> v(n+1), increasing times, distinct ids."""
    if n < 0:
        raise ValueError(f"chain length must be non-negative, got {n}")
    base = 1_000_000_000
    return [
        Alert(f"v{i + 1}", f"v{i + 2}", base + 1000 * i, 2000000 + i, seq=i)
        for i in range(n)
    ]


def generate_random(nodes: int, alerts: int, seed: int) -> list[Alert]:
    """Seeded random stream: uniform distinct-node pairs, small id pool,
    non-decreasing times with occasional ties."""
    if nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {nodes}")
    if alerts < 0:
        raise ValueError(f"alert count must be non-negative, got {alerts}")
    rng = random.Random(seed)
    labels = [f"v{i + 1}" for i in range(nodes)]
    time_us = 1_000_000_000
    out: list[Alert] = []
    for i in range(alerts):
        source, dest = rng.sample(labels, 2)
        time_us += rng.choice((0, 1, 1, 2, 3))
        out.append(Alert(source, dest, time_us, rng.choice(_SID_POOL), seq=i))
    return out


def generate_fanout_stream(
    nodes: int, alerts: int, max_fanout: int, seed: int
) -> list[Alert]:
    """Seeded stream over a graph with bounded per-node fan-out.

    Every node gets at most ``max_fanout`` fixed out-neighbors; alerts pick
    a node and one of its neighbors uniformly. Keeps path growth tame on
    large streams.
    """
    if nodes < 2:
        raise ValueError(f"need at least 2 nodes, got {nodes}")
    if max_fanout < 1:
        raise ValueError(f"fan-out must be positive, got {max_fanout}")
    rng = random.Random(seed)
    labels = [f"h{i + 1}" for i in range(nodes)]
    neighbors: list[list[str]] = []
    for i, label in enumerate(labels):
        others = labels[:i] + labels[i + 1 :]
        neighbors.append(rng.sample(others, min(max_fanout, len(others))))
    time_us = 1_000_000_000
    out: list[Alert] = []
    for i in range(alerts):
        src_index = rng.randrange(nodes)
        dest = rng.choice(neighbors[src_index])
        time_us += rng.choice((0, 1, 1, 2, 3))
        out.append(Alert(labels[src_index], dest, time_us, rng.choice(_SID_POOL), seq=i))
    return out


def build_store(alerts: Iterable[Alert]) -> AlertStore:
    """Fresh store fed the alerts in order through the streaming inserter."""
    store = AlertStore()
    for alert in alerts:
        insert_alert(store, alert)
    return store


def build_store_with_reinsertion(alerts: Sequence[Alert], withheld: int) -> AlertStore:
    """Insert all but ``alerts[withheld]`` chronologically, then reinsert it.

    The withheld alert keeps its original ordinal, so it lands at its
    proper (time, seq) position in the total order.
    """
    store = AlertStore()
    for i, alert in enumerate(alerts):
        if i != withheld:
            insert_alert(store, alert)
    reinsert_alert(store, alerts[withheld])
    return store


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def brute_force_paths(alerts: Sequence[Alert]) -> set[tuple[str, ...]]:
    """Every simple, chronologically feasible vertex sequence (length >= 2).

    Feasibility is decided by exhaustive backtracking over per-pair alert
    keys, not the greedy production check. Growth is depth-first from each
    vertex; a prefix that fails feasibility cannot gain it by extension
    (any feasible selection restricts to a feasible prefix selection), so
    pruning on prefixes loses nothing.
    """
    if len(alerts) > ORACLE_MAX_ALERTS:
        raise ValueError(f"oracle guard: {len(alerts)} alerts > {ORACLE_MAX_ALERTS}")
    vertices: set[str] = set()
    keys_by_pair: dict[tuple[str, str], list[OrderKey]] = {}
    for alert in alerts:
        vertices.add(alert.source)
        vertices.add(alert.destination)
        if alert.source != alert.destination:  # self-loops never form paths
            keys_by_pair.setdefault((alert.source, alert.destination), []).append(
                alert.key
            )
    if len(vertices) > ORACLE_MAX_NODES:
        raise ValueError(f"oracle guard: {len(vertices)} nodes > {ORACLE_MAX_NODES}")
    adjacency: dict[str, list[str]] = {}
    for source, dest in keys_by_pair:
        adjacency.setdefault(source, []).append(dest)

    found: set[tuple[str, ...]] = set()

    def grow(sequence: tuple[str, ...]) -> None:
        for dest in adjacency.get(sequence[-1], ()):
            if dest in sequence:
                continue
            candidate = sequence + (dest,)
            key_sets = [
                keys_by_pair[(candidate[i], candidate[i + 1])]
                for i in range(len(candidate) - 1)
            ]
            if _selection_exists(key_sets, 0, None):
                found.add(candidate)
                grow(candidate)

    for vertex in vertices:
        grow((vertex,))
    return found


def _selection_exists(
    key_sets: list[list[OrderKey]], index: int, prev: OrderKey | None
) -> bool:
    """Try every strictly increasing choice, one key per set."""
    if index == len(key_sets):
        return True
    return any(
        _selection_exists(key_sets, index + 1, key)
        for key in key_sets[index]
        if prev is None or key > prev
    )


# ---------------------------------------------------------------------------
# growth laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ComplexityReport:
    """Observed growth of a chain and each way it misses the closed forms."""

    endpoints: int
    paths: int
    total_occurrences: int
    failures: tuple[str, ...] = field(default=())

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_complexity_tables(arc_count: int) -> ComplexityReport:
    """Build a chain and check its growth against the closed forms.

    A chain of E alerts must store E(E+1)/2 paths; the i-th endpoint pair
    must appear in i*(E-i+1) of them, E(E+1)(E+2)/6 occurrences in total.
    E is at most 400 (80,200 paths), because the store's memory grows
    about as E cubed; a longer chain raises `ValueError` before anything
    is built.
    """
    if not 1 <= arc_count <= MAX_CHAIN_ARCS:
        raise ValueError(
            f"chain length must be positive and at most {MAX_CHAIN_ARCS}, got {arc_count}"
        )
    store = build_store(generate_chain(arc_count))
    stats = store.stats()
    failures: list[str] = []

    expected_paths = arc_count * (arc_count + 1) // 2
    if stats.path_count != expected_paths:
        failures.append(
            f"path count {stats.path_count} != expected {expected_paths}"
        )
    if stats.endpoint_count != arc_count:
        failures.append(
            f"endpoint count {stats.endpoint_count} != expected {arc_count}"
        )

    per_pair = [0] * arc_count
    for path in store.paths():
        for pair in path.pairs:
            # pair i (1-indexed) joins v_i to v_{i+1}
            per_pair[int(pair.source[1:]) - 1] += 1
    total = 0
    for i, observed in enumerate(per_pair, start=1):
        expected = i * (arc_count - i + 1)
        total += observed
        if observed != expected:
            failures.append(
                f"pair {i} appears in {observed} paths, expected {expected}"
            )
    expected_total = arc_count * (arc_count + 1) * (arc_count + 2) // 6
    if total != expected_total:
        failures.append(f"total occurrences {total} != expected {expected_total}")

    return ComplexityReport(
        endpoints=stats.endpoint_count,
        paths=stats.path_count,
        total_occurrences=total,
        failures=tuple(failures),
    )

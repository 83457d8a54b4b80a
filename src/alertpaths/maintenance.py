"""Streaming updates: insert, reinsert, and score recomputation.

The inserter maintains the invariant that the store holds exactly the
acyclic, chronologically feasible vertex sequences over the alert graph,
each stored once. In-order alerts take the cheap route (`insert_alert`):
the new alert is the latest element of the (time, seq) order, so every
lengthened path is feasible by construction. Late alerts go through
`reinsert_alert`, which splices the new arc between stored prefix and
suffix paths and re-checks feasibility explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfOrderError, StoreError
from .model import Alert, OrderKey, PathRecord, is_chronologically_feasible
from .store import AlertStore


@dataclass(frozen=True, slots=True)
class InsertOutcome:
    """What one alert did to the store."""

    endpoints_created: int = 0
    paths_created: int = 0


def insert_alert(store: AlertStore, alert: Alert) -> InsertOutcome:
    """Fold the next alert of a chronological stream into the store.

    The alert must be the new stream head: its (time, seq) key must lie
    beyond every stored key. Anything else belongs to `reinsert_alert`.
    Self-loops annotate their endpoint record but never create or extend
    paths.
    """
    head = store.head
    if head is not None and alert.key <= head:
        raise OutOfOrderError(
            f"alert (time={alert.time_us}, seq={alert.seq}) is behind the "
            "stream head; use reinsert_alert"
        )
    _, created = store.upsert_endpoint(alert)
    source, dest = alert.source, alert.destination
    paths_created = 0
    if source != dest:
        if created:
            store.insert_path(PathRecord((source, dest)))
            paths_created += 1
        for candidate in store.find_paths_ending_at(source):
            if dest in candidate.vertices:  # would repeat a vertex
                continue
            vertices = candidate.vertices + (dest,)
            if store.has_path(vertices):  # lengthened copy already stored
                continue
            store.insert_path(PathRecord(vertices))
            paths_created += 1
    return InsertOutcome(int(created), paths_created)


def reinsert_alert(store: AlertStore, alert: Alert) -> InsertOutcome:
    """Fold a late alert into the store, preserving path completeness.

    Every path that is newly feasible because of this alert contains its
    arc exactly once, so it decomposes as prefix + (source, dest) + suffix
    where the prefix ends at the source, the suffix starts at the
    destination, both were already stored (or are empty), and the two are
    vertex-disjoint. The splice loop walks exactly those combinations, the
    bare endpoints standing in for an empty prefix or suffix. Suffixes are
    the outer loop, in stored order, so each candidate comes after the one
    that is its one-hop-shorter prefix, as `insert_path` requires.
    """
    source, dest = alert.source, alert.destination
    prefixes = [
        p for p in store.find_paths_ending_at(source) if dest not in p.vertices
    ]
    suffixes = [
        p for p in store.find_paths_starting_at(dest) if source not in p.vertices
    ]
    _, created = store.upsert_endpoint(alert)
    if source == dest:
        return InsertOutcome(int(created), 0)

    sorted_keys: dict[tuple[str, str], list[OrderKey]] = {}

    def keys_for(pair: tuple[str, str]) -> list[OrderKey]:
        cached = sorted_keys.get(pair)
        if cached is None:
            found = store.endpoint(pair)
            if found is None:
                raise StoreError(f"stored path references unknown pair {pair}")
            cached = sorted(a.key for a in found.alerts)
            sorted_keys[pair] = cached
        return cached

    lefts = [(left, set(left)) for left in [(source,), *(p.vertices for p in prefixes)]]
    paths_created = 0
    for right in [(dest,), *(p.vertices for p in suffixes)]:
        for left, members in lefts:
            vertices = left + right
            if not members.isdisjoint(right) or store.has_path(vertices):
                continue
            key_sets = [keys_for(pair) for pair in zip(vertices, vertices[1:])]
            if not is_chronologically_feasible(key_sets, presorted=True):
                continue
            store.insert_path(PathRecord(vertices))
            paths_created += 1
    return InsertOutcome(int(created), paths_created)


def recompute_threat_scores(store: AlertStore) -> tuple[int, int]:
    """Refresh every cached ETS and PTS; returns counts of changed records.

    A score is sqrt(distinct sids x alerts), as `threat_score` computes it.
    Each pair is reduced once to (alert count, sid bitmask); a path's value
    is its one-hop-shorter prefix's combined with its last pair's. Paths are
    visited in stored order, which puts every prefix first.
    """
    bits: dict[int, int] = {}
    arcs: dict[tuple[str, str], tuple[int, int]] = {}
    endpoints_updated = 0
    for record in store.endpoints():
        mask = 0
        for alert in record.alerts:
            bit = bits.get(alert.sid)
            if bit is None:
                bit = bits[alert.sid] = 1 << len(bits)
            mask |= bit
        count = len(record.alerts)
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

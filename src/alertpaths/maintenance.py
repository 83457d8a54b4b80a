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

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import OutOfOrderError, StoreError
from .model import (
    Alert,
    EndpointPair,
    OrderKey,
    PathRecord,
    is_chronologically_feasible,
    threat_score,
)
from .store import AlertStore


@dataclass(frozen=True, slots=True)
class InsertOutcome:
    """What one alert did to the store."""

    endpoints_created: int = 0
    paths_created: int = 0


def insert_alert(store: AlertStore, alert: Alert) -> InsertOutcome:
    """Fold the next alert of a chronological stream into the store.

    The alert must be the stream head: time no older than anything stored
    and seq strictly above the stored maximum. Anything else belongs to
    `reinsert_alert`. Self-loops annotate their endpoint record but never
    create or extend paths.
    """
    latest = store.latest_time_us
    if latest is not None and (
        alert.time_us < latest or alert.seq <= store.next_seq - 1
    ):
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
    vertex-disjoint. The splice loop walks exactly those combinations.
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

    candidates: list[tuple[str, ...]] = []
    if not store.has_path((source, dest)):
        candidates.append((source, dest))
    pre_options: list[PathRecord | None] = [*prefixes, None]
    post_options: list[PathRecord | None] = [*suffixes, None]
    for pre in pre_options:
        for post in post_options:
            if pre is None and post is None:
                continue
            if (
                pre is not None
                and post is not None
                and not set(pre.vertices).isdisjoint(post.vertices)
            ):
                continue
            left = pre.vertices if pre is not None else (source,)
            right = post.vertices if post is not None else (dest,)
            candidates.append(left + right)

    paths_created = 0
    for vertices in candidates:
        if store.has_path(vertices):
            continue
        key_sets = [keys_for(pair) for pair in zip(vertices, vertices[1:])]
        if not is_chronologically_feasible(key_sets, presorted=True):
            continue
        store.insert_path(PathRecord(vertices))
        paths_created += 1
    return InsertOutcome(int(created), paths_created)


def recompute_threat_scores(
    store: AlertStore,
    scorer: Callable[[Iterable[Alert]], float] = threat_score,
) -> tuple[int, int]:
    """Refresh every cached ETS and PTS; returns counts of changed records.

    Endpoint annotations are read once each and kept in a local cache for
    the path pass. Scoring is pluggable through ``scorer``, which receives
    the full alert collection being scored (a pair's alerts, or the union
    over a path's pairs).
    """
    arcs: dict[EndpointPair, list[Alert]] = {}
    endpoints_updated = 0
    for record in store.endpoints():
        arcs[record.pair] = record.alerts
        score = scorer(record.alerts)
        if score != record.ets:
            record.ets = score
            endpoints_updated += 1
    paths_updated = 0
    for path in store.paths():
        union: list[Alert] = []
        for pair in path.pairs:
            try:
                union.extend(arcs[pair])
            except KeyError:
                raise StoreError(
                    f"path {path.vertices} references pair {pair} "
                    "with no endpoint annotations"
                ) from None
        score = scorer(union)
        if score != path.pts:
            path.pts = score
            paths_updated += 1
    store.mark_scores_fresh()
    return endpoints_updated, paths_updated

"""Streaming updates: insert and reinsert.

The inserter maintains the invariant that the store holds exactly the
acyclic, chronologically feasible vertex sequences over the alert graph,
each stored once. In-order alerts take the cheap route (`insert_alert`):
the new alert is the latest element of the (time, seq) order, so every
lengthened path is feasible by construction. Late alerts go through
`reinsert_alert`. A late arc joins a stored prefix and suffix into a new
path only where no other alert on its pair could join them, so it picks
those prefixes and suffixes by their greedy keys, each computed by one walk
over the end's pairs, and joins them without checking any combination
against the store; beyond those walks, its work follows the paths it
creates. Neither scores anything: each mutation marks the store's cached
scores stale, and the store refreshes them when they are next read.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import OutOfOrderError
from .model import Alert, OrderKey, PathRecord
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
    """Fold a late alert into the store, creating only the paths it unlocks.

    A path that is newly feasible because of the alert, with key k on the
    pair (s, d), contains that arc once: it is L + R, where L is a stored
    path ending at s (or the bare ``(s,)``) and R a stored path starting at
    d (or ``(d,)``), the two vertex-disjoint. With k_prev and k_next the
    neighbouring old keys on (s, d), e(L) the greedy earliest-completion
    key of L and l(R) its mirror, the latest feasible start key of R, the
    combination is new exactly when k_prev < e(L) < k and k < l(R) < k_next:
    k is then the only key of (s, d) that fits between the two. A bare end
    qualifies when its neighbouring key does not exist. So every
    vertex-disjoint combination of qualifying ends is new, and none is
    checked against the store.

    Each end is first pruned in O(1) on the keys of the pair next to the
    arc, and suffixes are read only when some prefix qualifies. An end that
    passes the prune is walked once, hop by hop, over its pairs' sorted
    keys, which are read once per call.

    New paths are inserted in the order they are built, suffix by suffix,
    and each L + R still comes after its one-hop-shorter prefix
    L + R[:-1], as `insert_path` requires. Either R[:-1] is itself a
    qualifying suffix, and an earlier one: the suffixes start with the
    bare ``(d,)`` and then follow `find_paths_starting_at`'s prefix-first
    order. Or R[:-1] failed the window because l(R[:-1]) > k_next, so
    k_next already joins L to R[:-1] and that path is stored.
    """
    source, dest = alert.source, alert.destination
    _, created = store.upsert_endpoint(alert)
    if source == dest:
        return InsertOutcome(int(created), 0)

    sorted_keys: dict[tuple[str, ...], list[OrderKey]] = {}

    def keys_of(pair: tuple[str, ...]) -> list[OrderKey]:
        found = sorted_keys.get(pair)
        if found is None:  # insert_path stores no path without its pairs' records
            found = sorted_keys[pair] = sorted(a.key for a in store.endpoint(pair).alerts)
        return found

    # keys are unique across the store, so bisect_left and bisect_right agree in a walk
    def earliest_of(vertices: tuple[str, ...]) -> OrderKey:
        found = keys_of(vertices[:2])[0]
        for hop in range(1, len(vertices) - 1):
            keys = keys_of(vertices[hop : hop + 2])
            found = keys[bisect_right(keys, found)]
        return found

    key = alert.key
    pair_keys = keys_of(alert.pair)
    at = bisect_left(pair_keys, key)
    # k_prev < e(L) < k and k < l(R) < k_next hold strictly; an infinite
    # one-element tuple stands in for a missing neighbour
    lo = pair_keys[at - 1] if at else (-math.inf,)
    hi = pair_keys[at + 1] if at + 1 < len(pair_keys) else (math.inf,)

    lefts = [(source,)] if at == 0 else []
    for path in store.find_paths_ending_at(source):
        vertices = path.vertices
        keys = keys_of(vertices[-2:])
        if keys[-1] < lo or keys[0] > key:
            continue
        if lo < earliest_of(vertices) < key and dest not in vertices:
            lefts.append(vertices)
    if not lefts:
        return InsertOutcome(int(created), 0)

    def latest_of(vertices: tuple[str, ...]) -> OrderKey:
        found = keys_of(vertices[-2:])[-1]
        for hop in range(len(vertices) - 3, -1, -1):
            keys = keys_of(vertices[hop : hop + 2])
            found = keys[bisect_left(keys, found) - 1]
        return found

    rights = [(dest,)] if at + 1 == len(pair_keys) else []
    for path in store.find_paths_starting_at(dest):
        vertices = path.vertices
        keys = keys_of(vertices[:2])
        if keys[0] > hi or keys[-1] < key:
            continue
        if key < latest_of(vertices) < hi and source not in vertices:
            rights.append(vertices)

    members = [(left, set(left)) for left in lefts]
    paths_created = 0
    for right in rights:  # prefix-first, so each L + R comes after L + R[:-1]
        for left, vertex_set in members:
            if vertex_set.isdisjoint(right):
                store.insert_path(PathRecord(left + right))
                paths_created += 1
    return InsertOutcome(int(created), paths_created)

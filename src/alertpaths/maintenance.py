"""Streaming updates: insert and reinsert.

The inserter maintains the invariant that the store holds exactly the
acyclic, chronologically feasible vertex sequences over the alert graph,
each stored once. In-order alerts take the cheap route (`insert_alert`):
the new alert is the latest element of the (time, seq) order, so every
lengthened path is feasible by construction. Late alerts go through
`reinsert_alert`, which joins stored prefixes and suffixes picked by their
greedy keys, found by bisecting in place the keys each record keeps, and
checks no join against the store. Both store each new path under its
parent node with `AlertStore.extend`, never looking a path up by its
vertex tuple. Neither scores anything: each mutation marks the store's
cached scores stale, and the store refreshes them when they are next read.
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
        # the source's root first, so its one-hop path comes before the longer ones
        for parent in (store.root(source), *store.find_paths_ending_at(source)):
            # None when the lengthened copy is stored or would repeat a vertex
            if store.extend(parent, dest) is not None:
                paths_created += 1
    return InsertOutcome(int(created), paths_created)


def reinsert_alert(store: AlertStore, alert: Alert) -> InsertOutcome:
    """Fold a late alert into the store, creating only the paths it unlocks.

    A path that is newly feasible because of the alert, with key k on the
    pair (s, d), contains that arc once: it is L + R, where L is a stored
    path ending at s (or s's zero-hop root) and R a stored path starting at
    d (or ``(d,)``), the two vertex-disjoint. With k_prev and k_next the
    neighbouring old keys on (s, d), e(L) the greedy earliest-completion
    key of L and l(R) its mirror, the latest feasible start key of R, the
    combination is new exactly when k_prev < e(L) < k and k < l(R) < k_next:
    k is then the only key of (s, d) that fits between the two. A zero-hop
    end qualifies when its neighbouring key does not exist. So every
    vertex-disjoint combination of qualifying ends is new, and none is
    checked against the store.

    Every pair is read in place, from the keys its record keeps. Each end is
    pruned in O(1) on the keys of the pair next to the arc, suffixes are read
    only when some prefix qualifies, and an end that passes is walked once.

    New paths are stored in the order they are built, suffix by suffix,
    by `AlertStore.splice`, which reaches L + R[:-1] from L's trie node, a
    stored path or the root, by R's vertices and stores L + R under it. So
    each L + R must come after L + R[:-1], and it does. Either R[:-1] is
    itself a qualifying suffix, and an earlier one: the suffixes start with
    the zero-hop ``(d,)`` and then follow `find_paths_starting_at`'s
    prefix-first order. Or R[:-1] failed the window because
    l(R[:-1]) > k_next, so k_next already joins L to R[:-1] and that path
    is stored.
    """
    source, dest = alert.source, alert.destination
    record, created = store.upsert_endpoint(alert)
    if source == dest:
        return InsertOutcome(int(created), 0)
    endpoint = store.endpoint  # the store holds no path without its pairs' records

    # keys are unique across the store, so bisect_left and bisect_right agree in a walk
    def earliest_of(vertices: tuple[str, ...]) -> OrderKey:
        found = endpoint(vertices[:2]).keys[0]
        for hop in range(1, len(vertices) - 1):
            keys = endpoint(vertices[hop : hop + 2]).keys
            found = keys[bisect_right(keys, found)]
        return found

    key = alert.key
    at = bisect_left(record.keys, key)
    # k_prev < e(L) < k and k < l(R) < k_next hold strictly; an infinite
    # one-element tuple stands in for a missing neighbour
    lo = record.keys[at - 1] if at else (-math.inf,)
    hi = record.keys[at + 1] if at + 1 < len(record.keys) else (math.inf,)

    # each prefix is a trie node, a stored path or the source's root, with its vertex set
    lefts: list[tuple[PathRecord, set[str]]] = [(store.root(source), {source})] if at == 0 else []
    for path in store.find_paths_ending_at(source):
        vertices = path.vertices
        keys = endpoint(vertices[-2:]).keys
        if keys[-1] < lo or keys[0] > key:
            continue
        if lo < earliest_of(vertices) < key and dest not in vertices:
            lefts.append((path, set(vertices)))
    if not lefts:
        return InsertOutcome(int(created), 0)

    def latest_of(vertices: tuple[str, ...]) -> OrderKey:
        found = endpoint(vertices[-2:]).keys[-1]
        for hop in range(len(vertices) - 3, -1, -1):
            keys = endpoint(vertices[hop : hop + 2]).keys
            found = keys[bisect_left(keys, found) - 1]
        return found

    rights = [(dest,)] if at + 1 == len(record.keys) else []
    for path in store.find_paths_starting_at(dest):
        vertices = path.vertices
        keys = endpoint(vertices[:2]).keys
        if keys[0] > hi or keys[-1] < key:
            continue
        if key < latest_of(vertices) < hi and source not in vertices:
            rights.append(vertices)

    paths_created = 0
    for right in rights:  # prefix-first, so each L + R comes after L + R[:-1]
        for left, vertex_set in lefts:
            if vertex_set.isdisjoint(right):
                store.splice(left, right)
                paths_created += 1
    return InsertOutcome(int(created), paths_created)

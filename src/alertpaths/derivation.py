"""Alert paths derived from the alert log alone, without a store.

The store holds exactly the paths that a depth-first search over the alert
log derives. A forward search from a root takes each arc out of it at the
arc's earliest key, then extends the path by an arc to a vertex not yet on
it, at that arc's earliest key later than the path's greedy key, which is
the earliest-arrival ("foremost") time of temporal paths. The backward
search is its mirror: it starts at a target and walks arcs in reverse at
their latest keys, each earlier than the one before. The search shares no
code with `insert_alert` or `reinsert_alert`, so it also serves as an
oracle for them.

`AlertLog` holds one log and answers by these searches the lookups that
`store.PathReader`, the store's read interface, is written over. So a
reader that needs a few roots never builds the path set, and one that
needs every path holds only the path being walked.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from pathlib import Path
from typing import Iterable, Iterator

from .errors import StoreError
from .model import Alert, Direction, EndpointPair, EndpointRecord, PathRecord, alert_key
from .store import PathReader, read_snapshot, reduce_pairs

# One arc as a search takes it: the vertex it reaches, its keys in the
# order the search takes them, its alert count and its sid mask.
_Step = tuple[str, list[int], int, int]


class AlertLog(PathReader):
    """A read-only alert log with the store's read interface.

    Built from alerts with unique ordinals. Each alert's (time, seq) key is
    replaced by its rank, which keeps the order. Per pair it keeps an
    `EndpointRecord`, alerts in rank order, with its ETS and, for each
    direction, the arc's ranks and the (alert count, sid mask) sums that
    give PTS. `store.reduce_pairs` computes those sums for
    `recompute_threat_scores` too, so every score is bit-equal to the
    store's.
    The lookups that return paths derive them on each call; scores are
    computed as they are derived, so they are never stale.
    """

    def __init__(self, alerts: Iterable[Alert]) -> None:
        ordered = sorted(alerts, key=alert_key)
        if len({alert.seq for alert in ordered}) != len(ordered):
            raise StoreError("ingestion ordinals must be unique")
        by_pair: dict[tuple[str, str], tuple[list[Alert], list[int]]] = {}
        for rank, alert in enumerate(ordered):
            pair = (alert.source, alert.destination)
            found = by_pair.get(pair)
            if found is None:
                found = by_pair[pair] = ([], [])
            found[0].append(alert)
            found[1].append(rank)
        self._endpoints: dict[EndpointPair, EndpointRecord] = {}
        forward: dict[str, list[_Step]] = {}
        backward: dict[str, list[_Step]] = {}
        records = (
            EndpointRecord(EndpointPair(*pair), alerts) for pair, (alerts, _) in by_pair.items()
        )
        for record, count, mask in reduce_pairs(records):
            record.ets = math.sqrt(mask.bit_count() * count)
            self._endpoints[record.pair] = record
            source, dest = record.pair
            if source == dest:  # self-loops never form paths
                continue
            keys = by_pair[record.pair][1]
            forward.setdefault(source, []).append((dest, keys, count, mask))
            # negated ranks in ascending order: the latest key comes first and
            # "the latest key before k" is "the first negated key after -k"
            latest_first = [-rank for rank in reversed(keys)]
            backward.setdefault(dest, []).append((source, latest_first, count, mask))
        self._steps = {"forward": forward, "backward": backward}

    @classmethod
    def read(cls, source: str | Path) -> AlertLog:
        """The log of a snapshot file, checked as `AlertStore.load` checks it."""
        return cls(read_snapshot(source))

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------

    def walk(
        self, root: str, direction: Direction = "forward"
    ) -> Iterator[tuple[tuple[str, ...], float]]:
        """Every path from (forward) or to (backward) ``root``, with its PTS.

        Yields ``(sequence, pts)`` in preorder, each path after its
        one-hop-shorter prefix. A sequence starts at ``root``, so a
        backward one lists the path's vertices in reverse. Memory is
        bounded by the path depth, not by the number of paths.
        """
        steps = self._steps[direction]
        sqrt = math.sqrt
        for first, keys, count, mask in steps.get(root, ()):
            sequence = [root, first]
            on_path = {root, first}
            yield (root, first), sqrt(mask.bit_count() * count)
            # one frame per vertex after the root: its untried steps, and the
            # greedy key and (count, mask) sums of the path that ends at it;
            # a one-hop path's greedy key is its arc's first key
            stack = [(iter(steps.get(first, ())), keys[0], count, mask)]
            while stack:
                untried, key, count, mask = stack[-1]
                for vertex, keys, arc_count, arc_mask in untried:
                    if vertex in on_path:
                        continue
                    at = bisect_right(keys, key)
                    if at == len(keys):
                        continue  # no key on this arc after the path's
                    sequence.append(vertex)
                    on_path.add(vertex)
                    path_count, path_mask = count + arc_count, mask | arc_mask
                    yield tuple(sequence), sqrt(path_mask.bit_count() * path_count)
                    stack.append((iter(steps.get(vertex, ())), keys[at], path_count, path_mask))
                    break
                else:
                    stack.pop()
                    on_path.discard(sequence.pop())

    # ------------------------------------------------------------------
    # the lookups the read interface is written over
    # ------------------------------------------------------------------

    def paths(self) -> Iterator[PathRecord]:
        """Every path, derived root by root; each after its prefix."""
        for root in self._steps["forward"]:
            for vertices, pts in self.walk(root):
                yield PathRecord(vertices, pts)

    def find_paths_starting_at(self, vertex: str) -> list[PathRecord]:
        return [PathRecord(vertices, pts) for vertices, pts in self.walk(vertex)]

    def find_paths_ending_at(self, vertex: str) -> list[PathRecord]:
        return [PathRecord(reverse[::-1], pts) for reverse, pts in self.walk(vertex, "backward")]

    def _path_count(self) -> int:
        """Counted by one walk from every root."""
        return sum(1 for root in self._steps["forward"] for _ in self.walk(root))

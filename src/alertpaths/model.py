"""Domain types and the pure math the rest of the engine is built on.

Everything here is side-effect free: threat scoring, the chronological
feasibility check for alert paths, and the black-to-red color scale used
when alert trees are rendered. The mutable record types that the store
hands out live here too, so the store, maintenance, and query layers share
one vocabulary.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Iterable, Literal, NamedTuple, Sequence

# An alert's position in the stream: (epoch microseconds, ingestion ordinal).
# The ordinal is unique per store, so these keys form a strict total order.
OrderKey = tuple[int, int]
alert_key: Callable[[Any], OrderKey] = attrgetter("time_us", "seq")  # also `Alert.key`
# Which way an alert tree or a derivation walk reads paths from its root.
Direction = Literal["forward", "backward"]


class EndpointPair(NamedTuple):
    """Ordered (source, destination) pair; (a, b) and (b, a) are distinct."""

    source: str
    destination: str


@dataclass(frozen=True, slots=True)
class Alert:
    """One IDS detection event.

    ``seq`` is the ingestion ordinal assigned by the ingest layer; parsers
    leave it at 0 and the stream loop fills it in before insertion. Every
    construction, by parsers, `load` or library code, enforces the field
    rule: endpoints are non-empty strings and ``time_us``, ``sid`` and
    ``seq`` exactly ``int``, so not bools; anything else raises `ValueError`.
    """

    source: str
    destination: str
    time_us: int
    sid: int
    seq: int = 0

    def __post_init__(self) -> None:
        if not (
            isinstance(self.source, str) and self.source
            and isinstance(self.destination, str) and self.destination
            # exactly int: bool subclasses int, and JSON true and false load as bool
            and type(self.time_us) is int and type(self.sid) is int and type(self.seq) is int
        ):
            raise ValueError(
                "an alert needs non-empty string endpoints and integer time_us, sid "
                f"and seq, got {self!r}"
            )

    @property
    def pair(self) -> EndpointPair:
        return EndpointPair(self.source, self.destination)

    key = property(alert_key, doc="The alert's (time_us, seq) `OrderKey`.")


@dataclass(slots=True)
class EndpointRecord:
    """A communicating pair plus every alert observed on it, kept in strictly
    increasing (time, seq) order, and ``keys``, those alerts' keys in the same
    order, filled on construction, so a reader bisects a pair in place.

    ``ets`` is a cached score. The store's readers refresh it when a
    mutation has made it stale; code that reads ``AlertStore.endpoints()``
    directly calls ``recompute_threat_scores`` first.
    """

    pair: EndpointPair
    alerts: list[Alert] = field(default_factory=list)
    ets: float = 0.0
    keys: list[OrderKey] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.keys = list(map(alert_key, self.alerts))


@dataclass(slots=True)
class PathRecord:
    """An acyclic, chronologically feasible walk through the alert graph.

    A plain record: `AlertStore.insert_path` admits only simple paths of a
    hop or more. ``pts`` is a cached score that the store's readers refresh;
    code reading ``AlertStore.paths()`` calls ``recompute_threat_scores`` first.
    """

    vertices: tuple[str, ...]
    pts: float = 0.0

    @property
    def origin(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def pairs(self) -> tuple[EndpointPair, ...]:
        """Consecutive endpoint pairs, pairs[i] = (vertices[i], vertices[i+1])."""
        v = self.vertices
        return tuple(EndpointPair(v[i], v[i + 1]) for i in range(len(v) - 1))


@dataclass(slots=True)
class TreeNode:
    """One node of an alert tree.

    ``ets`` scores the arc joining this node to its parent and is None at
    the root, which has no incoming arc.
    """

    label: str
    ets: float | None = None
    color: int = 0x000000
    children: list["TreeNode"] = field(default_factory=list)


@dataclass(slots=True)
class AlertTree:
    """A trie of stored paths sharing an origin (forward) or target (backward)."""

    root: TreeNode
    direction: Direction

    def nodes(self) -> list[TreeNode]:
        """All nodes in preorder, root first."""
        out: list[TreeNode] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.children))
        return out


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def threat_score(alerts: Iterable[Alert]) -> float:
    """Square root of (distinct signature count x total alert count).

    Grows with both the variety and the volume of alerts; an empty
    collection scores 0.0 so that scores stay defined everywhere.
    """
    total = 0
    sids: set[int] = set()
    for alert in alerts:
        total += 1
        sids.add(alert.sid)
    if total == 0:
        return 0.0
    return math.sqrt(len(sids) * total)


# ---------------------------------------------------------------------------
# chronological feasibility
# ---------------------------------------------------------------------------


def is_chronologically_feasible(
    key_sets: Sequence[Iterable[Any]], *, presorted: bool = False
) -> bool:
    """Whether one key can be chosen from each set in strictly increasing order.

    Greedy earliest-choice is exact here: keys are drawn from a strict total
    order, and taking the smallest admissible key never rules out a
    completion that a larger choice would have allowed. Pass
    ``presorted=True`` only with already-sorted sequences.
    """
    if len(key_sets) == 0:
        raise ValueError("feasibility is undefined for an empty pair sequence")
    prev: Any = None
    for keys in key_sets:
        ordered = keys if presorted else sorted(keys)
        if len(ordered) == 0:  # type: ignore[arg-type]
            raise ValueError("feasibility is undefined for an empty key set")
        idx = 0 if prev is None else bisect_right(ordered, prev)
        if idx >= len(ordered):  # type: ignore[arg-type]
            return False
        prev = ordered[idx]
    return True


# ---------------------------------------------------------------------------
# color scale
# ---------------------------------------------------------------------------


def normalize_color(ets: float, max_ets: float) -> int:
    """Map a score onto the 24-bit black-to-red scale.

    The red channel is floor((ets - 1) / (max_ets - 1) * 255); green and
    blue stay 0. A score of 1 maps to black, the maximum to pure red. When
    every score is 1 the scale collapses and everything is black.
    """
    if ets < 1:
        raise ValueError(f"score {ets} below the minimum of 1")
    if ets > max_ets:
        raise ValueError(f"score {ets} exceeds the stated maximum {max_ets}")
    if max_ets <= 1:
        return 0x000000
    red = math.floor((ets - 1.0) / (max_ets - 1.0) * 255.0)
    return red << 16

"""Correctness checks run after the timed section; none of them is timed.

``exactness`` proves, without the brute-force oracle, that a store holds
exactly the simple, chronologically feasible paths of its own alerts:

* every stored path is simple and feasible;
* every observed arc is a stored 1-hop path;
* for every stored path P and observed arc (P[-1], v) with v not in P,
  P + (v,) is stored iff it is feasible.

A feasible path's prefix is feasible, so by induction on length every
feasible simple path is stored, and the first bullet says nothing else is.
Prefix and suffix closure follow, and are checked as well.
"""

from __future__ import annotations

from collections import Counter

from alertpaths import Alert, AlertStore, insert_alert, is_chronologically_feasible

from feeds import Raw

_MAX_REPORTED = 10


def exactness(store: AlertStore) -> list[str]:
    failures: list[str] = []
    keys: dict[tuple[str, str], list[tuple[int, int]]] = {}
    out_arcs: dict[str, list[str]] = {}
    for record in store.endpoints():
        source, dest = record.pair
        keys[(source, dest)] = sorted(alert.key for alert in record.alerts)
        if source != dest:
            out_arcs.setdefault(source, []).append(dest)
    stored = {path.vertices for path in store.paths()}

    def fail(message: str) -> None:
        failures.append(message)

    for source, targets in out_arcs.items():
        for dest in targets:
            if (source, dest) not in stored:
                fail(f"observed arc {source}->{dest} is not a stored path")
    for vertices in stored:
        if len(failures) >= _MAX_REPORTED:
            break
        if len(vertices) < 2 or len(set(vertices)) != len(vertices):
            fail(f"stored path {vertices} is not a simple path of >= 1 hop")
            continue
        pairs = list(zip(vertices, vertices[1:]))
        if any(pair not in keys for pair in pairs):
            fail(f"stored path {vertices} uses an arc with no alerts")
            continue
        key_sets = [keys[pair] for pair in pairs]
        if not is_chronologically_feasible(key_sets, presorted=True):
            fail(f"stored path {vertices} is not chronologically feasible")
        if len(vertices) > 2 and (vertices[:-1] not in stored or vertices[1:] not in stored):
            fail(f"stored path {vertices} lacks its prefix or suffix")
        members = set(vertices)
        last = vertices[-1]
        for dest in out_arcs.get(last, ()):
            if dest in members:
                continue
            feasible = is_chronologically_feasible(
                key_sets + [keys[(last, dest)]], presorted=True
            )
            if feasible != ((*vertices, dest) in stored):
                state = "feasible but missing" if feasible else "infeasible but stored"
                fail(f"extension {vertices}+{dest} is {state}")
    return failures[:_MAX_REPORTED]


def holds_alerts(store: AlertStore, alerts: list[Raw]) -> list[str]:
    """The store's per-pair alerts are exactly the alerts fed to it."""
    seen = Counter(
        (a.source, a.destination, a.time_us, a.sid)
        for record in store.endpoints()
        for a in record.alerts
    )
    if seen != Counter(alerts):
        missing = sum((Counter(alerts) - seen).values())
        extra = sum((seen - Counter(alerts)).values())
        return [f"store alerts differ from the feed: {missing} missing, {extra} unexpected"]
    return []


def sorted_replay(store: AlertStore, arrivals: list[Raw]) -> list[str]:
    """The store equals one built from the same alerts in (time, seq) order.

    The engine gave each alert its arrival index as ``seq``. ``insert_alert``
    checks ``time`` and ``seq`` against the stream head separately rather
    than the ``(time, seq)`` key as a whole, so replaying these keys in key
    order raises ``OutOfOrderError`` at the first late alert. The reference
    therefore relabels ``seq`` by rank in key order, which keeps the order
    and so the feasible paths unchanged.
    """
    order = sorted(range(len(arrivals)), key=lambda i: (arrivals[i][2], i))
    reference = AlertStore()
    for rank, i in enumerate(order):
        source, dest, time_us, sid = arrivals[i]
        insert_alert(reference, Alert(source, dest, time_us, sid, seq=rank))
    failures: list[str] = []
    ours = {path.vertices for path in store.paths()}
    theirs = {path.vertices for path in reference.paths()}
    if ours != theirs:
        failures.append(
            f"path sets differ from the sorted replay: {len(ours - theirs)} extra, "
            f"{len(theirs - ours)} missing"
        )
    if _pair_alerts(store) != _pair_alerts(reference):
        failures.append("per-pair alert multisets differ from the sorted replay")
    return failures


def _pair_alerts(store: AlertStore) -> dict:
    return {
        record.pair: Counter((a.time_us, a.sid) for a in record.alerts)
        for record in store.endpoints()
    }


def tree_chains(tree) -> set[tuple[str, ...]]:
    """Root-to-node label sequences of a tree, as the paths it stands for."""
    out: set[tuple[str, ...]] = set()
    stack = [((tree.root.label,), tree.root)]
    while stack:
        prefix, node = stack.pop()
        if len(prefix) >= 2:
            out.add(prefix)
        for child in node.children:
            stack.append((prefix + (child.label,), child))
    return out

"""The derivation over the alert log: the second oracle for the streaming store.

The forward and backward searches share no code with `insert_alert` or
`reinsert_alert`. They must derive exactly the brute-force oracle's paths on
small instances, and exactly the streaming store's paths, with bit-equal
PTS, at full scale.
"""

from __future__ import annotations

import pytest

from alertpaths.bench import (
    brute_force_paths,
    build_store,
    generate_chain,
    generate_fanout_stream,
)
from alertpaths.derivation import AlertLog
from alertpaths.errors import StoreError
from alertpaths.ingest import ingest_stream
from alertpaths.model import threat_score
from alertpaths.query import build_backward_tree, build_forward_tree
from alertpaths.render import tree_to_dot, tree_to_structured
from alertpaths.store import AlertStore, recompute_threat_scores

from conftest import mk_alert
from test_acceptance import delay, instance


def assert_derives(log: AlertLog, expected: dict[tuple[str, ...], float]) -> None:
    """The walks from every vertex, both ways, derive exactly ``expected``'s
    paths with its PTS, each once and in sorted order, which is a preorder.
    Checked path by path, so no second copy of the path set is held."""
    vertices = sorted({vertex for record in log.endpoints() for vertex in record.pair})
    for direction in ("forward", "backward"):
        remaining = dict(expected)
        for root in vertices:
            previous: tuple[str, ...] = (root,)
            for sequence, pts in log.walk(root, direction):
                # in preorder a path's prefix is the last path yielded or a prefix of it
                assert previous[: len(sequence) - 1] == sequence[:-1], (direction, sequence)
                assert previous < sequence, (direction, sequence)
                previous = sequence
                path = sequence if direction == "forward" else sequence[::-1]
                assert remaining.pop(path, None) == pts, (direction, path)
        assert not remaining, (direction, len(remaining))


def test_walks_equal_the_oracle_on_the_criterion_4_instances():
    for seed in range(100):
        alerts = instance(seed)
        expected = {}
        for path in brute_force_paths(alerts):
            pairs = set(zip(path, path[1:]))
            expected[path] = threat_score(a for a in alerts if (a.source, a.destination) in pairs)
        assert_derives(AlertLog(alerts), expected)


def late_auto_store() -> tuple[list, AlertStore]:
    """The 2%-late fan-out feed folded in ``auto`` mode, and its alerts with
    the ordinals the fold gave them."""
    alerts = delay(generate_fanout_stream(1500, 10_000, 3, seed=8), 0.02, 300, seed=8)
    store = AlertStore()
    lines = [f"{a.source},{a.destination},{a.time_us},{a.sid}" for a in alerts]
    assert ingest_stream(store, lines, fmt="csv", mode="auto").reinserted == 200
    numbered = [alert for record in store.endpoints() for alert in record.alerts]
    return numbered, store


@pytest.mark.parametrize("feed", ["fanout", "chain400", "late-auto"])
def test_walks_equal_the_streaming_store_at_scale(feed):
    if feed == "fanout":
        alerts = generate_fanout_stream(1500, 10_000, 3, seed=8)
        store = build_store(alerts)
    elif feed == "chain400":
        alerts = generate_chain(400)
        store = build_store(alerts)
    else:
        alerts, store = late_auto_store()
    recompute_threat_scores(store)
    expected = {path.vertices: path.pts for path in store.paths()}
    del store
    assert_derives(AlertLog(alerts), expected)


def test_log_reads_like_the_replayed_store(tmp_path):
    alerts = instance(7) + [mk_alert("v1", "v1", 5_000_000_000)]  # a self-loop too
    store = build_store(alerts)
    log = AlertLog(reversed(alerts))  # order of arrival does not matter
    assert log.stats() == store.stats()
    recompute_threat_scores(store)
    for record in store.endpoints():
        mirrored = log.endpoint(record.pair)
        assert (mirrored.alerts, mirrored.ets) == (record.alerts, record.ets)
    assert log.top_endpoints_by_ets(100)[0] == store.top_endpoints_by_ets(100)[0]
    top = [(p.vertices, p.pts) for p in log.top_paths_by_pts(7)[0]]
    assert top == [(p.vertices, p.pts) for p in store.top_paths_by_pts(7)[0]]
    store.snapshot(tmp_path / "store.jsonl")
    log.snapshot(tmp_path / "log.jsonl")
    assert (tmp_path / "log.jsonl").read_bytes() == (tmp_path / "store.jsonl").read_bytes()
    assert AlertLog.read(tmp_path / "log.jsonl").stats() == store.stats()
    # the log's depth-first walks and the store's sorted ones build the same trees
    for root in sorted({vertex for record in store.endpoints() for vertex in record.pair}):
        for build in (build_forward_tree, build_backward_tree):
            tree, mirrored = build(store, root), build(log, root)
            assert tree_to_structured(mirrored) == tree_to_structured(tree), (root, build)
            assert tree_to_dot(mirrored) == tree_to_dot(tree), (root, build)


def test_log_refuses_a_reused_ordinal():
    with pytest.raises(StoreError, match="unique"):
        AlertLog([mk_alert("a", "b", 1, seq=0), mk_alert("b", "c", 2, seq=0)])

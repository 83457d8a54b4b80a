"""Workload generators, the oracle itself, and the growth laws."""

from __future__ import annotations

import pytest

from alertpaths import bench
from alertpaths.bench import (
    ORACLE_MAX_ALERTS,
    ORACLE_MAX_NODES,
    brute_force_paths,
    build_store,
    generate_chain,
    generate_fanout_stream,
    generate_random,
    verify_complexity_tables,
)

from conftest import DATA_DIR, mk_alert


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_chain_shape():
    alerts = generate_chain(4)
    assert [(a.source, a.destination) for a in alerts] == [
        ("v1", "v2"),
        ("v2", "v3"),
        ("v3", "v4"),
        ("v4", "v5"),
    ]
    times = [a.time_us for a in alerts]
    assert times == sorted(times) and len(set(times)) == 4
    assert len({a.sid for a in alerts}) == 4
    assert [a.seq for a in alerts] == [0, 1, 2, 3]


def test_chain_rejects_negative_length():
    with pytest.raises(ValueError):
        generate_chain(-1)


def test_random_stream_is_deterministic_per_seed():
    assert generate_random(5, 20, seed=3) == generate_random(5, 20, seed=3)
    assert generate_random(5, 20, seed=3) != generate_random(5, 20, seed=4)


def test_random_stream_shape():
    alerts = generate_random(5, 40, seed=1)
    labels = {f"v{i}" for i in range(1, 6)}
    for alert in alerts:
        assert alert.source in labels and alert.destination in labels
        assert alert.source != alert.destination
    times = [a.time_us for a in alerts]
    assert times == sorted(times)
    assert len(set(times)) < len(times)  # occasional ties
    with pytest.raises(ValueError, match="at least 2 nodes"):
        generate_random(1, 5, seed=1)
    with pytest.raises(ValueError, match="non-negative"):
        generate_random(5, -1, seed=1)


def test_random_stream_regression_fixture():
    expected = (DATA_DIR / "random_seed7.csv").read_text().splitlines()
    got = [
        f"{a.source},{a.destination},{a.time_us},{a.sid}"
        for a in generate_random(5, 12, seed=7)
    ]
    assert got == expected


def test_fanout_stream_bounds_out_degree():
    alerts = generate_fanout_stream(30, 400, 3, seed=2)
    out_neighbors: dict[str, set[str]] = {}
    for alert in alerts:
        assert alert.source != alert.destination
        out_neighbors.setdefault(alert.source, set()).add(alert.destination)
    assert max(len(v) for v in out_neighbors.values()) <= 3
    with pytest.raises(ValueError, match="at least 2 nodes"):
        generate_fanout_stream(1, 10, 3, seed=2)
    with pytest.raises(ValueError, match="fan-out must be positive"):
        generate_fanout_stream(30, 10, 0, seed=2)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_chain_is_all_contiguous_subchains():
    assert brute_force_paths(generate_chain(3)) == {
        ("v1", "v2"),
        ("v2", "v3"),
        ("v3", "v4"),
        ("v1", "v2", "v3"),
        ("v2", "v3", "v4"),
        ("v1", "v2", "v3", "v4"),
    }


def test_oracle_rejects_infeasible_orderings():
    # (v2, v3) happens before (v1, v2); the long path must not appear
    alerts = [mk_alert("v2", "v3", 1, seq=0), mk_alert("v1", "v2", 2, seq=1)]
    assert brute_force_paths(alerts) == {("v1", "v2"), ("v2", "v3")}


def test_oracle_ignores_self_loops():
    alerts = [mk_alert("v1", "v1", 1, seq=0), mk_alert("v1", "v2", 2, seq=1)]
    assert brute_force_paths(alerts) == {("v1", "v2")}


def test_oracle_uses_every_selection_not_just_greedy_order():
    # arcs: (a,b) at {5}, (b,c) at {1, 9}: selection 5 < 9 exists
    alerts = [
        mk_alert("b", "c", 1, seq=0),
        mk_alert("a", "b", 5, seq=1),
        mk_alert("b", "c", 9, seq=2),
    ]
    assert ("a", "b", "c") in brute_force_paths(alerts)


def test_oracle_guard_limits():
    too_many_alerts = generate_chain(ORACLE_MAX_ALERTS + 1)
    with pytest.raises(ValueError):
        brute_force_paths(too_many_alerts)
    wide = [
        mk_alert(f"n{i}", f"n{i + 1}", i + 1, seq=i)
        for i in range(ORACLE_MAX_NODES)  # ORACLE_MAX_NODES + 1 vertices
    ]
    with pytest.raises(ValueError):
        brute_force_paths(wide)


def test_oracle_agrees_with_feasibility_dense_instance():
    alerts = generate_random(4, 25, seed=99)
    stored = {p.vertices for p in build_store(alerts).paths()}
    assert brute_force_paths(alerts) == stored


# ---------------------------------------------------------------------------
# growth laws
# ---------------------------------------------------------------------------


def test_complexity_tables_small_values():
    # chain growth: 1, 3, 6, 10 paths for 1..4 alerts
    for arcs, expected in ((1, 1), (2, 3), (3, 6), (4, 10)):
        report = verify_complexity_tables(arcs)
        assert report.ok, report.failures
        assert report.paths == expected


def test_complexity_occurrence_law_midpair():
    report = verify_complexity_tables(5)
    assert report.ok
    # pair 3 of 5 sits in 3 * (5 - 3 + 1) = 9 paths; total is 5*6*7/6
    assert report.total_occurrences == 35


def test_complexity_tables_reject_bad_input():
    with pytest.raises(ValueError):
        verify_complexity_tables(0)
    with pytest.raises(ValueError, match="at most 400"):
        verify_complexity_tables(401)


def test_complexity_tables_across_small_range():
    for arcs in range(1, 12):
        assert verify_complexity_tables(arcs).ok


def test_complexity_tables_name_each_miss(monkeypatch):
    # a chain one arc short misses every closed form at E = 3
    monkeypatch.setattr(bench, "generate_chain", lambda n: generate_chain(n - 1))
    report = verify_complexity_tables(3)
    assert not report.ok
    assert report.failures == (
        "path count 3 != expected 6",
        "endpoint count 2 != expected 3",
        "pair 1 appears in 2 paths, expected 3",
        "pair 2 appears in 2 paths, expected 4",
        "pair 3 appears in 0 paths, expected 3",
        "total occurrences 4 != expected 10",
    )

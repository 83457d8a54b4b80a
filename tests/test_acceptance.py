"""Acceptance gate: every shipped capability checked end to end.

Each test covers one criterion and prints a single pass/fail line (visible
under ``pytest -s``); tolerances and budgets are asserted inline.
"""

from __future__ import annotations

import contextlib
import random
import time

from alertpaths.bench import (
    brute_force_paths,
    build_store,
    build_store_with_reinsertion,
    generate_chain,
    generate_fanout_stream,
    generate_random,
)
from alertpaths.ingest import ingest_stream
from alertpaths.maintenance import insert_alert
from alertpaths.model import EndpointPair, EndpointRecord, normalize_color, threat_score
from alertpaths.query import build_backward_tree, build_forward_tree
from alertpaths.render import tree_to_dot
from alertpaths.store import AlertStore, recompute_threat_scores

from conftest import assert_prefix_first, canonical_state, mk_alert


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException as exc:
        print(f"criterion {number}: FAIL {description} ({exc})")
        raise
    print(f"criterion {number}: PASS {description}")


def tree_chains(tree) -> set[tuple[str, ...]]:
    out: set[tuple[str, ...]] = set()
    stack = [((tree.root.label,), tree.root)]
    while stack:
        prefix, node = stack.pop()
        if len(prefix) >= 2:
            out.add(prefix)
        for child in node.children:
            stack.append((prefix + (child.label,), child))
    return out


def test_criterion_1_chain_growth():
    with criterion(1, "chain growth n(n+1)/2 for n in 1..200 under 30s"):
        started = time.monotonic()
        store = AlertStore()
        for n, alert in enumerate(generate_chain(200), start=1):
            insert_alert(store, alert)
            stats = store.stats()
            assert stats.path_count == n * (n + 1) // 2, n
            assert stats.endpoint_count == n, n
        assert time.monotonic() - started < 30.0


def test_criterion_2_occurrence_law():
    with criterion(2, "endpoint occurrence law i*(E-i+1) for E in 1..50, exact"):
        store = AlertStore()
        for e, alert in enumerate(generate_chain(50), start=1):
            insert_alert(store, alert)
            per_pair = [0] * e
            total = 0
            for path in store.paths():
                for pair in path.pairs:
                    per_pair[int(pair.source[1:]) - 1] += 1
                    total += 1
            for i in range(1, e + 1):
                assert per_pair[i - 1] == i * (e - i + 1), (e, i)
            assert total == e * (e + 1) * (e + 2) // 6, e


def test_criterion_3_score_and_color_fixtures():
    with criterion(3, "threat score fixtures 5.92/7.35 and colors 0x0D0000/0xFF0000"):
        for volume, expected in ((35, 5.92), (54, 7.35)):
            record = EndpointRecord(
                EndpointPair("s", "d"),
                [mk_alert("s", "d", 1_000 + i, sid=7, seq=i) for i in range(volume)],
            )
            assert abs(threat_score(record.alerts) - expected) <= 0.005, volume
        assert normalize_color(10.49, 179.10) == 0x0D0000
        assert normalize_color(179.10, 179.10) == 0xFF0000


def instance(seed: int) -> list:
    rng = random.Random(seed)
    nodes = rng.randint(3, 8)
    alerts = rng.randint(4, 40)
    return generate_random(nodes, alerts, seed=seed * 31 + 7)


def test_criterion_4_store_matches_oracle():
    with criterion(4, "100 seeded instances equal the brute-force oracle, under 60s"):
        started = time.monotonic()
        for seed in range(100):
            alerts = instance(seed)
            stored = {p.vertices for p in build_store(alerts).paths()}
            assert stored == brute_force_paths(alerts), seed
        assert time.monotonic() - started < 60.0


def test_criterion_5_reinsertion_equivalence(tmp_path):
    with criterion(5, "100 seeded withhold-one reinsertions byte-equal chronological"):
        full_file = tmp_path / "full.jsonl"
        redone_file = tmp_path / "redone.jsonl"
        for seed in range(100, 200):
            alerts = instance(seed)
            withheld = random.Random(seed).randrange(len(alerts))
            full = build_store(alerts)
            redone = build_store_with_reinsertion(alerts, withheld)
            assert_prefix_first(redone, seed)
            assert canonical_state(full) == canonical_state(redone), seed
            recompute_threat_scores(full)
            recompute_threat_scores(redone)
            assert canonical_state(full) == canonical_state(redone), seed
            full.snapshot(full_file)
            redone.snapshot(redone_file)
            assert full_file.read_bytes() == redone_file.read_bytes(), seed


def test_criterion_6_tree_round_trip():
    with criterion(6, "50 random roots: tree chains equal stored paths both ways"):
        checked = 0
        seed = 0
        while checked < 50:
            seed += 1
            store = build_store(instance(200 + seed))
            recompute_threat_scores(store)
            rng = random.Random(seed)
            labels = sorted({v for p in store.paths() for v in p.vertices})
            if not labels:
                continue
            for root in rng.sample(labels, min(2, len(labels))):
                forward = tree_chains(build_forward_tree(store, root))
                assert forward == {
                    p.vertices for p in store.find_paths_starting_at(root)
                }, (seed, root)
                backward = tree_chains(build_backward_tree(store, root))
                assert backward == {
                    tuple(reversed(p.vertices))
                    for p in store.find_paths_ending_at(root)
                }, (seed, root)
                checked += 1


def test_criterion_7_divergent_branch_fixture():
    with criterion(7, "paths (a,b,c) and (a,c,b) build the relabeled 5-node tree"):
        store = build_store(
            [
                mk_alert("a", "b", 1, seq=0),
                mk_alert("b", "c", 2, seq=1),
                mk_alert("a", "c", 3, seq=2),
                mk_alert("c", "b", 4, seq=3),
            ]
        )
        assert {p.vertices for p in store.find_paths_starting_at("a")} == {
            ("a", "b"),
            ("a", "b", "c"),
            ("a", "c"),
            ("a", "c", "b"),
        }
        tree = build_forward_tree(store, "a")
        assert tree.root.label == "a"
        assert sorted(c.label for c in tree.root.children) == ["b", "c"]
        first = next(c for c in tree.root.children if c.label == "b")
        second = next(c for c in tree.root.children if c.label == "c")
        assert [n.label for n in first.children] == ["c"]
        assert [n.label for n in second.children] == ["b"]
        assert first.children[0].children == []
        assert second.children[0].children == []
        assert len(tree.nodes()) == 5


def test_criterion_8_ingest_throughput():
    with criterion(8, "10,000 bounded-fanout alerts ingest in under 60s"):
        alerts = generate_fanout_stream(1500, 10_000, 3, seed=8)
        lines = [
            f"{a.source},{a.destination},{a.time_us},{a.sid}" for a in alerts
        ]
        store = AlertStore()
        started = time.monotonic()
        report = ingest_stream(store, lines, fmt="csv")
        elapsed = time.monotonic() - started
        assert report.inserted == 10_000
        assert report.error_count == 0
        assert store.stats().alert_count == 10_000
        assert elapsed < 60.0


def delay(alerts: list, share: float, max_positions: int, seed: int) -> list:
    """A seeded ``share`` of the alerts, each moved 1..max_positions later."""
    rng = random.Random(seed)
    late = set(rng.sample(range(len(alerts)), round(len(alerts) * share)))
    slots = [
        (i + rng.randint(1, max_positions) + 0.5 if i in late else i, i)
        for i in range(len(alerts))
    ]
    return [alerts[i] for _, i in sorted(slots)]


def test_late_feed_auto_ingest_matches_sorted_build():
    # 2% of the 10,000-alert fan-out feed arrives up to 300 alerts late;
    # both builds number the alerts in arrival order, so ties order alike
    alerts = delay(generate_fanout_stream(1500, 10_000, 3, seed=8), 0.02, 300, seed=8)
    lines = [f"{a.source},{a.destination},{a.time_us},{a.sid}" for a in alerts]
    auto, chronological = AlertStore(), AlertStore()
    report = ingest_stream(auto, lines, fmt="csv", mode="auto")
    ingest_stream(chronological, lines, fmt="csv")
    assert report.reinserted == 200
    assert {p.vertices for p in auto.paths()} == {p.vertices for p in chronological.paths()}
    assert_prefix_first(auto)


def test_criterion_9_byte_determinism(tmp_path):
    with criterion(9, "re-runs produce byte-identical state, snapshots and DOT output"):
        def state_and_bytes(build) -> tuple[str, bytes]:
            target = tmp_path / "snap.jsonl"
            store = build()
            store.snapshot(target)
            return canonical_state(store), target.read_bytes()

        def chain_run() -> AlertStore:
            return build_store(generate_chain(120))

        def random_run() -> AlertStore:
            store = build_store(instance(42))
            recompute_threat_scores(store)
            return store

        def reinsert_run() -> AlertStore:
            alerts = instance(43)
            return build_store_with_reinsertion(alerts, len(alerts) // 2)

        for build in (chain_run, random_run, reinsert_run):
            assert state_and_bytes(build) == state_and_bytes(build)

        def dot_outputs() -> list[str]:
            store = build_store(instance(44))
            recompute_threat_scores(store)
            labels = sorted({v for p in store.paths() for v in p.vertices})
            return [
                tree_to_dot(build_forward_tree(store, labels[0])),
                tree_to_dot(build_backward_tree(store, labels[-1])),
            ]

        assert dot_outputs() == dot_outputs()

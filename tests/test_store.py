"""Store layer: indexes, ranking, persistence, instrumentation."""

from __future__ import annotations

import os

import pytest

from alertpaths import store as store_module
from alertpaths.bench import build_store, generate_chain, generate_random
from alertpaths.errors import StoreError
from alertpaths.maintenance import recompute_threat_scores
from alertpaths.model import EndpointPair, PathRecord
from alertpaths.store import AlertStore

from conftest import mk_alert


def seeded_store(seed: int = 3, nodes: int = 6, alerts: int = 25) -> AlertStore:
    return build_store(generate_random(nodes, alerts, seed))


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------


def test_upsert_creates_then_annotates():
    store = AlertStore()
    first, created = store.upsert_endpoint(mk_alert("a", "b", 1, seq=0))
    assert created is True
    second, created = store.upsert_endpoint(mk_alert("a", "b", 2, seq=1))
    assert created is False
    assert second is first
    assert len(first.alerts) == 2


def test_upsert_rejects_reused_ordinal():
    store = AlertStore()
    store.upsert_endpoint(mk_alert("a", "b", 1, seq=0))
    with pytest.raises(StoreError):
        store.upsert_endpoint(mk_alert("c", "d", 2, seq=0))


def test_directed_pairs_kept_apart():
    store = AlertStore()
    store.upsert_endpoint(mk_alert("a", "b", 1, seq=0))
    store.upsert_endpoint(mk_alert("b", "a", 2, seq=1))
    assert store.stats().endpoint_count == 2


# ---------------------------------------------------------------------------
# paths and indexes
# ---------------------------------------------------------------------------


def test_insert_path_rejects_duplicates():
    store = AlertStore()
    store.upsert_endpoint(mk_alert("a", "b", 1, seq=0))
    store.insert_path(PathRecord(("a", "b")))
    with pytest.raises(StoreError):
        store.insert_path(PathRecord(("a", "b")))


def test_insert_path_requires_endpoint_records():
    store = AlertStore()
    with pytest.raises(StoreError):
        store.insert_path(PathRecord(("a", "b")))


def test_find_paths_spec_shapes():
    # v1 -> v2 -> v3 chain
    store = build_store(
        [mk_alert("v1", "v2", 1, seq=0), mk_alert("v2", "v3", 2, seq=1)]
    )
    ending = {p.vertices for p in store.find_paths_ending_at("v3")}
    assert ending == {("v2", "v3"), ("v1", "v2", "v3")}
    starting = {p.vertices for p in store.find_paths_starting_at("v1")}
    assert starting == {("v1", "v2"), ("v1", "v2", "v3")}
    between = {p.vertices for p in store.find_paths_between("v1", "v3")}
    assert between == {("v1", "v2", "v3")}
    assert store.find_paths_between("v3", "v1") == []


def test_index_consistency_on_random_instance():
    store = seeded_store()
    for path in store.paths():
        assert path in store.find_paths_starting_at(path.origin)
        assert path in store.find_paths_ending_at(path.target)
        assert path in store.find_paths_between(path.origin, path.target)
        for pair in path.pairs:
            assert store.endpoint(pair) is not None


def test_child_symmetry_on_random_instance():
    # A path's children are its stored one-step extensions. Inserters find
    # them with has_path, which is exact only if the stored set is closed
    # under dropping the last (and, for splices, the first) vertex.
    store = seeded_store()
    for path in store.paths():
        if len(path.vertices) > 2:
            assert store.has_path(path.vertices[:-1])
            assert store.has_path(path.vertices[1:])


def test_lookup_touches_only_matching_records():
    store = seeded_store()
    stats = store.stats()
    store.counters.reset()
    ending = store.find_paths_ending_at("v1")
    assert store.counters.path_records == len(ending)
    store.counters.reset()
    between = store.find_paths_between("v1", "v2")
    assert store.counters.path_records == len(between)
    assert stats.path_count > len(between)  # the index really is selective


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def test_top_endpoints_ranked_and_tie_broken():
    store = build_store(
        [
            mk_alert("a", "b", 1, sid=1, seq=0),
            mk_alert("a", "b", 2, sid=2, seq=1),
            mk_alert("c", "d", 3, sid=1, seq=2),
            mk_alert("b", "c", 4, sid=1, seq=3),
        ]
    )
    recompute_threat_scores(store)
    records, stale = store.top_endpoints_by_ets(3)
    assert stale is False
    assert [r.pair for r in records] == [
        EndpointPair("a", "b"),  # ets 2.0
        EndpointPair("b", "c"),  # ets 1.0, tie with (c, d), lexicographic
        EndpointPair("c", "d"),
    ]


def test_top_k_shapes():
    store = seeded_store()
    recompute_threat_scores(store)
    records, _ = store.top_paths_by_pts(0)
    assert records == []
    all_paths, _ = store.top_paths_by_pts(store.stats().path_count + 50)
    assert len(all_paths) == store.stats().path_count
    scores = [p.pts for p in all_paths]
    assert scores == sorted(scores, reverse=True)
    with pytest.raises(ValueError):
        store.top_paths_by_pts(-1)
    with pytest.raises(ValueError):
        store.top_endpoints_by_ets(-2)


def test_staleness_flag_follows_mutations():
    store = build_store([mk_alert("a", "b", 1, seq=0)])
    assert store.scores_stale is True
    recompute_threat_scores(store)
    assert store.scores_stale is False
    _, stale = store.top_endpoints_by_ets(1)
    assert stale is False
    store.upsert_endpoint(mk_alert("a", "b", 2, seq=1))
    _, stale = store.top_endpoints_by_ets(1)
    assert stale is True


# ---------------------------------------------------------------------------
# stats and persistence
# ---------------------------------------------------------------------------


def test_stats_chain_fixture():
    store = build_store(generate_chain(4))
    stats = store.stats()
    assert stats.node_count == 5
    assert stats.endpoint_count == 4
    assert stats.alert_count == 4
    assert stats.path_count == 10


def test_self_loop_counts_node_once():
    store = AlertStore()
    store.upsert_endpoint(mk_alert("a", "a", 1, seq=0))
    stats = store.stats()
    assert stats.node_count == 1
    assert stats.endpoint_count == 1


def test_snapshot_load_round_trip(tmp_path):
    store = seeded_store()
    recompute_threat_scores(store)
    first = tmp_path / "first.jsonl"
    store.snapshot(first)

    restored = AlertStore()
    restored.load(first)
    assert restored.stats() == store.stats()
    assert restored.scores_stale == store.scores_stale
    assert {p.vertices for p in restored.paths()} == {p.vertices for p in store.paths()}
    for path in store.paths():
        twin = restored.get_path(path.vertices)
        assert twin is not None
        assert twin.pts == path.pts

    second = tmp_path / "second.jsonl"
    restored.snapshot(second)
    assert first.read_bytes() == second.read_bytes()


def test_snapshot_is_byte_deterministic(tmp_path):
    store = seeded_store()
    a, b = tmp_path / "a", tmp_path / "b"
    store.snapshot(a)
    store.snapshot(b)
    assert a.read_bytes() == b.read_bytes()


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    with pytest.raises(StoreError):
        AlertStore().load(bad)
    missing = tmp_path / "missing.jsonl"
    with pytest.raises(StoreError):
        AlertStore().load(missing)
    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"format":"something-else","version":1}\n', encoding="utf-8")
    with pytest.raises(StoreError):
        AlertStore().load(wrong)


def test_load_rejects_truncated_snapshot(tmp_path):
    store = seeded_store()
    path = tmp_path / "snap.jsonl"
    store.snapshot(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(StoreError):
        AlertStore().load(path)


# Version 1 path lines carried the one-step extensions as "children".
V1_SNAPSHOT = (
    '{"endpoints":2,"format":"alert-path-store","paths":3,"scores_stale":true,"version":1}\n'
    '{"alerts":[[1,1,0]],"dst":"v2","ets":0.0,"src":"v1"}\n'
    '{"alerts":[[2,1,1]],"dst":"v3","ets":0.0,"src":"v2"}\n'
    '{"children":["v3"],"pts":0.0,"vertices":["v1","v2"]}\n'
    '{"children":[],"pts":0.0,"vertices":["v1","v2","v3"]}\n'
    '{"children":[],"pts":0.0,"vertices":["v2","v3"]}\n'
)


def test_version_1_snapshot_loads_and_resaves_as_version_2(tmp_path):
    old = tmp_path / "v1.jsonl"
    old.write_text(V1_SNAPSHOT, encoding="utf-8")
    restored = AlertStore()
    restored.load(old)
    resaved = tmp_path / "resaved.jsonl"
    restored.snapshot(resaved)

    expected = tmp_path / "expected.jsonl"
    build_store(
        [mk_alert("v1", "v2", 1, seq=0), mk_alert("v2", "v3", 2, seq=1)]
    ).snapshot(expected)
    assert resaved.read_bytes() == expected.read_bytes()
    header = resaved.read_text(encoding="utf-8").splitlines()[0]
    assert '"version":2' in header
    assert b"children" not in resaved.read_bytes()


def test_snapshot_syncs_temp_file_before_replacing(tmp_path, monkeypatch):
    real_fsync, real_replace = os.fsync, os.replace
    events = []

    def fsync(fd):
        info = os.fstat(fd)
        events.append(("fsync", info.st_ino, info.st_size))
        real_fsync(fd)

    def replace(src, dst):
        info = os.stat(src)
        events.append(("replace", info.st_ino, info.st_size))
        real_replace(src, dst)

    monkeypatch.setattr(store_module.os, "fsync", fsync)
    monkeypatch.setattr(store_module.os, "replace", replace)
    target = tmp_path / "snap.jsonl"
    seeded_store().snapshot(target)

    size = target.stat().st_size
    inode = target.stat().st_ino
    # the whole temp file reaches the disk before it takes the target's name
    assert events == [("fsync", inode, size), ("replace", inode, size)]

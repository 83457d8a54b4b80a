"""Store layer: indexes, ranking, persistence, instrumentation."""

from __future__ import annotations

import json
import math
import os

import pytest

from alertpaths import store as store_module
from alertpaths.bench import brute_force_paths, build_store, generate_chain, generate_random
from alertpaths.derivation import AlertLog
from alertpaths.errors import StoreError
from alertpaths.maintenance import insert_alert
from alertpaths.model import Alert, EndpointPair, PathRecord
from alertpaths.store import AlertStore, recompute_threat_scores

from conftest import canonical_state, forbid_path_scans, mk_alert


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


def test_insert_path_requires_stored_prefix():
    store = AlertStore()
    store.upsert_endpoint(mk_alert("a", "b", 1, seq=0))
    store.upsert_endpoint(mk_alert("b", "c", 2, seq=1))
    with pytest.raises(StoreError, match=r"prefix \('a', 'b'\)"):
        store.insert_path(PathRecord(("a", "b", "c")))
    store.insert_path(PathRecord(("a", "b")))
    with pytest.raises(StoreError, match=r"pair \('c', 'd'\)"):
        store.insert_path(PathRecord(("a", "b", "c", "d")))
    store.insert_path(PathRecord(("a", "b", "c")))
    assert [p.vertices for p in store.paths()] == [("a", "b"), ("a", "b", "c")]


def test_insert_path_rejects_degenerate_shapes():
    # the store, not PathRecord, owns the stored-path rule
    store = AlertStore()
    store.upsert_endpoint(mk_alert("v1", "v2", 1, seq=0))
    store.upsert_endpoint(mk_alert("v2", "v1", 2, seq=1))
    store.upsert_endpoint(mk_alert("v1", "v1", 3, seq=2))
    store.insert_path(PathRecord(("v1", "v2")))
    before = canonical_state(store)
    for vertices in [("v1",), ("v1", "v2", "v1"), ("v1", "v1")]:
        with pytest.raises(StoreError):
            store.insert_path(PathRecord(vertices))
        assert not store.has_path(vertices)
    assert canonical_state(store) == before
    assert [p.vertices for p in store.paths()] == [("v1", "v2")]


# Each of these once went into a store whose own snapshot then failed to load.
MALFORMED_ALERT_FIELDS = [
    ("a", "b", 1, True, 0),
    ("a", "b", 1.5, 1, 0),
    ("", "b", 1, 1, 0),
    ("a", "b", 1, 1, True),
    ("a", "b", 1, "7", 0),
]


@pytest.mark.parametrize("fields", MALFORMED_ALERT_FIELDS)
def test_malformed_alert_never_reaches_a_store(fields):
    store = AlertStore()
    with pytest.raises(ValueError):
        insert_alert(store, Alert(*fields))
    assert store.stats().alert_count == 0


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
    all_paths = list(store.paths())
    for path in all_paths:
        assert path in store.find_paths_starting_at(path.origin)
        assert path in store.find_paths_ending_at(path.target)
        for pair in path.pairs:
            assert store.endpoint(pair) is not None
    extremes = {(p.origin, p.target) for p in all_paths}
    unjoined = next(
        (o, t) for o in ("v1", "v2", "v3") for t in ("v4", "v5", "v6")
        if (o, t) not in extremes
    )
    for origin, target in [*sorted(extremes), unjoined]:
        expected = [p for p in all_paths if (p.origin, p.target) == (origin, target)]
        assert store.find_paths_between(origin, target) == expected


def test_child_symmetry_on_random_instance():
    # A path's children are its stored one-step extensions. insert_alert
    # finds them with has_path, and reinsert_alert looks for a new path's
    # prefix and suffix among the stored paths; both are exact only if the
    # stored set is closed under dropping the last or first vertex.
    store = seeded_store()
    for path in store.paths():
        if len(path.vertices) > 2:
            assert store.has_path(path.vertices[:-1])
            assert store.has_path(path.vertices[1:])


def test_lookup_touches_only_matching_records():
    # lookups read the origin and target indexes, never every stored path
    store = seeded_store()
    lookups = [
        lambda: store.find_paths_ending_at("v1"),
        lambda: store.find_paths_starting_at("v1"),
        lambda: store.find_paths_between("v1", "v2"),
    ]
    expected = [lookup() for lookup in lookups]
    assert all(expected)
    forbid_path_scans(store)
    assert [lookup() for lookup in lookups] == expected
    assert store.has_path(expected[2][0].vertices)
    with pytest.raises(AssertionError, match="scanned"):
        list(store.paths())


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

    # distinct sids on a chain: paths of equal length tie, every endpoint ties;
    # the labels descend, so insertion order is the reverse of the tie-break
    labels = "gfedcba"
    arcs = zip(labels, labels[1:])
    tied = build_store([mk_alert(a, b, t, sid=t) for t, (a, b) in enumerate(arcs)])
    recompute_threat_scores(tied)
    paths = sorted(tied.paths(), key=lambda p: (-p.pts, p.vertices))
    endpoints = sorted(tied.endpoints(), key=lambda r: (-r.ets, r.pair))
    assert len({p.pts for p in paths}) < len(paths)
    assert len({r.ets for r in endpoints}) == 1
    for k in range(len(paths) + 2):
        assert tied.top_paths_by_pts(k) == (paths[:k], False)
    for k in range(len(endpoints) + 2):
        assert tied.top_endpoints_by_ets(k) == (endpoints[:k], False)


def test_staleness_flag_follows_mutations():
    store = build_store([mk_alert("a", "b", 1, seq=0)])
    assert store.scores_stale is True
    recompute_threat_scores(store)
    assert store.scores_stale is False
    _, stale = store.top_endpoints_by_ets(1)
    assert stale is False
    store.upsert_endpoint(mk_alert("a", "b", 2, seq=1))
    assert store.scores_stale is True
    # a ranking refreshes the stale scores before it reads them
    (record,), stale = store.top_endpoints_by_ets(1)
    assert stale is False
    assert store.scores_stale is False
    assert record.ets == math.sqrt(2)


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
    assert restored.head == store.head
    assert restored.next_seq == store.next_seq
    assert canonical_state(restored) == canonical_state(store)

    second = tmp_path / "second.jsonl"
    restored.snapshot(second)
    assert first.read_bytes() == second.read_bytes()


def test_snapshot_holds_only_alerts(tmp_path):
    store = seeded_store()
    recompute_threat_scores(store)
    target = tmp_path / "snap.jsonl"
    store.snapshot(target)
    lines = target.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == {
        "endpoints": store.stats().endpoint_count,
        "format": "alert-path-store",
        "version": 3,
    }
    assert len(lines) == 1 + store.stats().endpoint_count
    for line in lines[1:]:
        assert sorted(json.loads(line)) == ["alerts", "dst", "src"]


def test_load_rescores_unscored_snapshot(tmp_path):
    store = seeded_store()
    target = tmp_path / "snap.jsonl"
    store.snapshot(target)  # written before any recompute
    restored = AlertStore()
    restored.load(target)
    recompute_threat_scores(store)
    assert canonical_state(restored) == canonical_state(store)


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
    reused = tmp_path / "reused.jsonl"
    reused.write_text(
        '{"endpoints":2,"format":"alert-path-store","version":3}\n'
        '{"alerts":[[1,1,0]],"dst":"b","src":"a"}\n'
        '{"alerts":[[2,1,0]],"dst":"c","src":"b"}\n',
        encoding="utf-8",
    )
    with pytest.raises(StoreError, match="line 3: ordinal 0 already used on line 2"):
        AlertStore().load(reused)
    # a pair listed twice would merge into one record, short of the header's count
    repeated = tmp_path / "repeated.jsonl"
    repeated.write_text(
        '{"endpoints":2,"format":"alert-path-store","version":3}\n'
        '{"alerts":[[1,1,0]],"dst":"b","src":"a"}\n'
        '{"alerts":[[2,1,1]],"dst":"b","src":"a"}\n',
        encoding="utf-8",
    )
    for read in (AlertStore().load, AlertLog.read):
        with pytest.raises(StoreError, match=r"line 3: pair \('a', 'b'\) already on line 2"):
            read(repeated)
    duplicate_key = tmp_path / "duplicate_key.jsonl"
    duplicate_key.write_text(DUPLICATE_KEY_SNAPSHOT, encoding="utf-8")
    with pytest.raises(StoreError, match="ordinal 0"):
        AlertStore().load(duplicate_key)

    header = '{"endpoints":1,"format":"alert-path-store","version":3}\n'
    endpoint = '{"alerts":[[1,1,0]],"dst":"b","src":"a"}\n'
    malformed = [
        "",
        "[]\n",  # JSON, but not an object
        '{"format":"alert-path-store","version":3}\n',
        '{"endpoints":"x","format":"alert-path-store","version":3}\n' + endpoint,
        '{"endpoints":-1,"format":"alert-path-store","version":3}\n',
        '{"endpoints":true,"format":"alert-path-store","version":3}\n' + endpoint,
        '{"endpoints":1.0,"format":"alert-path-store","version":3}\n' + endpoint,
        '{"endpoints":1,"format":"alert-path-store","version":true}\n' + endpoint,
        '{"endpoints":0,"format":"alert-path-store","paths":"0","version":2}\n',
        header + '{"alerts":[[1,1,0]],"dst":"b","src":1}\n',
        header + '{"alerts":[[1,1,0]],"dst":"","src":"a"}\n',
        header + '{"alerts":[[1,1,0]],"src":"a"}\n',
        header + '{"alerts":[],"dst":"b","src":"a"}\n',
        header + '{"alerts":"x","dst":"b","src":"a"}\n',
        header + '{"alerts":[[1,1]],"dst":"b","src":"a"}\n',
        header + '{"alerts":[[1,1,0,5]],"dst":"b","src":"a"}\n',
        header + '{"alerts":[[1.5,1,0]],"dst":"b","src":"a"}\n',
        header + '{"alerts":[["1",1,0]],"dst":"b","src":"a"}\n',
        header + '{"alerts":[[1,false,0]],"dst":"b","src":"a"}\n',
        header + '{"alerts":[[1,1,0],[2,1,0]],"dst":"b","src":"a"}\n',
    ]
    for number, text in enumerate(malformed):
        bad = tmp_path / f"malformed{number}.jsonl"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(StoreError):
            AlertStore().load(bad)


# Two endpoint lines share the alert key (1, 0), so replaying them in key
# order would fail on the second alert.
DUPLICATE_KEY_SNAPSHOT = (
    '{"endpoints":2,"format":"alert-path-store","version":3}\n'
    '{"alerts":[[1,1,0]],"dst":"b","src":"a"}\n'
    '{"alerts":[[1,1,0]],"dst":"c","src":"b"}\n'
)


def test_failed_load_leaves_store_unchanged(tmp_path):
    store = seeded_store()
    recompute_threat_scores(store)
    before = (canonical_state(store), store.stats(), store.head, store.next_seq)
    snapshot = tmp_path / "duplicate_key.jsonl"
    snapshot.write_text(DUPLICATE_KEY_SNAPSHOT, encoding="utf-8")
    with pytest.raises(StoreError, match="ordinal 0"):
        store.load(snapshot)
    assert (canonical_state(store), store.stats(), store.head, store.next_seq) == before


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


def test_version_1_snapshot_loads_and_resaves_as_current_version(tmp_path):
    old = tmp_path / "v1.jsonl"
    old.write_text(V1_SNAPSHOT, encoding="utf-8")
    restored = AlertStore()
    restored.load(old)
    resaved = tmp_path / "resaved.jsonl"
    restored.snapshot(resaved)

    fresh = build_store(
        [mk_alert("v1", "v2", 1, seq=0), mk_alert("v2", "v3", 2, seq=1)]
    )
    recompute_threat_scores(fresh)
    assert canonical_state(restored) == canonical_state(fresh)
    expected = tmp_path / "expected.jsonl"
    fresh.snapshot(expected)
    assert resaved.read_bytes() == expected.read_bytes()


# Version 2, two arcs a -> b -> c plus x -> a at a later time. The feasible
# path ("a", "b", "c") is missing, and ("x", "a", "b") is infeasible because
# x -> a comes after a -> b; the header counts match the lines.
V2_SNAPSHOT_WITH_BAD_PATHS = (
    '{"endpoints":3,"format":"alert-path-store","paths":4,"scores_stale":false,"version":2}\n'
    '{"alerts":[[1,1,0]],"dst":"b","ets":1.0,"src":"a"}\n'
    '{"alerts":[[2,1,1]],"dst":"c","ets":1.0,"src":"b"}\n'
    '{"alerts":[[3,1,2]],"dst":"a","ets":1.0,"src":"x"}\n'
    '{"pts":1.0,"vertices":["a","b"]}\n'
    '{"pts":1.0,"vertices":["b","c"]}\n'
    '{"pts":1.0,"vertices":["x","a"]}\n'
    '{"pts":9.0,"vertices":["x","a","b"]}\n'
)


def test_load_derives_paths_instead_of_trusting_path_lines(tmp_path):
    snapshot = tmp_path / "v2.jsonl"
    snapshot.write_text(V2_SNAPSHOT_WITH_BAD_PATHS, encoding="utf-8")
    store = AlertStore()
    store.load(snapshot)
    insert_alert(store, mk_alert("c", "d", 4, seq=3))
    alerts = [
        mk_alert("a", "b", 1, seq=0),
        mk_alert("b", "c", 2, seq=1),
        mk_alert("x", "a", 3, seq=2),
        mk_alert("c", "d", 4, seq=3),
    ]
    assert {p.vertices for p in store.paths()} == brute_force_paths(alerts)


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
    assert events[:2] == [("fsync", inode, size), ("replace", inode, size)]
    if hasattr(os, "O_DIRECTORY"):
        # and then the directory entry itself, so the rename survives a crash
        assert len(events) == 3
        assert events[2][:2] == ("fsync", tmp_path.stat().st_ino)
    else:
        assert len(events) == 2

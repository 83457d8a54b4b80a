"""Insertion, reinsertion, and score recomputation."""

from __future__ import annotations

import math
import random
from dataclasses import replace

import pytest

from alertpaths.bench import (
    brute_force_paths,
    build_store,
    build_store_with_reinsertion,
    generate_chain,
    generate_random,
)
from alertpaths.derivation import AlertLog
from alertpaths.errors import OutOfOrderError, StoreError
from alertpaths.ingest import ingest_stream
from alertpaths.maintenance import insert_alert, reinsert_alert
from alertpaths.model import Alert, EndpointPair
from alertpaths.store import AlertStore, recompute_threat_scores

from conftest import (
    assert_key_order,
    assert_prefix_first,
    canonical_state,
    forbid_alert_scans,
    mk_alert,
)


def stored_vertex_sets(store: AlertStore) -> set[tuple[str, ...]]:
    return {p.vertices for p in store.paths()}


# ---------------------------------------------------------------------------
# insert_alert
# ---------------------------------------------------------------------------


def test_first_alert_creates_pair_and_path():
    store = AlertStore()
    outcome = insert_alert(store, mk_alert("v1", "v2", 1, seq=0))
    assert outcome.endpoints_created == 1
    assert outcome.paths_created == 1
    assert stored_vertex_sets(store) == {("v1", "v2")}


def test_second_alert_extends_and_creates():
    store = build_store([mk_alert("v1", "v2", 1, seq=0)])
    outcome = insert_alert(store, mk_alert("v2", "v3", 2, seq=1))
    # new pair path plus the lengthened copy of (v1, v2)
    assert outcome.paths_created == 2
    assert stored_vertex_sets(store) == {
        ("v1", "v2"),
        ("v2", "v3"),
        ("v1", "v2", "v3"),
    }


def test_repeat_alert_only_annotates():
    store = build_store(
        [mk_alert("v1", "v2", 1, seq=0), mk_alert("v2", "v3", 2, seq=1)]
    )
    outcome = insert_alert(store, mk_alert("v2", "v3", 3, seq=2))
    assert outcome.endpoints_created == 0
    assert outcome.paths_created == 0
    assert store.stats().path_count == 3
    pair = store.endpoint(EndpointPair("v2", "v3"))
    assert pair is not None and len(pair.alerts) == 2


def test_cycle_guard_blocks_vertex_repeats():
    store = build_store(
        [mk_alert("v1", "v2", 1, seq=0), mk_alert("v2", "v3", 2, seq=1)]
    )
    outcome = insert_alert(store, mk_alert("v2", "v1", 3, seq=2))
    assert outcome.paths_created == 1  # only the fresh (v2, v1)
    assert stored_vertex_sets(store) == {
        ("v1", "v2"),
        ("v2", "v3"),
        ("v1", "v2", "v3"),
        ("v2", "v1"),
    }


def test_self_loop_annotates_but_never_forms_paths():
    store = build_store([mk_alert("v1", "v2", 1, seq=0)])
    outcome = insert_alert(store, mk_alert("v2", "v2", 2, seq=1))
    assert outcome.endpoints_created == 1
    assert outcome.paths_created == 0
    assert store.stats().path_count == 1
    # and later alerts still flow around the loop vertex normally
    insert_alert(store, mk_alert("v2", "v3", 3, seq=2))
    assert ("v1", "v2", "v3") in stored_vertex_sets(store)


def test_out_of_order_time_is_rejected_with_redirect():
    store = build_store([mk_alert("v1", "v2", 10, seq=0)])
    with pytest.raises(OutOfOrderError, match="reinsert"):
        insert_alert(store, mk_alert("v5", "v6", 9, seq=1))


def test_out_of_order_seq_is_rejected():
    store = AlertStore()
    insert_alert(store, Alert("v1", "v2", 10, 1, seq=5))
    # the (time, seq) key as a whole decides: (11, 3) lies beyond (10, 5)
    outcome = insert_alert(store, Alert("v2", "v3", 11, 1, seq=3))
    assert outcome.paths_created == 2
    assert store.head == (11, 3)
    with pytest.raises(OutOfOrderError):
        insert_alert(store, Alert("v5", "v6", 11, 1, seq=3))  # at the head
    with pytest.raises(OutOfOrderError):
        insert_alert(store, Alert("v5", "v6", 11, 1, seq=2))  # behind it
    before = store.stats()
    with pytest.raises(StoreError, match="ordinal 5"):
        insert_alert(store, Alert("v5", "v6", 12, 1, seq=5))  # reused ordinal
    assert store.stats() == before
    assert store.head == (11, 3)


def test_equal_time_later_seq_is_accepted():
    store = build_store([mk_alert("v1", "v2", 10, seq=0)])
    outcome = insert_alert(store, Alert("v2", "v3", 10, 1, seq=1))
    assert outcome.paths_created == 2  # the tie is ordered by seq


def test_chain_growth_law():
    store = AlertStore()
    for i, alert in enumerate(generate_chain(12), start=1):
        insert_alert(store, alert)
        assert store.stats().path_count == i * (i + 1) // 2


def test_no_stored_path_repeats_a_vertex():
    store = build_store(generate_random(6, 30, seed=13))
    for path in store.paths():
        assert len(set(path.vertices)) == len(path.vertices)


def test_insertion_matches_oracle_on_seeded_instances():
    for seed in range(20):
        rng = random.Random(seed)
        alerts = generate_random(rng.randint(3, 7), rng.randint(3, 30), seed=seed)
        store = build_store(alerts)
        assert stored_vertex_sets(store) == brute_force_paths(alerts), seed


def test_key_order_replay_of_auto_mode_store(tmp_path):
    # arrival order leaves late alerts with large seqs and early times;
    # replaying every stored alert in (time, seq) order must still work
    for seed in range(10):
        alerts = generate_random(6, 30, seed=300 + seed)
        random.Random(seed).shuffle(alerts)
        lines = [f"{a.source},{a.destination},{a.time_us},{a.sid}" for a in alerts]
        auto = AlertStore()
        report = ingest_stream(auto, lines, fmt="csv", mode="auto")
        assert report.reinserted > 0, seed
        replayed = AlertStore()
        stored = sorted(
            (a for record in auto.endpoints() for a in record.alerts),
            key=lambda a: a.key,
        )
        for alert in stored:
            insert_alert(replayed, alert)
        assert stored_vertex_sets(replayed) == stored_vertex_sets(auto), seed
        # reinsertion keeps each record, keys included, in key order, as a
        # loaded store and the log build their own
        assert_key_order(auto)
        auto.snapshot(tmp_path / "auto.jsonl")
        loaded = AlertStore()
        loaded.load(tmp_path / "auto.jsonl")
        assert_key_order(loaded)
        assert_key_order(AlertLog(alerts))


# ---------------------------------------------------------------------------
# reinsert_alert
# ---------------------------------------------------------------------------


def base_two_arc_store() -> AlertStore:
    """(v1, v2) at t=1 and (v3, v4) at t=3."""
    return build_store(
        [mk_alert("v1", "v2", 1, seq=0), mk_alert("v3", "v4", 3, seq=1)]
    )


def test_reinsert_bridges_prefix_and_suffix():
    store = base_two_arc_store()
    outcome = reinsert_alert(store, Alert("v2", "v3", 2, 1, seq=2))
    assert outcome.paths_created == 4
    assert stored_vertex_sets(store) == {
        ("v1", "v2"),
        ("v3", "v4"),
        ("v2", "v3"),
        ("v1", "v2", "v3"),
        ("v2", "v3", "v4"),
        ("v1", "v2", "v3", "v4"),
    }
    # a later repeat of the arc finds every spliced extension already stored
    repeat = insert_alert(store, Alert("v2", "v3", 4, 1, seq=3))
    assert repeat.paths_created == 0


def test_reinsert_respects_feasibility_per_splice():
    store = base_two_arc_store()
    outcome = reinsert_alert(store, Alert("v2", "v3", 0, 1, seq=2))
    # the arc is older than (v1, v2), so nothing may pass through v1 -> v2 -> v3
    assert stored_vertex_sets(store) == {
        ("v1", "v2"),
        ("v3", "v4"),
        ("v2", "v3"),
        ("v2", "v3", "v4"),
    }
    assert outcome.paths_created == 2


def test_reinsert_is_idempotent_on_duplicate_arcs():
    store = base_two_arc_store()
    reinsert_alert(store, Alert("v2", "v3", 2, 1, seq=2))
    before = stored_vertex_sets(store)
    outcome = reinsert_alert(store, Alert("v2", "v3", 2, 1, seq=3))
    assert outcome.paths_created == 0
    assert stored_vertex_sets(store) == before


def test_reinsert_self_loop_only_annotates():
    store = base_two_arc_store()
    outcome = reinsert_alert(store, Alert("v2", "v2", 2, 1, seq=2))
    assert outcome.endpoints_created == 1
    assert outcome.paths_created == 0


def test_reinsert_rejects_reused_ordinal():
    store = base_two_arc_store()
    with pytest.raises(StoreError):
        reinsert_alert(store, Alert("v2", "v3", 2, 1, seq=0))


def test_reinsertion_equivalence_on_seeded_instances():
    for seed in range(20):
        rng = random.Random(100 + seed)
        alerts = generate_random(rng.randint(3, 7), rng.randint(2, 30), seed=200 + seed)
        full = build_store(alerts)
        redone = build_store_with_reinsertion(alerts, rng.randrange(len(alerts)))
        assert stored_vertex_sets(redone) == stored_vertex_sets(full), seed


def test_multi_late_reinsertion_matches_oracle():
    # withhold 1-6 alerts, then reinsert them in a seeded random order: each
    # splice sees a store that already holds other late alerts
    for seed in range(400):
        rng = random.Random(seed)
        alerts = generate_random(rng.randint(3, 8), rng.randint(4, 50), seed=500 + seed)
        withheld = rng.sample(range(len(alerts)), min(len(alerts), rng.randint(1, 6)))
        store = build_store(a for i, a in enumerate(alerts) if i not in withheld)
        for index in withheld:
            reinsert_alert(store, alerts[index])
            assert_prefix_first(store, seed)
        assert stored_vertex_sets(store) == brute_force_paths(alerts), seed


def _forbidden(*args):
    raise AssertionError("reinsert_alert made a call its key window rules out")


def reinsert_late(early: list[Alert], late: Alert) -> tuple[AlertStore, int, AlertStore]:
    """Reinsert ``late`` into a chronological build of ``early``; returns the
    store, the paths created, and a chronological build of every alert."""
    store = build_store(early)
    store.has_path = _forbidden  # every combination the window admits is new
    outcome = reinsert_alert(store, late)
    return store, outcome.paths_created, build_store(sorted([*early, late], key=lambda a: a.key))


def test_reinsert_window_new_pair():
    # no old key on (v2, v3): each prefix completing before t=3 and each
    # suffix starting after it qualifies, the bare ends too, and every pair
    # of them joins unless they share a vertex (v1, in 2 of the 12)
    early = [
        mk_alert("v0", "v1", 1),
        mk_alert("v1", "v2", 2),
        mk_alert("v3", "v4", 5),
        mk_alert("v4", "v5", 6),
        mk_alert("v4", "v1", 7),
    ]
    store, created, full = reinsert_late(early, mk_alert("v2", "v3", 3))
    assert (stored_vertex_sets(store), created) == (stored_vertex_sets(full), 10)


def test_reinsert_window_older_than_every_old_key():
    # (v2, v3) already has t=6, so the bare (v2,) and both prefixes qualify;
    # only the suffix whose latest start lies in (3, 6) does
    early = [
        mk_alert("v0", "v1", 1),
        mk_alert("v1", "v2", 2),
        mk_alert("v3", "v4", 4),
        mk_alert("v4", "v5", 5),
        mk_alert("v2", "v3", 6),
        mk_alert("v3", "v4", 7),
    ]
    store, created, full = reinsert_late(early, mk_alert("v2", "v3", 3))
    assert (stored_vertex_sets(store), created) == (stored_vertex_sets(full), 3)


def test_reinsert_window_newer_than_every_old_key():
    # (v2, v3) already has t=2, so the bare (v3,) and every suffix qualify;
    # only prefixes that complete in (2, 5) do
    early = [
        mk_alert("v1", "v2", 1),
        mk_alert("v2", "v3", 2),
        mk_alert("v0", "v1", 3),
        mk_alert("v1", "v2", 4),
        mk_alert("v3", "v4", 6),
        mk_alert("v3", "v4", 9),
        mk_alert("v5", "v6", 10),
    ]
    store, created, full = reinsert_late(early, mk_alert("v2", "v3", 5))
    assert (stored_vertex_sets(store), created) == (stored_vertex_sets(full), 2)


def test_reinsert_ahead_of_head_equals_insert():
    early = generate_random(6, 30, seed=41)
    head = max(a.time_us for a in early)
    repeat, fresh = early[3], Alert("v1", "v9", head + 1, 1, seq=31)
    for alert in (replace(repeat, time_us=head + 1, seq=30), fresh):
        inserted, reinserted = build_store(early), build_store(early)
        insert_alert(inserted, alert)
        reinsert_alert(reinserted, alert)
        assert canonical_state(reinserted) == canonical_state(inserted), alert


def test_late_repeat_that_unlocks_nothing_reads_no_suffix(monkeypatch):
    # the repeat lands after its arc's own key, so no prefix can complete
    # between the two and the suffix list is never read
    store = build_store(generate_chain(30))
    before = store.stats()
    monkeypatch.setattr(store, "find_paths_starting_at", _forbidden)
    arc = generate_chain(30)[15]
    outcome = reinsert_alert(store, replace(arc, time_us=arc.time_us + 500, seq=30))
    assert outcome.paths_created == 0
    assert store.stats().path_count == before.path_count


def heavy_pair_feed(heavy: int) -> tuple[list[Alert], list[Alert]]:
    """A sorted feed whose (a, b) holds ``heavy`` alerts, and its late alerts.

    (x, a) comes before (a, b); (b, y) and (b, z) come too early to follow
    it. Late alerts on (b, y) and on (a, b) itself then unlock (a, b, y),
    (x, a, b, y), (a, b, z) and (x, a, b, z).
    """
    on_time = [("x", "a", 1000 + i) for i in range(20)]
    on_time += [("b", "y", 100 + i) for i in range(20)] + [("b", "z", 1500)]
    on_time += [("a", "b", 2000 + i) for i in range(heavy)]
    late = [("b", "y", 2000 + heavy // 2 + i) for i in range(5)]
    late += [("a", "b", 1200 + i) for i in range(3)]
    alerts = [Alert(s, d, t, sid=1, seq=seq) for seq, (s, d, t) in enumerate(on_time + late)]
    return sorted(alerts[: len(on_time)], key=lambda a: a.key), alerts[len(on_time) :]


def test_reinsert_reads_every_pair_in_place():
    # every record's alerts and keys refuse scans, so no pair that a late
    # alert's ends pass through is walked, copied or sorted: neither the
    # arc's own pair nor a heavy neighbour costs a late alert its size
    on_time, late = heavy_pair_feed(2_000)
    store = build_store(on_time)
    for record in store.endpoints():
        forbid_alert_scans(record)
    created = sum(reinsert_alert(store, alert).paths_created for alert in late)
    expected = build_store(sorted(on_time + late, key=lambda a: a.key))
    assert stored_vertex_sets(store) == stored_vertex_sets(expected)
    assert created == 4
    checked = created = 0
    for seed in range(40):
        alerts = generate_random(4, 40, seed=700 + seed)
        late_alert = alerts[random.Random(seed).randrange(len(alerts))]
        store = build_store(a for a in alerts if a is not late_alert)
        if store.endpoint(late_alert.pair) is None:  # the late alert opens its pair
            continue
        for record in store.endpoints():
            forbid_alert_scans(record)
        created += reinsert_alert(store, late_alert).paths_created
        assert stored_vertex_sets(store) == brute_force_paths(alerts), seed
        checked += 1
    assert checked >= 30 and created > 0


# ---------------------------------------------------------------------------
# recompute_threat_scores
# ---------------------------------------------------------------------------


def test_recompute_scores_chain():
    store = build_store(generate_chain(2))  # v1 -> v2 -> v3, distinct ids
    endpoints, paths = recompute_threat_scores(store)
    assert (endpoints, paths) == (2, 3)
    pair = store.endpoint(EndpointPair("v1", "v2"))
    assert pair is not None and pair.ets == pytest.approx(1.0)
    (long_path,) = [p for p in store.paths() if p.vertices == ("v1", "v2", "v3")]
    assert long_path.pts == pytest.approx(2.0)  # 2 ids, 2 alerts


def test_recompute_counts_diversity_once_across_pairs():
    # same signature on both arcs: diversity 1, volume 2
    store = build_store(
        [mk_alert("a", "b", 1, sid=9, seq=0), mk_alert("b", "c", 2, sid=9, seq=1)]
    )
    recompute_threat_scores(store)
    (path,) = [p for p in store.paths() if p.vertices == ("a", "b", "c")]
    assert path.pts == pytest.approx(math.sqrt(2))


def test_recompute_missing_pair_is_store_inconsistency():
    store = build_store(
        [mk_alert("a", "b", 1, seq=0), mk_alert("b", "c", 2, seq=1)]
    )
    del store._endpoints[EndpointPair("b", "c")]  # lose a record a path uses
    with pytest.raises(StoreError):
        recompute_threat_scores(store)


def test_recompute_missing_prefix_is_store_inconsistency():
    store = build_store(
        [mk_alert("a", "b", 1, seq=0), mk_alert("b", "c", 2, seq=1)]
    )
    del store._paths[("a", "b")]  # break prefix closure under ("a", "b", "c")
    with pytest.raises(StoreError):
        recompute_threat_scores(store)


def test_recompute_is_idempotent():
    store = build_store(generate_random(5, 20, seed=21))
    first = recompute_threat_scores(store)
    assert first[0] > 0
    assert recompute_threat_scores(store) == (0, 0)
    assert store.scores_stale is False


def test_recompute_refreshes_after_mutation():
    store = build_store(generate_chain(2))
    recompute_threat_scores(store)
    insert_alert(store, mk_alert("v3", "v4", 5_000_000_000, sid=9, seq=10))
    assert store.scores_stale is True
    endpoints, paths = recompute_threat_scores(store)
    assert endpoints == 1  # only the new pair's score actually changed
    assert paths > 0
    assert store.scores_stale is False


def test_scores_match_model_functions_everywhere():
    store = build_store(generate_random(6, 30, seed=33))
    recompute_threat_scores(store)
    arcs = {r.pair: r.alerts for r in store.endpoints()}
    for record in store.endpoints():
        d = len({a.sid for a in record.alerts})
        assert record.ets == pytest.approx(math.sqrt(d * len(record.alerts)))
    for path in store.paths():
        union = [a for pair in path.pairs for a in arcs[pair]]
        d = len({a.sid for a in union})
        assert path.pts == pytest.approx(math.sqrt(d * len(union)))

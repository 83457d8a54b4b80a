"""Insertion, reinsertion, and score recomputation."""

from __future__ import annotations

import math
import random

import pytest

from alertpaths.bench import (
    brute_force_paths,
    build_store,
    build_store_with_reinsertion,
    generate_chain,
    generate_random,
)
from alertpaths.errors import OutOfOrderError, StoreError
from alertpaths.maintenance import (
    insert_alert,
    recompute_threat_scores,
    reinsert_alert,
)
from alertpaths.model import Alert, EndpointPair
from alertpaths.store import AlertStore

from conftest import mk_alert


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
    with pytest.raises(OutOfOrderError):
        insert_alert(store, Alert("v5", "v6", 11, 1, seq=5))
    with pytest.raises(OutOfOrderError):
        insert_alert(store, Alert("v5", "v6", 11, 1, seq=3))


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


# ---------------------------------------------------------------------------
# recompute_threat_scores
# ---------------------------------------------------------------------------


def test_recompute_scores_chain():
    store = build_store(generate_chain(2))  # v1 -> v2 -> v3, distinct ids
    endpoints, paths = recompute_threat_scores(store)
    assert (endpoints, paths) == (2, 3)
    pair = store.endpoint(EndpointPair("v1", "v2"))
    assert pair is not None and pair.ets == pytest.approx(1.0)
    long_path = store.get_path(("v1", "v2", "v3"))
    assert long_path is not None
    assert long_path.pts == pytest.approx(2.0)  # 2 ids, 2 alerts


def test_recompute_counts_diversity_once_across_pairs():
    # same signature on both arcs: diversity 1, volume 2
    store = build_store(
        [mk_alert("a", "b", 1, sid=9, seq=0), mk_alert("b", "c", 2, sid=9, seq=1)]
    )
    recompute_threat_scores(store)
    path = store.get_path(("a", "b", "c"))
    assert path is not None
    assert path.pts == pytest.approx(math.sqrt(2))


def test_recompute_missing_pair_is_store_inconsistency():
    store = build_store(
        [mk_alert("a", "b", 1, seq=0), mk_alert("b", "c", 2, seq=1)]
    )
    del store._endpoints[EndpointPair("b", "c")]  # lose a record a path uses
    with pytest.raises(StoreError):
        recompute_threat_scores(store)


def test_recompute_is_idempotent():
    store = build_store(generate_random(5, 20, seed=21))
    first = recompute_threat_scores(store)
    assert first[0] > 0
    assert recompute_threat_scores(store) == (0, 0)
    assert store.scores_stale is False


def test_recompute_scorer_seam():
    store = build_store(generate_chain(3))
    recompute_threat_scores(store, scorer=lambda alerts: float(len(list(alerts))))
    path = store.get_path(("v1", "v2", "v3", "v4"))
    assert path is not None
    assert path.pts == 3.0  # volume-only scoring through the seam


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

"""Pure-math layer: scores, feasibility, the color scale, record types."""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alertpaths.model import (
    Alert,
    EndpointPair,
    PathRecord,
    is_chronologically_feasible,
    normalize_color,
    threat_score,
)

from conftest import mk_alert


def alerts_with_sids(sids: list[int]) -> list[Alert]:
    return [mk_alert("a", "b", 100 + i, sid=s, seq=i) for i, s in enumerate(sids)]


# ---------------------------------------------------------------------------
# threat score
# ---------------------------------------------------------------------------


def test_threat_score_empty_is_zero():
    assert threat_score([]) == 0.0


def test_threat_score_single_alert():
    assert threat_score(alerts_with_sids([7])) == pytest.approx(1.0)


def test_threat_score_two_alerts_one_id():
    # diversity 1, volume 2
    assert threat_score(alerts_with_sids([7, 7])) == pytest.approx(math.sqrt(2))


def test_threat_score_two_alerts_two_ids():
    assert threat_score(alerts_with_sids([7, 8])) == pytest.approx(2.0)


def test_threat_score_known_volumes():
    # single-signature floods score as sqrt(volume)
    assert threat_score(alerts_with_sids([5] * 35)) == pytest.approx(5.92, abs=0.005)
    assert threat_score(alerts_with_sids([5] * 54)) == pytest.approx(7.35, abs=0.005)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=40))
def test_threat_score_bounds_and_permutation(sids):
    alerts = alerts_with_sids(sids)
    score = threat_score(alerts)
    n = len(sids)
    assert math.sqrt(n) - 1e-9 <= score <= n + 1e-9
    assert threat_score(list(reversed(alerts))) == score


@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=6),
)
def test_threat_score_monotone_in_superset(sids, extra):
    smaller = threat_score(alerts_with_sids(sids))
    larger = threat_score(alerts_with_sids(sids + [extra]))
    assert larger >= smaller


# ---------------------------------------------------------------------------
# chronological feasibility
# ---------------------------------------------------------------------------


def exhaustive_feasible(key_sets) -> bool:
    """Independent oracle: try every one-per-set selection."""
    return any(
        all(a < b for a, b in zip(pick, pick[1:]))
        for pick in itertools.product(*key_sets)
    )


def test_feasible_spec_examples():
    assert is_chronologically_feasible([{1, 9}, {2}, {3}]) is True
    assert is_chronologically_feasible([{4}, {2, 3}]) is False
    assert is_chronologically_feasible([{1}]) is True


def test_feasible_requires_nonempty_inputs():
    with pytest.raises(ValueError):
        is_chronologically_feasible([])
    with pytest.raises(ValueError):
        is_chronologically_feasible([{1}, set()])


def test_feasible_greedy_needs_escape_from_early_choice():
    # naive "match smallest overall" would die here; greedy-min does not
    assert is_chronologically_feasible([{5}, {6, 1}, {7}]) is True


def test_feasible_accepts_presorted_sequences():
    assert is_chronologically_feasible([[1, 9], [2], [3]], presorted=True) is True


@given(
    st.lists(
        st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
        min_size=1,
        max_size=5,
    )
)
def test_feasible_matches_exhaustive_enumeration(key_sets):
    assert is_chronologically_feasible(key_sets) == exhaustive_feasible(key_sets)


@given(
    st.lists(
        st.sets(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=3,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_feasible_matches_exhaustive_on_order_keys(key_sets):
    # production keys are (time, seq) tuples; exercise the same shape
    assert is_chronologically_feasible(key_sets) == exhaustive_feasible(key_sets)


# ---------------------------------------------------------------------------
# color scale
# ---------------------------------------------------------------------------


def test_color_endpoints_of_scale():
    assert normalize_color(1.0, 179.10) == 0x000000
    assert normalize_color(179.10, 179.10) == 0xFF0000


def test_color_interior_value_floors():
    assert normalize_color(10.49, 179.10) == 0x0D0000


def test_color_degenerate_scale_is_black():
    assert normalize_color(1.0, 1.0) == 0x000000


def test_color_out_of_range_scores_rejected():
    with pytest.raises(ValueError):
        normalize_color(0.5, 10.0)
    with pytest.raises(ValueError):
        normalize_color(11.0, 10.0)


@given(
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=1.0, max_value=500.0),
)
def test_color_is_monotone_in_score(a, b, max_ets):
    lo, hi = sorted((min(a, max_ets), min(b, max_ets)))
    assert normalize_color(lo, max_ets) <= normalize_color(hi, max_ets)


@given(st.floats(min_value=1.0, max_value=500.0), st.floats(min_value=0.0, max_value=1.0))
def test_color_channel_stays_in_range(max_ets, fraction):
    ets = min(1.0 + (max_ets - 1.0) * fraction, max_ets)
    color = normalize_color(ets, max_ets)
    red = color >> 16
    assert 0 <= red <= 255
    assert color & 0xFFFF == 0  # green and blue stay dark


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------


def test_endpoint_pair_is_ordered():
    assert EndpointPair("a", "b") != EndpointPair("b", "a")


def test_alert_order_key():
    alert = mk_alert("a", "b", 123, seq=4)
    assert alert.key == (123, 4)
    assert alert.pair == EndpointPair("a", "b")


def test_path_record_derives_pairs():
    path = PathRecord(("v1", "v2", "v3"))
    assert path.pairs == (EndpointPair("v1", "v2"), EndpointPair("v2", "v3"))
    assert path.origin == "v1"
    assert path.target == "v3"


@pytest.mark.parametrize(
    "field, value",
    [
        ("source", None),
        ("source", ""),
        ("source", 7),
        ("destination", None),
        ("destination", ""),
        ("destination", ("b",)),
    ]
    + [
        (field, value)
        for field in ("time_us", "sid", "seq")
        for value in (True, False, 1.0, 1.5, "1", None)
    ],
)
def test_alert_rejects_malformed_field(field, value):
    fields = {"source": "a", "destination": "b", "time_us": 1, "sid": 2, "seq": 3}
    Alert(**fields)
    with pytest.raises(ValueError, match="non-empty string endpoints"):
        Alert(**{**fields, field: value})

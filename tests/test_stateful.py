"""One state machine over every entry point that changes a store.

Hypothesis drives a store over four vertices through head alerts
(`insert_alert`), late alerts (`reinsert_alert`) and snapshot reloads
(`AlertStore.load`), in any order. After every step the store must hold
exactly the brute-force oracle's paths, none of them a zero-hop trie
root, with PTS bit-equal to the alert log's derivation, keep its records
in key order and its paths prefix-first, and build the same trees from
its sorted `walk` as the log builds from its depth-first one. The
settings are fixed and derandomized, so every run tries the same
examples.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from alertpaths.bench import brute_force_paths
from alertpaths.derivation import AlertLog
from alertpaths.maintenance import insert_alert, reinsert_alert
from alertpaths.model import Alert
from alertpaths.query import build_backward_tree, build_forward_tree
from alertpaths.render import tree_to_structured
from alertpaths.store import AlertStore, recompute_threat_scores

from conftest import assert_key_order, assert_prefix_first

vertex = st.sampled_from(("a", "b", "c", "d"))
sid = st.integers(1, 3)


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.store = AlertStore()
        self.alerts: list[Alert] = []
        self.directory = tempfile.TemporaryDirectory()

    def teardown(self) -> None:
        self.directory.cleanup()

    def _alert(self, source: str, dest: str, time_us: int, sid: int) -> Alert:
        alert = Alert(source, dest, time_us, sid, self.store.next_seq)
        self.alerts.append(alert)
        return alert

    @rule(source=vertex, dest=vertex, sid=sid, gap=st.integers(0, 2))
    def head(self, source: str, dest: str, sid: int, gap: int) -> None:
        # a fresh seq puts an alert at the head time behind the head, too
        time_us = (self.store.latest_time_us or 0) + gap
        insert_alert(self.store, self._alert(source, dest, time_us, sid))

    @precondition(lambda self: self.store.latest_time_us)
    @rule(source=vertex, dest=vertex, sid=sid, data=st.data())
    def late(self, source: str, dest: str, sid: int, data: st.DataObject) -> None:
        time_us = data.draw(st.integers(0, self.store.latest_time_us - 1), label="time_us")
        reinsert_alert(self.store, self._alert(source, dest, time_us, sid))

    @rule()
    def reload(self) -> None:
        snapshot = Path(self.directory.name) / "store.jsonl"
        self.store.snapshot(snapshot)
        self.store = AlertStore()
        self.store.load(snapshot)

    @invariant()
    def agrees_with_the_oracle_and_the_log(self) -> None:
        store = self.store
        recompute_threat_scores(store)
        stored = sorted((p.vertices, p.pts) for p in store.paths())
        # the trie's zero-hop roots are nodes, never stored paths
        assert all(len(vertices) >= 2 for vertices, _ in stored)
        assert {vertices for vertices, _ in stored} == brute_force_paths(self.alerts)
        log = AlertLog(self.alerts)
        assert stored == sorted((p.vertices, p.pts) for p in log.paths())
        assert_key_order(store)
        assert_prefix_first(store)
        if self.alerts:
            root = self.alerts[-1].source
            for build in (build_forward_tree, build_backward_tree):
                expected = tree_to_structured(build(log, root))
                assert tree_to_structured(build(store, root)) == expected, build.__name__


StoreMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=25, derandomize=True, database=None, deadline=None
)
TestStoreMachine = StoreMachine.TestCase

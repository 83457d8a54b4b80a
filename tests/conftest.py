"""Shared helpers for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from alertpaths.model import Alert, AlertTree, TreeNode
from alertpaths.store import AlertStore, recompute_threat_scores

DATA_DIR = Path(__file__).parent / "data"


def mk_alert(
    source: str, dest: str, time_us: int, sid: int = 1, seq: int | None = None
) -> Alert:
    """Alert shorthand; seq defaults to the time so streams stay ordered."""
    return Alert(source, dest, time_us, sid, seq=time_us if seq is None else seq)


def deep_chain_tree(levels: int) -> AlertTree:
    """A forward tree that is one chain of ``levels`` nodes, v1 at the root."""
    root = node = TreeNode("v1")
    for i in range(2, levels + 1):
        child = TreeNode(f"v{i}", ets=1.0)
        node.children.append(child)
        node = child
    return AlertTree(root, "forward")


def canonical_state(store: AlertStore) -> str:
    """Everything a store holds, in a canonical order: each endpoint with its
    sorted alert keys, sids and ETS, then each path with its PTS.

    Snapshots hold only alerts, so comparing this dump is what shows that
    two stores derived the same paths and scores. It reads the cached
    scores directly, so it refreshes them first, as every store reader does.
    """
    recompute_threat_scores(store)
    lines = []
    for record in sorted(store.endpoints(), key=lambda r: r.pair):
        alerts = sorted([a.time_us, a.seq, a.sid] for a in record.alerts)
        lines.append(json.dumps([list(record.pair), alerts, record.ets]))
    for path in sorted(store.paths(), key=lambda p: p.vertices):
        lines.append(json.dumps([list(path.vertices), path.pts]))
    return "\n".join(lines)


def assert_prefix_first(store: AlertStore, label: object = None) -> None:
    """Every path comes after its one-hop-shorter prefix in `paths()`."""
    seen: set[tuple[str, ...]] = set()
    for path in store.paths():
        vertices = path.vertices
        assert len(vertices) == 2 or vertices[:-1] in seen, (label, vertices)
        seen.add(vertices)


class UnscannableDict(dict):
    """A dict whose keyed reads work but whose scans fail the test.

    Swapped in for a store's path dict, it shows that a lookup went through
    an index instead of walking every stored path.
    """

    def _scan(self, *args):
        raise AssertionError("scanned every stored path")

    __iter__ = keys = values = items = _scan


def forbid_path_scans(store: AlertStore) -> None:
    store._paths = UnscannableDict(store._paths)


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR

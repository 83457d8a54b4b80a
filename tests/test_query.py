"""Path retrieval and alert-tree reconstruction."""

from __future__ import annotations

import random

import pytest

from alertpaths.bench import (
    build_store,
    build_store_with_reinsertion,
    generate_chain,
    generate_random,
)
from alertpaths.derivation import AlertLog
from alertpaths.ingest import ingest_stream
from alertpaths.maintenance import insert_alert, reinsert_alert
from alertpaths.model import Alert, AlertTree, EndpointPair, TreeNode, normalize_color
from alertpaths.query import (
    _build_tree,
    build_backward_tree,
    build_forward_tree,
    retrieve_paths,
    top_trees,
)
from alertpaths.render import paths_to_table, tree_to_structured
from alertpaths.store import AlertStore, recompute_threat_scores

from conftest import forbid_path_scans, mk_alert


def divergent_store() -> AlertStore:
    """Paths (a, b, c) and (a, c, b) share an origin but not structure."""
    return build_store(
        [
            mk_alert("a", "b", 1, seq=0),
            mk_alert("b", "c", 2, seq=1),
            mk_alert("a", "c", 3, seq=2),
            mk_alert("c", "b", 4, seq=3),
        ]
    )


def chains(tree: AlertTree) -> set[tuple[str, ...]]:
    """Root-to-node label sequences of length >= 2."""
    out: set[tuple[str, ...]] = set()
    stack: list[tuple[tuple[str, ...], TreeNode]] = [((tree.root.label,), tree.root)]
    while stack:
        prefix, node = stack.pop()
        if len(prefix) >= 2:
            out.add(prefix)
        for child in node.children:
            stack.append((prefix + (child.label,), child))
    return out


# ---------------------------------------------------------------------------
# retrieve_paths
# ---------------------------------------------------------------------------


def test_retrieve_paths_orders_by_score_then_vertices():
    store = build_store(generate_random(5, 25, seed=17))
    recompute_threat_scores(store)
    found = retrieve_paths(store, "v1", "v2")
    assert {p.vertices for p in found} == {
        p.vertices for p in store.find_paths_between("v1", "v2")
    }
    keys = [(-p.pts, p.vertices) for p in found]
    assert keys == sorted(keys)


def test_retrieve_paths_unknown_endpoints_empty():
    store = divergent_store()
    assert retrieve_paths(store, "nope", "b") == []


# ---------------------------------------------------------------------------
# tree shape
# ---------------------------------------------------------------------------


def test_forward_tree_duplicates_labels_across_branches():
    store = divergent_store()
    tree = build_forward_tree(store, "a")
    assert tree.direction == "forward"
    assert tree.root.label == "a"
    # arcs must be exactly (a,b), (b,c), (a,c'), (c',b') with c', b' distinct nodes
    assert sorted(child.label for child in tree.root.children) == ["b", "c"]
    b_node = next(c for c in tree.root.children if c.label == "b")
    c_prime = next(c for c in tree.root.children if c.label == "c")
    assert [n.label for n in b_node.children] == ["c"]
    assert [n.label for n in c_prime.children] == ["b"]
    assert b_node.children[0] is not c_prime
    assert len(tree.nodes()) == 5  # a, b, c, c', b'


def test_forward_tree_chains_equal_stored_paths():
    store = divergent_store()
    tree = build_forward_tree(store, "a")
    assert chains(tree) == {p.vertices for p in store.find_paths_starting_at("a")}


def test_backward_tree_chains_equal_reversed_stored_paths():
    store = divergent_store()
    tree = build_backward_tree(store, "b")
    assert tree.direction == "backward"
    expected = {
        tuple(reversed(p.vertices)) for p in store.find_paths_ending_at("b")
    }
    assert chains(tree) == expected


def test_tree_on_absent_root_is_single_node():
    store = divergent_store()
    tree = build_forward_tree(store, "zzz")
    assert tree.root.label == "zzz"
    assert tree.root.children == []
    assert tree.root.color == 0x000000
    assert tree.root.ets is None


def test_tree_round_trip_on_seeded_instances():
    for seed in range(10):
        rng = random.Random(400 + seed)
        store = build_store(
            generate_random(rng.randint(3, 7), rng.randint(5, 30), seed=500 + seed)
        )
        recompute_threat_scores(store)
        labels = sorted({v for p in store.paths() for v in p.vertices})
        root = rng.choice(labels)
        fwd = build_forward_tree(store, root)
        assert chains(fwd) == {
            p.vertices for p in store.find_paths_starting_at(root)
        }, seed
        bwd = build_backward_tree(store, root)
        assert chains(bwd) == {
            tuple(reversed(p.vertices)) for p in store.find_paths_ending_at(root)
        }, seed


def test_tree_has_no_duplicate_child_labels():
    store = build_store(generate_random(6, 35, seed=77))
    tree = build_forward_tree(store, "v1")
    stack = [tree.root]
    while stack:
        node = stack.pop()
        labels = [c.label for c in node.children]
        assert len(labels) == len(set(labels))
        stack.extend(node.children)


# ---------------------------------------------------------------------------
# scores and colors
# ---------------------------------------------------------------------------


def test_tree_nodes_carry_arc_scores():
    store = build_store(
        [
            mk_alert("a", "b", 1, sid=1, seq=0),
            mk_alert("a", "b", 2, sid=2, seq=1),
            mk_alert("b", "c", 3, sid=1, seq=2),
        ]
    )
    tree = build_forward_tree(store, "a")
    b_node = tree.root.children[0]
    assert b_node.ets == pytest.approx(2.0)  # 2 ids x 2 alerts
    assert b_node.children[0].ets == pytest.approx(1.0)


def test_backward_tree_scores_use_actual_arc_direction():
    store = build_store(
        [
            mk_alert("a", "b", 1, sid=1, seq=0),
            mk_alert("a", "b", 2, sid=2, seq=1),
        ]
    )
    tree = build_backward_tree(store, "b")
    a_node = tree.root.children[0]
    assert a_node.label == "a"
    assert a_node.ets == pytest.approx(2.0)  # scored from the (a, b) record


def test_tree_coloring_max_is_red_min_is_black():
    store = build_store(
        [mk_alert("a", "b", t, sid=s, seq=i) for i, (t, s) in enumerate(
            [(1, 1), (2, 2), (3, 3), (4, 4)]
        )]
        + [mk_alert("b", "c", 5, sid=1, seq=4)]
    )
    tree = build_forward_tree(store, "a")
    b_node = tree.root.children[0]
    c_node = b_node.children[0]
    assert tree.root.color == 0x000000
    assert b_node.color == 0xFF0000  # the maximum scores pure red
    assert c_node.color == 0x000000  # ets 1 maps to black
    assert c_node.ets == pytest.approx(1.0)


def test_tree_color_all_equal_scores_black():
    store = build_store(
        [mk_alert("a", "b", 1, seq=0), mk_alert("b", "c", 2, seq=1)]
    )
    tree = build_forward_tree(store, "a")
    assert all(node.color == 0x000000 for node in tree.nodes())


def test_tree_color_ordering_follows_scores():
    store = build_store(generate_random(6, 35, seed=91))
    recompute_threat_scores(store)
    tree = build_forward_tree(store, "v1")
    scored = [(n.ets, n.color) for n in tree.nodes() if n.ets is not None]
    for (ets_a, color_a) in scored:
        for (ets_b, color_b) in scored:
            if ets_a < ets_b:
                assert color_a <= color_b


def test_build_time_colors_scale_against_the_tree_maximum():
    # Every non-root node is coloured against the hottest arc of its own
    # tree, on plain and reinsertion-built stores. (The per-vertex reference
    # below takes that maximum from the root's paths instead; the two agree
    # because every tree node ends a stored path.)
    stores = []
    for seed in range(12):
        alerts = generate_random(3 + seed % 5, 10 + 3 * seed, seed=900 + seed)
        stores.append(build_store(alerts))
        stores.append(build_store_with_reinsertion(alerts, (7 * seed) % len(alerts)))
    trees = 0
    for store in stores:
        labels = sorted({v for p in store.paths() for v in p.vertices})
        for label in labels:
            for tree in (build_forward_tree(store, label), build_backward_tree(store, label)):
                nodes = tree.nodes()
                assert tree.root.ets is None and tree.root.color == 0x000000
                max_ets = max(n.ets for n in nodes[1:]) if len(nodes) > 1 else 0.0
                for node in nodes[1:]:
                    assert node.color == normalize_color(node.ets, max_ets), (label, node.label)
                trees += 1
    assert trees > 200


def per_vertex_trie(store: AlertStore, root: str, direction: str) -> AlertTree:
    """Reference build: walk every vertex of every rooted path, best path
    first, creating children through a per-node label index."""
    recompute_threat_scores(store)
    forward = direction == "forward"
    paths = store.find_paths_starting_at(root) if forward else store.find_paths_ending_at(root)
    sequences = [p.vertices if forward else tuple(reversed(p.vertices)) for p in paths]

    def arc_ets(parent: str, child: str) -> float:
        pair = EndpointPair(parent, child) if forward else EndpointPair(child, parent)
        return store.endpoint(pair).ets

    max_ets = max((arc_ets(s[-2], s[-1]) for s in sequences), default=0.0)
    root_node = TreeNode(root)
    children_of: dict[int, dict[str, TreeNode]] = {id(root_node): {}}
    for i in sorted(range(len(paths)), key=lambda i: (-paths[i].pts, sequences[i])):
        node = root_node
        for label in sequences[i][1:]:
            index = children_of[id(node)]
            child = index.get(label)
            if child is None:
                ets = arc_ets(node.label, label)
                child = TreeNode(label, ets, normalize_color(ets, max_ets))
                node.children.append(child)
                index[label] = child
                children_of[id(child)] = {}
            node = child
    return AlertTree(root_node, direction)


def test_prefix_linked_build_equals_the_per_vertex_trie():
    # The build creates each node from its one-hop-shorter prefix's node,
    # which exists only because the stored set is prefix- and suffix-closed.
    stores = [build_store(generate_chain(40))]
    for seed in range(12):
        alerts = generate_random(3 + seed % 5, 10 + 3 * seed, seed=1300 + seed)
        stores.append(build_store(alerts))
        stores.append(build_store_with_reinsertion(alerts, (3 * seed) % len(alerts)))
    trees = deep = 0
    for store in stores:
        for label in sorted({v for p in store.paths() for v in p.vertices}):
            for direction in ("forward", "backward"):
                tree = _build_tree(store, label, direction)
                assert tree == per_vertex_trie(store, label, direction), (label, direction)
                trees += 1
                deep += len(tree.nodes()) > 10
    assert trees > 200 and deep > 50


def test_tree_build_looks_up_each_arc_score_once(monkeypatch):
    # Nodes are coloured after the build from the scores they were created
    # with, so no arc's ETS is read a second time.
    store = build_store(generate_chain(40))
    recompute_threat_scores(store)
    calls = 0
    lookup = store.endpoint

    def counting_endpoint(pair):
        nonlocal calls
        calls += 1
        return lookup(pair)

    monkeypatch.setattr(store, "endpoint", counting_endpoint)
    labels = sorted({v for p in store.paths() for v in p.vertices})
    non_root = 0
    for label in labels:
        for build in (build_forward_tree, build_backward_tree):
            before = calls
            tree = build(store, label)
            created = len(tree.nodes()) - 1
            assert calls - before == created, (label, build.__name__)
            non_root += created
    assert non_root > 1000


def test_sibling_order_best_path_first_then_label():
    store = build_store(
        [
            mk_alert("a", "b", 1, sid=1, seq=0),
            mk_alert("a", "c", 2, sid=1, seq=1),
            mk_alert("a", "c", 3, sid=2, seq=2),
            mk_alert("a", "d", 4, sid=1, seq=3),
        ]
    )
    recompute_threat_scores(store)
    tree = build_forward_tree(store, "a")
    # (a, c) has pts 2.0, the others tie at 1.0 and fall back to labels
    assert [c.label for c in tree.root.children] == ["c", "b", "d"]
    # a child ranks by the best path at or below it: (a, c1) scores 1.0 and
    # (a, c1, x) 1.41, under (a, c2)'s 2.0, but (a, c1, x, y) scores 2.45
    store = build_store(
        [
            mk_alert("a", "c1", 1, sid=1, seq=0),
            mk_alert("c1", "x", 2, sid=1, seq=1),
            mk_alert("x", "y", 3, sid=3, seq=2),
            mk_alert("a", "c2", 4, sid=1, seq=3),
            mk_alert("a", "c2", 5, sid=2, seq=4),
        ]
    )
    tree = build_forward_tree(store, "a")
    assert [c.label for c in tree.root.children] == ["c1", "c2"]


# ---------------------------------------------------------------------------
# access discipline and top_trees
# ---------------------------------------------------------------------------


def test_tree_build_touches_only_rooted_paths():
    store = build_store(generate_random(6, 30, seed=55))
    expected = build_forward_tree(store, "v1")
    assert expected.root.children
    forbid_path_scans(store)
    assert build_forward_tree(store, "v1") == expected


def test_top_trees_ranked_dedup_roots():
    store = build_store(
        [
            mk_alert("a", "b", 1, sid=1, seq=0),
            mk_alert("a", "b", 2, sid=2, seq=1),
            mk_alert("b", "c", 3, sid=3, seq=2),
            mk_alert("x", "y", 4, sid=1, seq=3),
        ]
    )
    recompute_threat_scores(store)
    trees = top_trees(store, 2, "forward")
    assert [t.root.label for t in trees] == ["a", "b"]
    assert all(t.direction == "forward" for t in trees)
    single = top_trees(store, 1, "backward")
    assert [t.root.label for t in single] == ["c"]


def test_top_trees_k_bounds():
    store = divergent_store()
    recompute_threat_scores(store)
    assert top_trees(store, 0) == []
    everything = top_trees(store, 99)
    assert sorted(t.root.label for t in everything) == ["a", "b", "c"]
    with pytest.raises(ValueError):
        top_trees(store, -1)


def test_top_trees_rejects_unknown_direction():
    store = divergent_store()
    before = {p.vertices for p in store.paths()}
    with pytest.raises(ValueError, match="direction"):
        top_trees(store, 1, "Forward")  # type: ignore[arg-type]
    # rejected before any read: nothing was scored either
    assert store.scores_stale is True
    assert {p.vertices for p in store.paths()} == before


@pytest.mark.parametrize("reader", [build_store, AlertLog])
def test_walk_rejects_unknown_direction(reader):
    # a misspelt direction is an error, not a backward walk or a KeyError
    alerts = generate_chain(3)
    walked = reader(alerts)
    for direction in ("Forward", "back", ""):
        with pytest.raises(ValueError, match="direction"):
            list(walked.walk("v4", direction))  # type: ignore[arg-type]
    assert walked.scores_stale is (reader is build_store)  # rejected before any scoring
    backward = [sequence for sequence, _ in walked.walk("v4", "backward")]
    assert backward == [("v4", "v3"), ("v4", "v3", "v2"), ("v4", "v3", "v2", "v1")]


# ---------------------------------------------------------------------------
# every reader refreshes stale scores
# ---------------------------------------------------------------------------


def _roots(store: AlertStore) -> list[str]:
    return sorted({v for p in store.paths() for v in p.vertices})


def _every_root_tree(store: AlertStore) -> list[str]:
    return [
        tree_to_structured(build(store, root))
        for build in (build_forward_tree, build_backward_tree)
        for root in _roots(store)
    ]


def _every_walk(store: AlertStore) -> list:
    return [
        list(store.walk(root, direction))
        for direction in ("forward", "backward")
        for root in _roots(store)
    ]


def _every_retrieval(store: AlertStore) -> list:
    ends = sorted({(p.origin, p.target) for p in store.paths()})
    return [[(p.vertices, p.pts) for p in retrieve_paths(store, *end)] for end in ends]


def _rankings(store: AlertStore) -> tuple:
    paths, paths_stale = store.top_paths_by_pts(8)
    endpoints, endpoints_stale = store.top_endpoints_by_ets(8)
    return (
        [(p.vertices, p.pts) for p in paths],
        paths_stale,
        [(r.pair, r.ets) for r in endpoints],
        endpoints_stale,
    )


# Each reader gets its own freshly mutated store, so that none of them can
# rely on an earlier one having refreshed the scores. Structured trees hold
# every node's ETS and colour, in sibling order.
SCORE_READERS = {
    "retrieve_paths": _every_retrieval,
    "trees": _every_root_tree,
    "walks": _every_walk,
    "top_trees": lambda store: [
        tree_to_structured(tree)
        for direction in ("forward", "backward")
        for tree in top_trees(store, 4, direction)
    ],
    "rankings": _rankings,
    "paths_to_table": lambda store: paths_to_table(list(store.paths()), store),
}


def _mutated_stores(kind: str, tmp_path):
    """A function that builds the same store, mutated by ``kind`` after a
    full rescore and not rescored since."""
    alerts = generate_random(6, 24, seed=5)
    head = alerts[-1].time_us
    late_time = alerts[len(alerts) // 2].time_us
    first, last = alerts[0], alerts[-1]
    snapshot = tmp_path / "base.jsonl"
    build_store(alerts).snapshot(snapshot)

    def build() -> AlertStore:
        store = build_store(alerts)
        recompute_threat_scores(store)
        seq = store.next_seq
        if kind == "insert_alert":
            insert_alert(store, Alert(first.source, first.destination, head + 1, 7, seq))
        elif kind == "reinsert_alert":
            reinsert_alert(store, Alert(last.source, last.destination, late_time, 7, seq))
        elif kind == "ingest_auto":
            lines = [
                f"{last.source},{last.destination},{late_time},7",
                f"{first.source},{first.destination},{head + 1},8",
            ]
            ingest_stream(store, lines, fmt="csv", mode="auto")
        else:
            store = AlertStore()
            store.load(snapshot)
        assert store.scores_stale is True
        return store

    return build


@pytest.mark.parametrize("kind", ["insert_alert", "reinsert_alert", "ingest_auto", "load"])
def test_no_reader_returns_a_stale_score(kind, tmp_path):
    build = _mutated_stores(kind, tmp_path)
    rescored = build()
    recompute_threat_scores(rescored)
    differing = [
        name for name, read in SCORE_READERS.items() if read(build()) != read(rescored)
    ]
    assert differing == []

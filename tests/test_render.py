"""DOT output, the structured tree form, and path tables."""

from __future__ import annotations

import re

import pytest

from alertpaths.bench import build_store, generate_random
from alertpaths.query import build_backward_tree, build_forward_tree, retrieve_paths
from alertpaths.render import (
    color_hex,
    format_score,
    paths_to_table,
    tree_from_structured,
    tree_to_dot,
    tree_to_structured,
)
from alertpaths.store import recompute_threat_scores

from conftest import deep_chain_tree, mk_alert


def sample_store():
    return build_store(
        [
            mk_alert("a", "b", 1, sid=1, seq=0),
            mk_alert("b", "c", 2, sid=2, seq=1),
            mk_alert("a", "c", 3, sid=3, seq=2),
            mk_alert("c", "b", 4, sid=4, seq=3),
            mk_alert("a", "b", 5, sid=5, seq=4),
        ]
    )


def test_format_helpers():
    assert format_score(5.916) == "5.92"
    assert format_score(0.0) == "0.00"
    assert color_hex(0x0D0000) == "#0D0000"
    assert color_hex(0) == "#000000"


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def test_dot_basic_shape():
    store = sample_store()
    tree = build_forward_tree(store, "a")
    dot = tree_to_dot(tree)
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    # five tree nodes: a, b, c, c', b'
    assert len(re.findall(r'label="', dot)) == 5
    # duplicate labels get distinct node identifiers
    node_defs = re.findall(r"(n[0-9a-f]{16}) \[", dot)
    assert len(node_defs) == len(set(node_defs)) == 5


def test_dot_fill_colors_match_node_colors():
    store = sample_store()
    tree = build_forward_tree(store, "a")
    dot = tree_to_dot(tree)
    for node in tree.nodes():
        assert f'fillcolor="{color_hex(node.color)}"' in dot


def test_dot_text_contrast_on_dark_fills():
    store = sample_store()
    dot = tree_to_dot(build_forward_tree(store, "a"))
    # every fill on the black-to-red ramp is dark; text must be white
    assert 'fontcolor="#FFFFFF"' in dot
    for line in dot.splitlines():
        if "fillcolor" in line:
            assert 'fontcolor="#FFFFFF"' in line


def test_dot_edge_direction_forward_vs_backward():
    store = build_store([mk_alert("a", "b", 1, seq=0)])
    fwd = tree_to_dot(build_forward_tree(store, "a"))
    bwd = tree_to_dot(build_backward_tree(store, "b"))
    fwd_edges = re.findall(r"(n[0-9a-f]{16}) -> (n[0-9a-f]{16})", fwd)
    bwd_edges = re.findall(r"(n[0-9a-f]{16}) -> (n[0-9a-f]{16})", bwd)
    assert len(fwd_edges) == len(bwd_edges) == 1
    fwd_nodes = dict(re.findall(r'(n[0-9a-f]{16}) \[label="([^"]*)"', fwd))
    bwd_nodes = dict(re.findall(r'(n[0-9a-f]{16}) \[label="([^"]*)"', bwd))
    # both trees draw the arrow from a to b, the actual alert direction
    assert fwd_nodes[fwd_edges[0][0]] == "a"
    assert fwd_nodes[fwd_edges[0][1]] == "b"
    assert bwd_nodes[bwd_edges[0][0]] == "a"
    assert bwd_nodes[bwd_edges[0][1]] == "b"


def test_dot_is_byte_deterministic():
    store = build_store(generate_random(6, 30, seed=11))
    recompute_threat_scores(store)
    first = tree_to_dot(build_forward_tree(store, "v1"))
    second = tree_to_dot(build_forward_tree(store, "v1"))
    assert first == second


def test_dot_ids_number_nodes_in_preorder():
    store = build_store(generate_random(6, 30, seed=11))
    labels = sorted({v for p in store.paths() for v in p.vertices})
    for label in labels:
        for tree in (build_forward_tree(store, label), build_backward_tree(store, label)):
            nodes = tree.nodes()
            dot = tree_to_dot(tree)
            defined = re.findall(r'(n[0-9a-f]{16}) \[label="([^"]*)"', dot)
            assert defined == [(f"n{i:016x}", n.label) for i, n in enumerate(nodes)]
            edges = re.findall(r"(n[0-9a-f]{16}) -> (n[0-9a-f]{16});", dot)
            assert len(edges) == len(nodes) - 1
            # one edge per child, in the child's preorder, along the alert direction
            expected = []
            for i, node in enumerate(nodes):
                for child in node.children:
                    j = next(k for k, n in enumerate(nodes) if n is child)
                    ends = (i, j) if tree.direction == "forward" else (j, i)
                    expected.append((j, tuple(f"n{k:016x}" for k in ends)))
            assert edges == [ends for _, ends in sorted(expected)]
    assert tree_to_dot(deep_chain_tree(5000)).count(" -> ") == 4999


def test_dot_escapes_quotes_in_labels():
    store = build_store([mk_alert('host"1', "host2", 1, seq=0)])
    dot = tree_to_dot(build_forward_tree(store, 'host"1'))
    assert 'label="host\\"1"' in dot


# ---------------------------------------------------------------------------
# structured form
# ---------------------------------------------------------------------------


def test_structured_round_trip_exact():
    store = sample_store()
    recompute_threat_scores(store)
    for direction, builder in (
        ("forward", build_forward_tree),
        ("backward", build_backward_tree),
    ):
        tree = builder(store, "b")
        text = tree_to_structured(tree)
        assert tree_from_structured(text) == tree


def test_structured_color_strings_match_node_values():
    store = sample_store()
    tree = build_forward_tree(store, "a")
    text = tree_to_structured(tree)
    colors = sorted(re.findall(r'"color": "(#[0-9A-F]{6})"', text))
    expected = sorted(color_hex(n.color) for n in tree.nodes())
    assert colors == expected


def test_structured_is_byte_deterministic():
    store = sample_store()
    a = tree_to_structured(build_forward_tree(store, "a"))
    b = tree_to_structured(build_forward_tree(store, "a"))
    assert a == b


def test_structured_rejects_a_tree_too_deep_to_nest():
    # structured JSON nests once per level; DOT does not
    tree = deep_chain_tree(600)
    with pytest.raises(ValueError, match=r"600 levels deep.*--dot"):
        tree_to_structured(tree)
    assert tree_to_dot(tree).count(" -> ") == 599
    text = tree_to_structured(deep_chain_tree(400))  # below the limit it still renders
    assert tree_to_structured(tree_from_structured(text)) == text
    nested = '{"direction": "forward", "root": ' + '{"children": [' * 600
    with pytest.raises(ValueError, match="too deep"):
        tree_from_structured(nested + "]}" * 600 + "}")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def test_paths_table_lists_counts_per_pair():
    store = sample_store()
    recompute_threat_scores(store)
    found = retrieve_paths(store, "a", "c")
    table = paths_to_table(found, store)
    lines = table.splitlines()
    assert lines[0].split() == ["path", "pts", "alerts_per_pair"]
    assert any("a -> b -> c" in line and "2,1" in line for line in lines)


def test_paths_table_empty_is_header_only():
    store = sample_store()
    table = paths_to_table([], store)
    assert table.splitlines() == ["path  pts  alerts_per_pair"]

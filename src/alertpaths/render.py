"""Presentation: DOT graphs, a lossless structured tree form, path tables.

All output here is byte-deterministic for equal inputs: DOT node
identifiers number the nodes in preorder, children are emitted in stored
order, and structured JSON has the bytes of `json.dumps` with sorted keys
and an indent of 2. Both tree writers walk a tree once with an explicit
stack, so they render trees of any depth. Path tables read pair counts
through the `store.PathReader` interface, so an `AlertStore` and an
`AlertLog` print the same table.
"""

from __future__ import annotations

import json
import re
import reprlib

from .model import AlertTree, PathRecord, TreeNode
from .store import PathReader, recompute_threat_scores


def format_score(value: float) -> str:
    """Display convention: scores are shown with two decimals."""
    return f"{value:.2f}"


def color_hex(color: int) -> str:
    """24-bit value -> '#RRGGBB'."""
    return f"#{color:06X}"


# ---------------------------------------------------------------------------
# DOT
# ---------------------------------------------------------------------------


def tree_to_dot(tree: AlertTree) -> str:
    """Graphviz source for one alert tree.

    Nodes are filled with their assigned color and labelled with the bare
    vertex label; duplicate labels stay distinct because a node's
    identifier is its preorder index, ``n`` plus 16 hex digits. Node lines
    come in preorder and each edge line in its child's preorder. Backward
    trees draw their edges child-to-parent so arrows always follow actual
    alert direction.
    """
    lines = [
        "digraph alert_tree {",
        "  rankdir=LR;",
        '  node [shape=box, style=filled, fontname="Helvetica"];',
    ]
    nodes = tree.nodes()
    index = {id(node): i for i, node in enumerate(nodes)}
    edge_lines = [""] * (len(nodes) - 1)  # the edge into node j is line j - 1
    for i, node in enumerate(nodes):
        label = node.label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(
            f'  n{i:016x} [label="{label}", fillcolor="{color_hex(node.color)}", '
            f'fontcolor="{_text_color(node.color)}"];'
        )
        for child in node.children:
            j = index[id(child)]
            tail, head = (i, j) if tree.direction == "forward" else (j, i)
            edge_lines[j - 1] = f"  n{tail:016x} -> n{head:016x};"
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _text_color(color: int) -> str:
    """White text on dark fills, black on light ones."""
    red = (color >> 16) & 0xFF
    green = (color >> 8) & 0xFF
    blue = color & 0xFF
    luminance = 0.299 * red + 0.587 * green + 0.114 * blue
    return "#FFFFFF" if luminance < 128 else "#000000"


# ---------------------------------------------------------------------------
# structured tree form
# ---------------------------------------------------------------------------


def tree_to_structured(tree: AlertTree) -> str:
    """Lossless nested JSON serialization of a tree, for trees of any depth.

    The bytes are those of ``json.dumps(payload, sort_keys=True, indent=2)``
    plus a newline, where each node is ``{"children": [...], "color":
    "#RRGGBB", "ets": ..., "label": ...}``. One loop over an explicit stack
    writes them, so the cost is linear in the output, and the output grows
    with depth squared (about 14 bytes times depth squared for a chain)
    because every level indents two more spaces.
    """
    pads = ["\n", "\n  ", "\n    "]  # pads[i] is a line break and i levels of indent
    out = ['{\n  "direction": ', json.dumps(tree.direction), ',\n  "root": ']
    # a node at level i has its braces at pads[i] and its keys at pads[i + 1]
    stack: list[str | tuple[TreeNode, int]] = ["\n}\n", (tree.root, 1)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, level = item
        inner = pads[level + 1]
        tail = (
            f'{inner}"color": "{color_hex(node.color)}",'
            f'{inner}"ets": {json.dumps(node.ets)},'
            f'{inner}"label": {json.dumps(node.label)}{pads[level]}}}'
        )
        if not node.children:
            out.append(f'{{{inner}"children": [],{tail}')
            continue
        out.append(f'{{{inner}"children": [')
        stack.append(f"{inner}],{tail}")
        if len(pads) == level + 2:
            pads += (pads[-1] + "  ", pads[-1] + "    ")
        child_pad = pads[level + 2]
        for child in reversed(node.children):
            stack.append((child, level + 2))
            stack.append("," + child_pad)
        stack[-1] = child_pad  # no comma before the first child
    return "".join(out)


def tree_from_structured(text: str) -> AlertTree:
    """Inverse of tree_to_structured.

    Anything that is not such a document raises `ValueError`: bad JSON, a
    missing key, a non-object node, a direction other than ``forward`` or
    ``backward``, a non-string label, an ``ets`` that is neither null nor
    a number, or a colour that is not ``#RRGGBB``. So does a tree of more
    than `MAX_TREE_LEVELS` levels, counted as `json.loads` builds each
    object, before any field is checked. `json.loads` recurses per nesting
    level, and how deep it can go differs between Python versions (about
    490 tree levels on 3.10 and 3.11, 740 on 3.12, 1,990 on 3.13); the cap
    sits below all of them, so every version reads the same trees.
    """
    try:
        payload = json.loads(text, object_pairs_hook=_object_with_levels)
    except RecursionError:
        raise ValueError("structured tree nests too deep to read") from None
    direction = _member(payload, "direction")
    if direction not in ("forward", "backward"):
        raise ValueError(
            f"direction must be 'forward' or 'backward', got {reprlib.repr(direction)}"
        )
    root_obj = _member(payload, "root")
    root = _node_from_obj(root_obj)
    stack = [(root, root_obj)]
    while stack:
        node, obj = stack.pop()
        children = _member(obj, "children")
        if not isinstance(children, list):
            raise ValueError(f"children must be a list, got {reprlib.repr(children)}")
        for child_obj in children:
            child = _node_from_obj(child_obj)
            node.children.append(child)
            stack.append((child, child_obj))
    return AlertTree(root, direction)


_COLOR = re.compile(r"#[0-9A-Fa-f]{6}")
MAX_TREE_LEVELS = 400


class _LeveledObject(dict):
    """A JSON object that knows how many tree levels it heads through its
    ``children``: 1 for a leaf."""

    __slots__ = ("levels",)


def _object_with_levels(pairs: list[tuple[str, object]]) -> _LeveledObject:
    """`json.loads`'s object hook: it builds objects innermost first and
    rejects one that heads more than `MAX_TREE_LEVELS` levels."""
    obj = _LeveledObject(pairs)
    children = obj.get("children")
    below = 0
    if isinstance(children, list):
        below = max((c.levels for c in children if isinstance(c, _LeveledObject)), default=0)
    if below >= MAX_TREE_LEVELS:
        raise ValueError(
            f"structured tree nests too deep: more than {MAX_TREE_LEVELS} levels"
        )
    obj.levels = below + 1
    return obj


def _member(obj: object, key: str) -> object:
    if not isinstance(obj, dict):
        raise ValueError(
            f"a structured tree and its nodes are JSON objects, got {reprlib.repr(obj)}"
        )
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"structured tree object has no {key!r}") from None


def _node_from_obj(obj: object) -> TreeNode:
    """One node without its children, its fields checked."""
    label, ets, color = (_member(obj, key) for key in ("label", "ets", "color"))
    if not isinstance(label, str):
        raise ValueError(f"label must be a string, got {reprlib.repr(label)}")
    if ets is not None and (type(ets) is bool or not isinstance(ets, (int, float))):
        raise ValueError(f"ets must be null or a number, got {reprlib.repr(ets)}")
    if not (isinstance(color, str) and _COLOR.fullmatch(color)):
        raise ValueError(f"color must be '#RRGGBB', got {reprlib.repr(color)}")
    return TreeNode(label, ets, int(color[1:], 16))


# ---------------------------------------------------------------------------
# path tables
# ---------------------------------------------------------------------------


def paths_to_table(paths: list[PathRecord], store: PathReader) -> str:
    """Plain-text table of paths: vertices, PTS, alert count per pair.

    The store, or an `AlertLog`, supplies the per-pair counts and refreshes
    its stale scores first; an empty path list still yields the header row.
    """
    recompute_threat_scores(store)
    header = ("path", "pts", "alerts_per_pair")
    rows: list[tuple[str, str, str]] = []
    for path in paths:
        counts = []
        for pair in path.pairs:
            record = store.endpoint(pair)
            counts.append(str(len(record.alerts)) if record is not None else "0")
        rows.append(
            (" -> ".join(path.vertices), format_score(path.pts), ",".join(counts))
        )
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    out = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header)).rstrip()]
    for row in rows:
        out.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(out) + "\n"

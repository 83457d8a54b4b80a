"""Presentation: DOT graphs, a lossless structured tree form, path tables.

All output here is byte-deterministic for equal inputs: DOT node
identifiers number the nodes in preorder, children are emitted in stored
order, and structured JSON has the bytes of `json.dumps` with sorted keys
and an indent of 2. Both tree writers walk a tree once with an explicit
stack, so they render trees of any depth. The structured form is output
only; the package has no reader for it. Path tables read pair counts
through the `store.PathReader` interface, so an `AlertStore` and an
`AlertLog` print the same table.
"""

from __future__ import annotations

import json

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

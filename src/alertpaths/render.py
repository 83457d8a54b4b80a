"""Presentation: DOT graphs, a lossless structured tree form, path tables.

All output here is byte-deterministic for equal inputs: DOT node
identifiers number the nodes in preorder, children are emitted in stored
order, and JSON is dumped with sorted keys.
"""

from __future__ import annotations

import json

from .model import AlertTree, PathRecord, TreeNode
from .store import AlertStore, recompute_threat_scores


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
    """Lossless nested JSON serialization of a tree. Nesting recurses per
    level, so past about 490 levels this raises `ValueError`; DOT does not."""
    try:
        payload = {"direction": tree.direction, "root": _node_to_obj(tree.root)}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    except RecursionError:
        depth, level = 0, [tree.root]
        while level:
            depth, level = depth + 1, [c for node in level for c in node.children]
        raise ValueError(f"tree is {depth} levels deep, too deep for JSON; use --dot") from None


def tree_from_structured(text: str) -> AlertTree:
    """Inverse of tree_to_structured, with the same depth limit."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("structured tree nests too deep to read") from None
    return AlertTree(_node_from_obj(payload["root"]), payload["direction"])


def _node_to_obj(node: TreeNode) -> dict:
    return {
        "label": node.label,
        "ets": node.ets,
        "color": color_hex(node.color),
        "children": [_node_to_obj(child) for child in node.children],
    }


def _node_from_obj(obj: dict) -> TreeNode:
    return TreeNode(
        label=obj["label"],
        ets=obj["ets"],
        color=int(obj["color"].lstrip("#"), 16),
        children=[_node_from_obj(child) for child in obj["children"]],
    )


# ---------------------------------------------------------------------------
# path tables
# ---------------------------------------------------------------------------


def paths_to_table(paths: list[PathRecord], store: AlertStore) -> str:
    """Plain-text table of paths: vertices, PTS, alert count per pair.

    The store supplies the per-pair counts and refreshes its stale scores
    first; an empty path list still yields the header row.
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

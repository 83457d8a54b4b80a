"""Presentation: DOT graphs, a lossless structured tree form, path tables.

All output here is byte-deterministic for equal inputs: node identifiers
are content hashes of the root-to-node label prefix, children are emitted
in stored order, and JSON is dumped with sorted keys.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterator

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
    vertex label; duplicate labels stay distinct because node identifiers
    hash the whole root-to-node prefix. Backward trees draw their edges
    child-to-parent so arrows always follow actual alert direction.
    """
    lines = [
        "digraph alert_tree {",
        "  rankdir=LR;",
        '  node [shape=box, style=filled, fontname="Helvetica"];',
    ]
    node_lines: list[str] = []
    edge_lines: list[str] = []
    for prefix, node, parent_id in _walk(tree.root):
        node_id = _node_id(prefix)
        label = node.label.replace("\\", "\\\\").replace('"', '\\"')
        node_lines.append(
            f'  {node_id} [label="{label}", fillcolor="{color_hex(node.color)}", '
            f'fontcolor="{_text_color(node.color)}"];'
        )
        if parent_id is not None:
            if tree.direction == "forward":
                edge_lines.append(f"  {parent_id} -> {node_id};")
            else:
                edge_lines.append(f"  {node_id} -> {parent_id};")
    lines.extend(node_lines)
    lines.extend(edge_lines)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _walk(root: TreeNode) -> Iterator[tuple[tuple[str, ...], TreeNode, str | None]]:
    """Preorder traversal yielding (prefix, node, parent node id)."""
    stack: list[tuple[tuple[str, ...], TreeNode, str | None]] = [((root.label,), root, None)]
    while stack:
        prefix, node, parent_id = stack.pop()
        yield prefix, node, parent_id
        node_id = _node_id(prefix)
        for child in reversed(node.children):
            stack.append((prefix + (child.label,), child, node_id))


def _node_id(prefix: tuple[str, ...]) -> str:
    digest = hashlib.sha1("\x1f".join(prefix).encode("utf-8")).hexdigest()
    return "n" + digest[:16]


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
        depth = max(len(prefix) for prefix, _, _ in _walk(tree.root))
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

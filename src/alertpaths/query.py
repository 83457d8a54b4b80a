"""Triage queries: ranked path retrieval and alert-tree reconstruction.

Trees are tries over stored vertex sequences. A forward tree gathers every
path with a given origin; a backward tree gathers every path with a given
target and consumes the sequences reversed, so deeper nodes are further
back along the attack. A label reached through two different branches
becomes two distinct nodes, which keeps trees cycle-free even though the
underlying graph is not. Every function here refreshes stale scores
before it reads one. Each takes a `store.PathReader`: an `AlertStore`, or
an `AlertLog`, which answers the same lookups by deriving paths from the
alert log. One function builds both kinds of tree, in one pass over the
reader's `walk`, which yields the root's paths as sorted sequences.
"""

from __future__ import annotations

from .model import AlertTree, Direction, EndpointPair, PathRecord, TreeNode, normalize_color
from .store import PathReader, check_direction, recompute_threat_scores


def retrieve_paths(store: PathReader, origin: str, target: str) -> list[PathRecord]:
    """Stored paths from origin to target, highest PTS first, ties by vertices."""
    recompute_threat_scores(store)
    found = store.find_paths_between(origin, target)
    return sorted(found, key=lambda p: (-p.pts, p.vertices))


def build_forward_tree(store: PathReader, root: str) -> AlertTree:
    """Trie of every stored path that starts at ``root``."""
    return _build_tree(store, root, "forward")


def build_backward_tree(store: PathReader, root: str) -> AlertTree:
    """Trie of every stored path that ends at ``root``, walked backwards."""
    return _build_tree(store, root, "backward")


def top_trees(store: PathReader, k: int, direction: Direction = "forward") -> list[AlertTree]:
    """Trees rooted at the k distinct roots of the highest-PTS paths.

    Roots are ranked by the best PTS among their paths, ties broken by
    label.
    """
    check_direction(direction)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    recompute_threat_scores(store)
    end = 0 if direction == "forward" else -1
    best: dict[str, float] = {}
    for path in store.paths():
        root = path.vertices[end]
        if path.pts > best.get(root, 0.0):  # every scored path has PTS >= 1
            best[root] = path.pts
    roots = sorted(best, key=lambda r: (-best[r], r))[:k]
    return [_build_tree(store, root, direction) for root in roots]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _build_tree(store: PathReader, root: str, direction: Direction) -> AlertTree:
    """The trie of every path from or to ``root``, each read as a sequence
    that starts at the root; a node's ETS is that of the pair its arc stands
    for.

    The path set is prefix- and suffix-closed, so the tree's nodes are
    exactly the root and these sequences. `walk` yields them sorted, a
    preorder, so a node's parent is one level up on the branch last read,
    and one pass creates every node. A stable sort then orders siblings by
    the best PTS at or below each, and ties keep their label order. `walk`
    refreshes stale scores, so every ETS read here is fresh.
    """
    forward = direction == "forward"
    nodes = [TreeNode(root)]  # in preorder, root first
    parents = [0]  # each node's parent, by position in nodes
    best = [0.0]  # the best PTS at or below each node
    branch = [0]  # the positions of the last sequence's nodes
    for sequence, pts in store.walk(root, direction):
        del branch[len(sequence) - 1 :]
        parents.append(branch[-1])
        branch.append(len(nodes))
        parent, label = sequence[-2], sequence[-1]
        pair = EndpointPair(parent, label) if forward else EndpointPair(label, parent)
        # scoring raised StoreError already if a stored path's pair were missing
        nodes.append(TreeNode(label, store.endpoint(pair).ets))
        best.append(pts)
    # children before parents, so each best is final when it is lifted
    for at in range(len(nodes) - 1, 0, -1):
        if best[at] > best[parents[at]]:
            best[parents[at]] = best[at]
    # linked to their parents best first, so each node's children come best first
    for at in sorted(range(1, len(nodes)), key=best.__getitem__, reverse=True):
        nodes[parents[at]].children.append(nodes[at])
    # the nodes' ETS values are the tree's colour scale; the root stays black
    created = nodes[1:]
    max_ets = max((node.ets for node in created), default=0.0)
    for node in created:
        node.color = normalize_color(node.ets, max_ets)
    return AlertTree(nodes[0], direction)

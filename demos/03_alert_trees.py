"""
Reconstructing colored alert trees
==================================

A forward tree answers "where could the attacker have gone from here?",
a backward tree answers "how could they have arrived?".  Shared prefixes
collapse into one branch, siblings are ordered best-path-first, and each
arc is colored by its endpoint score relative to the hottest arc in the
tree.
"""

from __future__ import annotations

from alertpaths import (
    Alert,
    AlertStore,
    build_backward_tree,
    build_forward_tree,
    insert_alert,
    tree_to_dot,
    tree_to_structured,
)

store = AlertStore()
for alert in [
    Alert("a", "b", 1, sid=101, seq=0),
    Alert("b", "c", 2, sid=102, seq=1),
    Alert("a", "c", 3, sid=103, seq=2),
    Alert("c", "b", 4, sid=104, seq=3),
    Alert("a", "b", 5, sid=105, seq=4),
]:
    insert_alert(store, alert)

# The tree builders score the store themselves when it has changed.
forward = build_forward_tree(store, "a")


def walk(node, depth=0):
    score = "" if node.ets is None else f"  ets={node.ets:.2f} #{node.color:06X}"
    print("  " * depth + node.label + score)
    for child in node.children:
        walk(child, depth + 1)


print("forward tree from a")
walk(forward.root)

# The two stored branches a->b->c and a->c->b stay distinct even though
# they visit the same hosts: tree nodes are occurrences, not hosts.
labels = [n.label for n in forward.nodes()]
assert sorted(labels) == ["a", "b", "b", "c", "c"]

print("\nbackward tree into b")
walk(build_backward_tree(store, "b").root)

# Both serializations are deterministic text, ready for files or pipes.
print("\nstructured form")
print(tree_to_structured(forward))

dot = tree_to_dot(forward)
assert dot.startswith("digraph alert_tree {")
print("dot form has", dot.count(" -> "), "edges")

print("\nok")

"""Walks over operator DAGs (nodes reach their producers through ``.inputs``).

The walks are module-level functions that take their state as arguments:
a recursive closure would hold itself, and through its cells everything
it collected, in a reference cycle that only the cyclic collector frees.
"""


def inputs_first(roots):
    """Every node reachable from ``roots``, each after all of its inputs:
    depth-first over ``roots`` and each node's ``inputs`` in order."""
    ordered = []
    seen = set()
    for root in roots:
        if id(root) not in seen:
            _visit(root, seen, ordered)
    return ordered


def _visit(node, seen, ordered):
    seen.add(id(node))
    for parent in node.inputs:
        if id(parent) not in seen:
            _visit(parent, seen, ordered)
    ordered.append(node)

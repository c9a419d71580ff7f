"""The naive shattering-tree search: the slow reference for ``shattering_tree``.

It tries every assignment of instances to tree nodes and labels to edge
annotations, depth-first with backtracking, and checks each completed path
against every admissible collection. It shares no state, search or tree
rule with the engine, at any ``q``, 0 included, which is the point: the
trees it finds must be the engine's trees.
"""

from __future__ import annotations

from typing import Optional

from pflab import BudgetExceeded, GameSpec, ShatteringTree, SpecError
from pflab.game import build_admissible_collections, distinct_images


def naive_tree_oracle(
    spec: GameSpec, d: int, q: int, budget: int | None = None
) -> Optional[ShatteringTree]:
    """Search for a depth-``d`` tree forcing ``q`` events, by direct enumeration.

    The feasibility guard bounds ``(n_instances * n_labels)`` raised to the
    number of internal nodes by ``budget`` (default one million); beyond that
    the enumeration is hopeless and :class:`BudgetExceeded` is raised. The
    guard multiplies in one factor at a time and stops once the count passes
    the budget, so it never builds the power itself.
    """
    if d < 0:
        raise SpecError(f"depth must be nonnegative, got {d}")
    limit = 1_000_000 if budget is None else budget
    # Each factor is at least 2, so the count passes limit within
    # limit.bit_length() + 1 factors, and a depth-d tree has at least d internal
    # nodes: past that depth d stands in for their number, which is not computed.
    internal = d if d > limit.bit_length() else sum(spec.n_labels ** i for i in range(d))
    count, factors = 1, 0
    while count <= limit and factors < internal:
        count, factors = count * spec.n_instances * spec.n_labels, factors + 1
    if count > limit:
        raise BudgetExceeded(
            f"naive oracle guard: a depth-{d} tree has at least {factors} internal nodes, "
            f"and ({spec.n_instances}*{spec.n_labels})^{factors} exceeds {limit}"
        )
    collections = distinct_images(build_admissible_collections(spec))

    nodes: dict = {}
    annotations: dict = {}
    witnesses: dict = {}

    def leaf_ok(path) -> bool:
        for col in collections:
            misses = 0
            consistent = True
            for t in range(d):
                img = col.images[nodes[path[:t]]]
                if not (img >> annotations[path[: t + 1]]) & 1:
                    consistent = False
                    break
                if not (img >> path[t]) & 1:
                    misses += 1
            if consistent and misses >= q:
                witnesses[path] = col.members
                return True
        return False

    def place_node(prefix) -> bool:
        if len(prefix) == d:
            return leaf_ok(prefix)
        for x in range(spec.n_instances):
            nodes[prefix] = x
            if all(place_edge(prefix + (yhat,)) for yhat in range(spec.n_labels)):
                return True
        del nodes[prefix]
        return False

    def place_edge(epath) -> bool:
        for y in range(spec.n_labels):
            annotations[epath] = y
            if place_node(epath):
                return True
        del annotations[epath]
        return False

    if place_node(()):
        return ShatteringTree(depth=d, q=q, nodes=nodes, annotations=annotations, witnesses=witnesses)
    return None

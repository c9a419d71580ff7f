"""Deterministic game dimensions: minimax mistake values and their witnesses.

The central quantity is the value of the mistake game of a given depth over
the admissible collections (see ``pflab.engine``). It equals the largest
number of forced non-membership events certified by a depth-``d`` tree whose
paths are indexed by the learner's predictions and whose edges carry revealed
labels, each path owning a consistent witness collection; the recursion and
the tree picture compute the same number, and ``naive_tree_oracle`` provides
the tree-side computation as a genuinely independent check plus an explicit
witness object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .engine import CollectionEngine, _VersionSpaceEngine
from .errors import BudgetExceeded, SpecError, TreeSpecMismatch, env_budget
from .game import (
    Collection,
    GameSpec,
    Realizability,
    build_admissible_collections,
    collection_of,
    distinct_images,
)
from .setsystems import SetSystem, iter_bits


def pfl_dim(spec: GameSpec, d: int, budget: int | None = None) -> int:
    """Value of the depth-``d`` deterministic mistake game on this spec.

    This is :func:`ppfl_dim` at the empty prefix: every collection alive, no
    round charged.
    """
    return ppfl_dim(spec, (), (), (), d, budget=budget)


def minimax_det_regret(spec: GameSpec, T: int, budget: int | None = None) -> int:
    """Exact minimax regret of the ``T``-round deterministic game.

    The same recursion as :func:`pfl_dim` (the two quantities coincide round
    for round); kept as a separate entry point, gated to fully realizable
    mode, where the comparator term is identically zero.
    """
    if spec.realizability is not Realizability.SET_REALIZABLE:
        raise SpecError(
            "the deterministic minimax value is defined for fully realizable games only"
        )
    return pfl_dim(spec, T, budget=budget)


def ppfl_dim(
    spec: GameSpec,
    prefix_x,
    prefix_y,
    prefix_reveals,
    d: int,
    budget: int | None = None,
) -> int:
    """Prefix-seeded mistake value: prefix events plus the depth-``d`` continuation.

    Only collections consistent with every prefix reveal stay alive; each
    starts charged with its count of prefix rounds whose prediction fell
    outside its image. The prefix's own annotations need no re-optimization:
    the alive set is already exactly the reveal-consistent one, and the
    charged counts do not depend on which feasible annotations are imagined,
    so seeding with the observed reveals loses nothing. Partial feedback
    only: any other mode is a :class:`SpecError`.
    """
    if d < 0:
        raise SpecError(f"depth must be nonnegative, got {d}")
    spec.require_partial_feedback("the mistake value")
    collections = distinct_images(build_admissible_collections(spec))
    engine = CollectionEngine(spec, collections, kind="label", budget=budget)
    return engine.value(*engine.prefix_state(prefix_x, prefix_y, prefix_reveals), d)


# -- shattering trees -------------------------------------------------------------


@dataclass
class ShatteringTree:
    """An explicit witness that the depth-``depth`` game value is at least ``q``.

    ``nodes`` maps each prediction prefix shorter than the depth to the
    instance shown there; ``annotations`` maps each nonempty prediction prefix
    to the label revealed after its last prediction; ``witnesses`` maps each
    full-length prediction path to the member indices of a collection that is
    consistent with every annotation on the path and charges at least ``q``
    of the path's predictions as misses.
    """

    depth: int
    q: int
    nodes: dict = field(default_factory=dict)
    annotations: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)


def verify_shattering_tree(spec: GameSpec, tree: ShatteringTree) -> None:
    """Raise :class:`TreeSpecMismatch` unless the tree certifies ``q`` on ``spec``."""
    d = tree.depth
    if d < 0 or tree.q < 0:
        raise TreeSpecMismatch("negative depth or shattering count")

    def paths(length):
        if length == 0:
            yield ()
            return
        for p in paths(length - 1):
            for y in range(spec.n_labels):
                yield p + (y,)

    for ln in range(d):
        for p in paths(ln):
            if p not in tree.nodes:
                raise TreeSpecMismatch(f"missing node instance for prefix {p}")
            if not 0 <= tree.nodes[p] < spec.n_instances:
                raise TreeSpecMismatch(f"node instance {tree.nodes[p]} out of range")
    for ln in range(1, d + 1):
        for p in paths(ln):
            if p not in tree.annotations:
                raise TreeSpecMismatch(f"missing annotation for prefix {p}")
            if not 0 <= tree.annotations[p] < spec.n_labels:
                raise TreeSpecMismatch(f"annotation {tree.annotations[p]} out of range")
    for leaf in paths(d):
        if leaf not in tree.witnesses:
            raise TreeSpecMismatch(f"missing witness for path {leaf}")
        try:
            col = collection_of(spec, tree.witnesses[leaf])
        except SpecError as e:
            raise TreeSpecMismatch(f"witness for path {leaf} is not admissible: {e}") from e
        misses = 0
        for t in range(d):
            x = tree.nodes[leaf[:t]]
            img = col.images[x]
            if not (img >> tree.annotations[leaf[: t + 1]]) & 1:
                raise TreeSpecMismatch(
                    f"annotation at step {t + 1} of path {leaf} is outside the witness image"
                )
            if not (img >> leaf[t]) & 1:
                misses += 1
        if misses < tree.q:
            raise TreeSpecMismatch(
                f"path {leaf} charges only {misses} misses, tree claims {tree.q}"
            )


def naive_tree_oracle(
    spec: GameSpec, d: int, q: int, budget: int | None = None
) -> Optional[ShatteringTree]:
    """Search for a depth-``d`` tree forcing ``q`` events, by direct enumeration.

    This is the slow, definition-shaped computation: try every assignment of
    instances to tree nodes and labels to edge annotations, depth-first with
    backtracking, checking each completed path against every admissible
    collection. It shares no state or canonicalization with the memoized
    recursion, which is the point: the two must agree, and tests hold them to
    that.

    The feasibility guard bounds ``(n_instances * n_labels)`` raised to the
    number of internal nodes by ``budget`` (default one million); beyond that
    the enumeration is hopeless and :class:`BudgetExceeded` is raised. The
    guard multiplies in one factor at a time and stops once the count passes
    the budget, so it never builds the power itself.
    """
    if d < 0:
        raise SpecError(f"depth must be nonnegative, got {d}")
    limit = env_budget("PFLAB_BUDGET_ORACLE", 1_000_000) if budget is None else budget
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
    if q <= 0:
        tree = ShatteringTree(depth=d, q=q)
        _fill_trivial(spec, collections[0], tree, ())
        return tree

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
        for x in range(spec.n_instances):
            nodes[prefix] = x
            if all(place_edge(prefix + (yhat,)) for yhat in range(spec.n_labels)):
                return True
        del nodes[prefix]
        return False

    def place_edge(epath) -> bool:
        for y in range(spec.n_labels):
            annotations[epath] = y
            ok = leaf_ok(epath) if len(epath) == d else place_node(epath)
            if ok:
                return True
        del annotations[epath]
        return False

    if place_node(()):
        return ShatteringTree(depth=d, q=q, nodes=nodes, annotations=annotations, witnesses=witnesses)
    return None


def _fill_trivial(spec: GameSpec, col: Collection, tree: ShatteringTree, prefix):
    """Populate a zero-event tree consistently from one collection's images."""
    if len(prefix) == tree.depth:
        tree.witnesses[prefix] = col.members
        return
    tree.nodes[prefix] = 0
    y_ok = min(iter_bits(col.images[0]))
    for yhat in range(spec.n_labels):
        tree.annotations[prefix + (yhat,)] = y_ok
        _fill_trivial(spec, col, tree, prefix + (yhat,))


# -- auxiliary dimensions ------------------------------------------------------------


def _variant_system(spec: GameSpec, variant: str) -> SetSystem:
    v = variant.lower()
    if v == "ml":
        return SetSystem.explicit(spec.n_labels, [[y] for y in range(spec.n_labels)])
    if v == "bl":
        full = (1 << spec.n_labels) - 1
        return SetSystem.explicit(
            spec.n_labels, [full ^ (1 << y) for y in range(spec.n_labels)]
        )
    if v == "sl":
        return spec.set_system
    raise SpecError(f"unknown dimension variant {variant!r} (want ml, sl, or bl)")


def ml_sl_bl_dim(
    spec: GameSpec, variant: str, cap: int | None = None, budget: int | None = None
) -> int:
    """Largest depth at which the adversary can keep forcing excluded predictions.

    ``variant`` picks the family the adversary's sets come from: ``ml`` uses
    singletons, ``bl`` uses co-singletons, ``sl`` uses the spec's own system.
    Each round the adversary shows an instance, the learner names a label,
    and the adversary answers with a family set that avoids the label and
    keeps some hypotheses of the version space: those whose label at the
    instance lies in the set. The dimension is the most rounds the adversary
    can keep answering. It is the value of a ``cap``-round game on the
    engine's test search (:class:`pflab.engine._VersionSpaceEngine`), where
    each hypothesis is one collection and every answer charges its
    survivors 1. Values are capped (default horizon + 2): the returned cap
    means "at least this much", and a cap past the dimension costs no more
    search. ``budget`` counts the engine's expanded states
    (default ``PFLAB_BUDGET_STATES``).
    """
    system = _variant_system(spec, variant)
    H = spec.hypotheses
    if H.kind != "explicit":
        raise SpecError("version-space dimensions need an explicit hypothesis class")
    if cap is None:
        cap = spec.horizon + 2
    if cap < 0:
        raise SpecError(f"cap must be nonnegative, got {cap}")
    hypotheses = [
        Collection(members=(h,), images=tuple(1 << y for y in row)) for h, row in enumerate(H.rows)
    ]
    engine = _VersionSpaceEngine(replace(spec, set_system=system), hypotheses, budget=budget)
    return engine.value(*engine.initial_state(), cap)


def dimension_relations_report(spec: GameSpec, d: int) -> dict:
    """Compute the three dimensions and check the relations that apply.

    The singleton-family dimension is compared against the game value only
    when the spec's system contains every singleton (the embedding the
    comparison needs) and the requested depth is at least that dimension
    (below it the game value is depth-starved and the comparison means
    nothing). The combinatorial upper bound on the game value applies only to
    union-closed systems. Inapplicable checks report ``"not_asserted"``.
    """
    pfl = pfl_dim(spec, d)
    ml = ml_sl_bl_dim(spec, "ml", cap=max(d + 1, spec.hypotheses.size))
    sl = ml_sl_bl_dim(spec, "sl", cap=d)
    report = {"d": d, "pfl": pfl, "ml": ml, "sl_capped": sl}
    if spec.set_system.singletons_included() and d >= ml:
        report["ml_le_pfl"] = "holds" if ml <= pfl else "fails"
    else:
        report["ml_le_pfl"] = "not_asserted"
    if spec.set_system.union_closed():
        bound = d - d // (sl + 1)
        report["pfl_bound"] = bound
        report["pfl_le_bound"] = "holds" if pfl <= bound else "fails"
    else:
        report["pfl_le_bound"] = "not_asserted"
    return report

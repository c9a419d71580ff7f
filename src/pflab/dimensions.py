"""Deterministic game dimensions: minimax mistake values and their witnesses.

The central quantity is the value of the mistake game of a given depth over
the admissible collections (see ``pflab.engine``). It equals the largest
number of forced non-membership events certified by a depth-``d`` tree whose
paths are indexed by the learner's predictions and whose edges carry revealed
labels, each path owning a consistent witness collection. The recursion and
the tree picture compute the same number: :func:`shattering_tree` reads such
a tree off the engine's value tests (Knuth and Moore's solution trees, AI
1975), and :func:`verify_shattering_tree` checks any tree against the spec
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product

from .engine import CollectionEngine, _VersionSpaceEngine
from .errors import BudgetExceeded, SpecError, TreeSpecMismatch
from .game import (
    AdmissibleFamily,
    GameSpec,
    Realizability,
    build_admissible_collections,
    collection_of,
    distinct_images,
)
from .setsystems import SetSystem


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
    _require_set_realizable(spec)
    return pfl_dim(spec, T, budget=budget)


def _require_set_realizable(spec: GameSpec) -> None:
    """:func:`minimax_det_regret`'s gate: :class:`SpecError` unless the game is fully realizable."""
    if spec.realizability is not Realizability.SET_REALIZABLE:
        raise SpecError(
            "the deterministic minimax value is defined for fully realizable games only"
        )


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
    engine = _label_engine(spec, budget)
    return engine.value(*engine.prefix_state(prefix_x, prefix_y, prefix_reveals), d)


def _label_engine(spec: GameSpec, budget: int | None) -> CollectionEngine:
    """The mistake game's engine: one collection per image vector, partial feedback only."""
    spec.require_partial_feedback("the mistake value")
    collections = distinct_images(build_admissible_collections(spec))
    return CollectionEngine(spec, collections, kind="label", budget=budget)


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
    """Raise :class:`TreeSpecMismatch` unless the tree certifies ``q`` on ``spec``.

    The depth and ``q`` must be nonnegative plain ints, and every node and
    annotation a plain int in range (a ``bool`` is none of these).
    """
    d, q = tree.depth, tree.q
    if type(d) is not int or type(q) is not int or d < 0 or q < 0:
        raise TreeSpecMismatch(f"depth {d!r} and shattering count {q!r} must be nonnegative ints")

    def paths(length):
        return product(range(spec.n_labels), repeat=length)

    for ln in range(d):
        for p in paths(ln):
            if p not in tree.nodes:
                raise TreeSpecMismatch(f"missing node instance for prefix {p}")
            x = tree.nodes[p]
            if type(x) is not int or not 0 <= x < spec.n_instances:
                raise TreeSpecMismatch(f"node instance {x!r} out of range")
    for ln in range(1, d + 1):
        for p in paths(ln):
            if p not in tree.annotations:
                raise TreeSpecMismatch(f"missing annotation for prefix {p}")
            y = tree.annotations[p]
            if type(y) is not int or not 0 <= y < spec.n_labels:
                raise TreeSpecMismatch(f"annotation {y!r} out of range")
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
        if misses < q:
            raise TreeSpecMismatch(f"path {leaf} charges only {misses} misses, tree claims {q}")


# The most internal nodes a shattering tree may have: two labels fit up to
# depth 16, six up to depth 7.
TREE_NODES = 1 << 16


def shattering_tree(spec: GameSpec, d: int, budget: int | None = None) -> ShatteringTree:
    """The depth-``d`` shattering tree at the game value ``q``, read off the engine.

    One rule builds every node, at every ``q``, 0 included, and every
    choice tests the root target ``q``, never a child's own value: a node
    takes the lowest instance at which every prediction has a feasible
    reveal whose child still reaches ``q``, an edge takes the lowest such
    reveal, and a leaf the lowest-id alive collection whose score is at
    least ``q``: the first tree a backtracking search over instances and
    labels, lowest first, would find. The engine's ``reaching`` gives each
    node's instance and reveals, ``update`` builds each edge's child once,
    and the engine's memo shares the work of every test.

    The root is solved first, exactly as :func:`pfl_dim` solves it, so the
    tree's ``q`` is the value and every error of that solve comes first.
    Then a tree of more than ``TREE_NODES`` internal nodes is refused with
    :class:`BudgetExceeded` before any of it is built; the count is added
    one level at a time, so a deep request builds no huge power. ``budget``
    bounds the engine's search as it does for :func:`pfl_dim`.
    """
    if d < 0:
        raise SpecError(f"depth must be nonnegative, got {d}")
    engine = _label_engine(spec, budget)
    root = engine.initial_state()
    q = engine.value(*root, d)
    internal, width = 0, 1
    for _ in range(d):
        internal, width = internal + width, width * spec.n_labels
        if internal > TREE_NODES:
            raise BudgetExceeded(
                f"a depth-{d} shattering tree has more than {TREE_NODES} internal nodes"
            )
    tree = ShatteringTree(depth=d, q=q)

    def grow(prefix, state, rounds):
        if rounds == 0:
            base, levels = state
            reached = sum(mask for s, mask in levels if base + s >= q)
            cid = (reached & -reached).bit_length() - 1
            tree.witnesses[prefix] = engine.collections[cid].members
            return
        x, tags = engine.reaching(*state, rounds, q)
        tree.nodes[prefix] = x
        for yhat, y in enumerate(tags):
            tree.annotations[prefix + (yhat,)] = y
            grow(prefix + (yhat,), engine.update(*state, x, yhat, y), rounds - 1)

    try:
        grow((), root, d)
    finally:
        del grow  # its closure holds grow itself: a cycle only the cyclic collector frees
    return tree


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
    # Each hypothesis is the collection of itself alone; its row word is
    # its packed image vector.
    spec = replace(spec, set_system=system)
    hypotheses = AdmissibleFamily(
        spec, [1 << h for h in range(H.size)], [H._row_words[h] for h in range(H.size)]
    )
    engine = _VersionSpaceEngine(spec, hypotheses, budget=budget)
    return engine.value(*engine.initial_state(), cap)


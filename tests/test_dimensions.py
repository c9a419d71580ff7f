"""Label-feedback dimensions, and shattering trees against the naive search."""

import collections
import dataclasses
import itertools
from fractions import Fraction
from pathlib import Path

import pytest

from pflab import (
    BudgetExceeded,
    CollisionFamily,
    EmptyConsistentSet,
    GameSpec,
    HypothesisClass,
    Measure,
    PotentialMinimizingLearner,
    SetSystem,
    SpecError,
    TreeSpecMismatch,
    binary_full_system_family,
    collision_game,
    helly_game,
    minimax_det_regret,
    minimax_rand_regret,
    ml_sl_bl_dim,
    load_spec_file,
    pfl_dim,
    pms_dim,
    ppfl_dim,
    ppms_dim,
    shattering_tree,
    small_binary_family,
    ternary_slice,
    verify_shattering_tree,
)
from pflab import dimensions
from pflab.cli import _tree_text
from pflab.replicate import worst_case_vs_learner
from pflab.setsystems import labels_of

from conftest import bounded_and_listed, two_constant_game
from naive_tree import naive_tree_oracle
from test_properties import spec_from_seed

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"


def test_two_constant_dimension_is_one_at_every_depth():
    spec = two_constant_game()
    for d in (1, 2, 3):
        assert pfl_dim(spec, d) == 1
    assert pfl_dim(spec, 0) == 0


def test_two_constant_regret_equals_dimension():
    spec = two_constant_game()
    for T in (1, 2, 3):
        assert minimax_det_regret(spec, T) == pfl_dim(spec, T)


def test_two_constant_multiclass_variants():
    spec = two_constant_game()
    assert ml_sl_bl_dim(spec, "ml") == 1
    assert ml_sl_bl_dim(spec, "sl") == 1
    assert ml_sl_bl_dim(spec, "bl") == 1
    with pytest.raises(SpecError):
        ml_sl_bl_dim(spec, "zl")


@pytest.mark.parametrize("feedback", ["set_valued", "multiclass", "bandit"])
def test_values_reject_feedback_they_do_not_solve(feedback):
    """Every value entry point solves the partial-feedback game only, and says so.

    On this spec with partial feedback the values are 1 (``pfl``) and 1/2
    (randomized regret); they used to be returned for every feedback mode.
    """
    spec = GameSpec(
        n_instances=1,
        n_labels=2,
        set_system=SetSystem.explicit(2, [0b01, 0b10, 0b11]),
        hypotheses=HypothesisClass.explicit(1, 2, [(0,), (1,)]),
        horizon=2,
    )
    assert (pfl_dim(spec, 2), minimax_rand_regret(spec, 2, g=2)) == (1, Fraction(1, 2))
    spec = dataclasses.replace(spec, feedback=feedback)
    for call in (
        lambda: pfl_dim(spec, 2),
        lambda: ppfl_dim(spec, (0,), (0,), (1,), 1),
        lambda: minimax_det_regret(spec, 2),
        lambda: pms_dim(spec, 2, Fraction(1, 2), g=2),
        lambda: ppms_dim(spec, (), (), (), 2, Fraction(1, 2), g=2),
        lambda: minimax_rand_regret(spec, 2, g=2),
    ):
        with pytest.raises(SpecError, match=f"partial feedback only, not {feedback}$"):
            call()


def test_helly_dimension_is_one():
    spec = helly_game(3)
    assert pfl_dim(spec, 1) == 1
    assert pfl_dim(spec, 2) == 1


def test_prefix_seeding():
    spec = two_constant_game()
    # empty prefix reproduces the plain dimension
    assert ppfl_dim(spec, (), (), (), 2) == pfl_dim(spec, 2)
    # reveal 1 leaves only the constant-1 rule alive; a correct prediction
    # carries no charge and nothing more can be forced
    assert ppfl_dim(spec, (0,), (1,), (1,), 2) == 0
    # same reveal after a wrong prediction keeps the forced mistake on the books
    assert ppfl_dim(spec, (0,), (0,), (1,), 2) == 1


def test_prefix_validation():
    spec = two_constant_game()
    with pytest.raises(SpecError):
        ppfl_dim(spec, (0,), (1,), (), 1)
    with pytest.raises(SpecError):
        ppfl_dim(spec, (5,), (1,), (1,), 1)
    with pytest.raises(SpecError):
        ppfl_dim(spec, (0,), (9,), (1,), 1)
    with pytest.raises(SpecError):
        ppfl_dim(spec, (0,), (1,), (None,), 1)
    # A bool is not an instance or a label, though it compares equal to one.
    helly = helly_game(2)
    for prefix in ([False], [0], [0]), ([0], [False], [0]), ([0], [0], [True]):
        with pytest.raises(SpecError, match="outside range"):
            ppfl_dim(helly, *prefix, 1)
    # The first instance and label past each range: one instance, six labels.
    for prefix in ([1], [0], [0]), ([0], [6], [0]), ([0], [0], [6]):
        with pytest.raises(SpecError, match="outside range"):
            ppfl_dim(helly, *prefix, 1)
    for prefix in ([False], [Measure.delta(6, 0)], [0]), ([0], [Measure.delta(6, 0)], [True]):
        with pytest.raises(SpecError, match="outside range"):
            ppms_dim(helly, *prefix, 1, 0)


def test_prefix_can_exhaust_consistency():
    spec = two_constant_game()
    with pytest.raises(EmptyConsistentSet):
        ppfl_dim(spec, (0, 0), (0, 0), (0, 1), 1)


def test_naive_oracle_produces_verifiable_tree():
    spec = two_constant_game()
    tree = naive_tree_oracle(spec, 1, 1, budget=10_000)
    assert tree is not None
    assert tree.nodes == {(): 0}
    assert tree.annotations == {(0,): 1, (1,): 0}
    assert tree.witnesses == {(0,): (1,), (1,): (0,)}
    verify_shattering_tree(spec, tree)
    # one round cannot force two mistakes
    assert naive_tree_oracle(spec, 1, 2, budget=10_000) is None
    assert naive_tree_oracle(spec, 2, 2, budget=100_000) is None
    assert shattering_tree(spec, 1) == tree


def test_tampered_tree_is_rejected():
    spec = two_constant_game()
    tree = shattering_tree(spec, 1)
    bad = dataclasses.replace(tree, witnesses={(0,): (0,), (1,): (0,)})
    with pytest.raises(TreeSpecMismatch):
        verify_shattering_tree(spec, bad)
    deeper = dataclasses.replace(tree, q=2)
    with pytest.raises(TreeSpecMismatch):
        verify_shattering_tree(spec, deeper)


@pytest.mark.parametrize(
    "field, value",
    [("depth", 1.0), ("depth", True), ("depth", -1), ("q", 1.0), ("q", "1"), ("q", -1),
     ("nodes", {(): 0.5}), ("nodes", {(): True}), ("nodes", {(): 2}), ("nodes", {(): -1}),
     ("annotations", {(0,): 1.0, (1,): 0}), ("annotations", {(0,): True, (1,): 0}),
     ("annotations", {(0,): 1, (1,): 3}), ("annotations", {(0,): 1, (1,): None})],
)
def test_verification_refuses_values_that_are_not_plain_ints_in_range(field, value):
    # A node of 0.5 indexed a tuple and an annotation of 1.0 was shifted by,
    # both with a TypeError, and a True node passed as instance 1.
    spec = GameSpec(
        n_instances=2,
        n_labels=2,
        set_system=SetSystem.explicit(2, [0b01, 0b10]),
        hypotheses=HypothesisClass.explicit(2, 2, [[0, 0], [1, 1]]),
        horizon=1,
    )
    tree = shattering_tree(spec, 1)
    verify_shattering_tree(spec, tree)
    with pytest.raises(TreeSpecMismatch):
        verify_shattering_tree(spec, dataclasses.replace(tree, **{field: value}))


def test_naive_oracle_guard():
    """The guard raises exactly when ``(n_x * n_y) ** internal > budget``.

    It multiplies in one factor at a time rather than building the power,
    and past depth ``budget.bit_length()`` it does not count the nodes.
    """
    spec = two_constant_game()
    with pytest.raises(BudgetExceeded):
        naive_tree_oracle(spec, 20, 1)
    for n_x, n_y in [(1, 2), (2, 2), (1, 3), (3, 2), (2, 3)]:
        spec = GameSpec(
            n_instances=n_x,
            n_labels=n_y,
            set_system=SetSystem.full_power_set(n_y),
            hypotheses=HypothesisClass.explicit(n_x, n_y, [[0] * n_x, [1] * n_x]),
            horizon=1,
        )
        for d in range(8):
            internal = sum(n_y ** i for i in range(d))
            for budget in (0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 63, 64, 81, 1000, 4096, 10**6):
                if (n_x * n_y) ** internal > budget:
                    with pytest.raises(BudgetExceeded, match="naive oracle guard"):
                        naive_tree_oracle(spec, d, 0, budget=budget)
                else:
                    assert naive_tree_oracle(spec, d, 0, budget=budget).depth == d


def test_the_node_bound_refuses_exactly_the_trees_past_it(monkeypatch):
    """A tree of more than ``TREE_NODES`` internal nodes is refused before it is built."""
    for n_y, fits, past in [(2, 16, 17), (3, 10, 11), (6, 7, 8)]:
        assert sum(n_y ** i for i in range(fits)) <= dimensions.TREE_NODES
        assert sum(n_y ** i for i in range(past)) > dimensions.TREE_NODES
    spec = load_spec_file(str(SPEC_DIR / "overlap_triple.yaml")).spec
    with pytest.raises(BudgetExceeded, match="more than 65536 internal nodes"):
        shattering_tree(spec, 8)
    # The count is exact at a smaller bound: 1 + 6 + 36 = 43 nodes fit, 259 do not.
    monkeypatch.setattr(dimensions, "TREE_NODES", 43)
    assert len(shattering_tree(spec, 3).nodes) == 43
    with pytest.raises(BudgetExceeded, match="more than 43 internal nodes"):
        shattering_tree(spec, 4)
    # The engine's own budget bounds its search, as it does for the value.
    with pytest.raises(BudgetExceeded, match="expanded states"):
        shattering_tree(spec, 3, budget=0)


def _full_system_at_depth_2():
    """``binary_full_system_family()`` at horizon 2: 218 classes, values 0, 1 and 2."""
    return [
        (slug, dataclasses.replace(spec, horizon=2)) for slug, spec in binary_full_system_family()
    ]


def _tree_cases():
    """``(group, name, spec, depth, naive budget)``.

    The family specs and the full-system classes at their horizon, the
    samples at depths 0-3.
    """
    for slug, spec in list(small_binary_family()) + list(ternary_slice()):
        yield "family", slug, spec, spec.horizon, 10_000
    for slug, spec in _full_system_at_depth_2():
        yield "full", slug, spec, spec.horizon, 10_000
    for path in sorted(SPEC_DIR.glob("*.yaml")):
        for d in range(4):
            yield "samples", path.stem, load_spec_file(str(path)).spec, d, None


def test_engine_trees_equal_the_naive_search():
    """Every engine tree verifies, and equals the naive tree wherever that search finishes.

    The naive search also finds no tree one event above the value, at every
    depth, 0 included. It finishes on 345 of the 411 family specs at a
    budget of 10,000, on all 218 full-system classes at depth 2, and on 10
    of the 12 sample cases at its default budget.
    """
    finished = {"family": 0, "full": 0, "samples": 0}
    for group, name, spec, d, budget in _tree_cases():
        tree = shattering_tree(spec, d)
        verify_shattering_tree(spec, tree)
        assert tree.q == pfl_dim(spec, d), name
        try:
            reference = naive_tree_oracle(spec, d, tree.q, budget=budget)
            above = naive_tree_oracle(spec, d, tree.q + 1, budget=budget)
        except BudgetExceeded:
            continue
        assert reference == tree, (name, d)
        assert _tree_text(reference) == _tree_text(tree)
        assert above is None, (name, d)
        finished[group] += 1
    assert finished == {"family": 345, "full": 218, "samples": 10}


def test_full_system_values_of_two_are_certified_on_both_sides():
    """At depth 2 the tree's ``q`` equals the potential learner's exact worst case.

    The families of ``det-minimax-equals-dimension`` have values 0 and 1
    only; here 118 of the 218 classes have value 2.
    """
    values = collections.Counter()
    for slug, spec in _full_system_at_depth_2():
        tree = shattering_tree(spec, spec.horizon)
        verify_shattering_tree(spec, tree)
        assert worst_case_vs_learner(spec, PotentialMinimizingLearner) == tree.q, slug
        values[tree.q] += 1
    assert values == {0: 8, 1: 92, 2: 118}


def test_sl_on_a_bounded_system_equals_the_listed_sets():
    """The maximal excluding sets of a bounded system give the listed system's values.

    Under ``all_nonempty_up_to: K`` they are the other alive labels, or
    their ``K``-subsets; the listed system filters its member sets instead.
    """
    values = []
    for seed in range(300):
        bounded, listed = bounded_and_listed(seed)
        values.append(ml_sl_bl_dim(bounded, "sl"))
        assert ml_sl_bl_dim(listed, "sl") == values[-1], seed
    assert len(set(values)) > 2


def reference_ml_sl_bl(spec, variant):
    """``ml_sl_bl_dim`` at its default cap, straight from the definition.

    The version space is a list of hypothesis ids and the sets are Python
    sets of labels, read from the rows one hypothesis at a time: no
    bitmasks, no merging of equal candidates and no memo.
    """
    labels = range(spec.n_labels)
    family = {
        "ml": [{y} for y in labels],
        "bl": [set(labels) - {y} for y in labels],
        "sl": [set(labels_of(m)) for m in spec.set_system.members()],
    }[variant]
    rows = spec.hypotheses.rows

    def reach(version_space, k):
        if k == 0:
            return True
        return any(
            all(
                any(
                    y not in s and sub and reach(sub, k - 1)
                    for s in family
                    for sub in [[h for h in version_space if rows[h][x] in s]]
                )
                for y in labels
            )
            for x in range(spec.n_instances)
        )

    k = 0
    while k < spec.horizon + 2 and reach(list(range(len(rows))), k + 1):
        k += 1
    return k


def test_ml_sl_bl_equal_the_naive_reference():
    """Explicit systems, bounded systems and the same bounded sets listed."""
    values = set()
    for seed in range(300):
        specs = [spec_from_seed(seed, horizon=1 + seed % 3), *bounded_and_listed(seed)]
        for spec, variant in itertools.product(specs, ("ml", "sl", "bl")):
            want = reference_ml_sl_bl(spec, variant)
            assert ml_sl_bl_dim(spec, variant) == want, (seed, spec.set_system.kind, variant)
            values.add((spec.set_system.kind, variant, want))
    assert {k for _, _, k in values} == {0, 1, 2, 3}
    assert len(values) > 15


# Six constant hypotheses on one instance and three pairwise-overlapping sets
# (specs/overlap_triple.yaml), and the modulus-5 collision game on a bounded
# system: the explicit and the bounded move tables.
OVERLAP_TRIPLE = GameSpec(
    n_instances=1,
    n_labels=6,
    set_system=SetSystem.explicit(6, [[0, 1, 3], [2, 3, 5], [1, 4, 5]]),
    hypotheses=HypothesisClass.explicit(1, 6, [[y] for y in range(6)]),
    horizon=3,
)
COLLISION_5 = collision_game(CollisionFamily(modulus=5, slopes=(0, 1), pool=(0, 1, 2)), horizon=3)
PINNED_IDS = ["overlap-ml", "overlap-sl", "overlap-bl", "collision-ml", "collision-sl", "collision-bl"]
# Twenty constant hypotheses under all_nonempty_up_to: 20. Each edge has one
# maximal excluding set, the other alive labels, where listing every subset
# of the alive labels would take 2^20 sets per state.
CONSTANTS_20 = GameSpec(
    n_instances=1,
    n_labels=20,
    set_system=SetSystem.all_nonempty_up_to(20, 20),
    hypotheses=HypothesisClass.explicit(1, 20, [[y] for y in range(20)]),
    horizon=2,
)


@pytest.mark.parametrize(
    "spec, variant, value, nodes",
    [
        (OVERLAP_TRIPLE, "ml", 1, 1),
        (OVERLAP_TRIPLE, "sl", 2, 10),
        (OVERLAP_TRIPLE, "bl", 5, 230),
        (COLLISION_5, "ml", 2, 29),
        (COLLISION_5, "sl", 5, 167),
        (COLLISION_5, "bl", 5, 150),
        (CONSTANTS_20, "sl", 4, 1834),
    ],
    ids=[*PINNED_IDS, "constants20-sl"],
)
def test_pinned_ml_sl_bl_nodes(spec, variant, value, nodes):
    """A budget of exactly the recorded node count passes; one less raises."""
    assert ml_sl_bl_dim(spec, variant, budget=nodes) == value
    with pytest.raises(BudgetExceeded) as info:
        ml_sl_bl_dim(spec, variant, budget=nodes - 1)
    assert info.value.spent == nodes


def smallest_budget(spec, variant, cap):
    """The smallest budget under which ``ml_sl_bl_dim`` at ``cap`` returns."""
    lo, hi = 0, 1
    while True:
        try:
            ml_sl_bl_dim(spec, variant, cap=cap, budget=hi)
            break
        except BudgetExceeded:
            lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            ml_sl_bl_dim(spec, variant, cap=cap, budget=mid)
            hi = mid
        except BudgetExceeded:
            lo = mid
    return hi


@pytest.mark.parametrize(
    "spec, variant",
    [(s, v) for s in (OVERLAP_TRIPLE, COLLISION_5) for v in ("ml", "sl", "bl")],
    ids=PINNED_IDS,
)
def test_ml_sl_bl_cost_does_not_grow_with_the_cap(spec, variant):
    """A cap past the dimension costs no more search than the dimension plus one.

    Every answer charges its survivors, so the search stops once the
    threshold is out of reach, however many rounds the cap leaves.
    """
    value = ml_sl_bl_dim(spec, variant, cap=5000)
    assert value < 5000
    assert ml_sl_bl_dim(spec, variant, cap=value + 1) == value
    nodes = smallest_budget(spec, variant, cap=value + 1)
    assert ml_sl_bl_dim(spec, variant, cap=5000, budget=nodes) == value
    with pytest.raises(BudgetExceeded):
        ml_sl_bl_dim(spec, variant, cap=5000, budget=nodes - 1)

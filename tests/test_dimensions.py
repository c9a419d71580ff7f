"""Label-feedback dimensions, shattering trees, and the naive oracle."""

import dataclasses

import pytest

from pflab import (
    BudgetExceeded,
    EmptyConsistentSet,
    SpecError,
    TreeSpecMismatch,
    dimension_relations_report,
    helly_game,
    minimax_det_regret,
    ml_sl_bl_dim,
    naive_tree_oracle,
    pfl_dim,
    ppfl_dim,
    verify_shattering_tree,
)

from conftest import bounded_and_listed, two_constant_game


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


def test_relations_report():
    rep = dimension_relations_report(two_constant_game(), 2)
    assert rep["pfl"] == 1
    assert rep["ml"] == 1
    assert rep["ml_le_pfl"] == "holds"
    assert rep["pfl_le_bound"] == "not_asserted"


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


def test_tampered_tree_is_rejected():
    spec = two_constant_game()
    tree = naive_tree_oracle(spec, 1, 1, budget=10_000)
    bad = dataclasses.replace(tree, witnesses={(0,): (0,), (1,): (0,)})
    with pytest.raises(TreeSpecMismatch):
        verify_shattering_tree(spec, bad)
    deeper = dataclasses.replace(tree, q=2)
    with pytest.raises(TreeSpecMismatch):
        verify_shattering_tree(spec, deeper)


def test_naive_oracle_guard():
    spec = two_constant_game()
    with pytest.raises(BudgetExceeded):
        naive_tree_oracle(spec, 20, 1)


def test_sl_on_a_bounded_system_equals_the_listed_sets():
    """The bounded branch enumerates subsets of the image, not the system."""
    values = []
    for seed in range(300):
        bounded, listed = bounded_and_listed(seed)
        values.append(ml_sl_bl_dim(bounded, "sl"))
        assert ml_sl_bl_dim(listed, "sl") == values[-1], seed
    assert len(set(values)) > 2

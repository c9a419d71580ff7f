"""Acceptance gate: every built-in replication check must pass.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per check.
The same table is available from the command line as ``pflab replicate``.

Each side of a check is load-bearing: a check fails when one quantity it
compares is off by one.
"""

import dataclasses

import pytest

from pflab import pfl_dim, shattering_tree, small_binary_family, verify_shattering_tree
from pflab import replicate
from pflab.replicate import CHECKS


@pytest.mark.parametrize("slug,check", CHECKS, ids=[slug for slug, _ in CHECKS])
def test_replication_check(slug, check):
    result = check()
    tag = "PASS" if result.passed else "FAIL"
    print(f"[{tag}] {slug}: {result.detail}")
    assert result.passed, f"{slug}: {result.detail}"


# One family spec of value 0 and one of value 1, both at horizon 2.
VALUE_0, VALUE_1 = "y2-s0-x1-h0-t2", "y2-s2-x1-h2-t2"


def _two_specs(monkeypatch):
    """Run the family checks on ``VALUE_0`` and ``VALUE_1`` only."""
    family = [(slug, spec) for slug, spec in small_binary_family() if slug in (VALUE_0, VALUE_1)]
    monkeypatch.setattr(replicate, "small_binary_family", lambda: family)
    monkeypatch.setattr(replicate, "ternary_slice", lambda: [])
    return dict(family)


def test_det_minimax_fails_a_verified_tree_below_the_value(monkeypatch):
    specs = _two_specs(monkeypatch)
    assert replicate.check_det_minimax_equals_dimension().passed

    def lowered(spec, d):
        tree = shattering_tree(spec, d)
        return dataclasses.replace(tree, q=max(tree.q - 1, 0))

    verify_shattering_tree(specs[VALUE_1], lowered(specs[VALUE_1], 2))
    monkeypatch.setattr(replicate, "shattering_tree", lowered)
    result = replicate.check_det_minimax_equals_dimension()
    assert (result.passed, result.detail) == (
        False, f"{VALUE_1}: the potential learner's worst case 1 != the tree's 0"
    )


@pytest.mark.parametrize("delta", [-1, 1])
def test_det_minimax_fails_a_learner_worst_case_off_by_one(monkeypatch, delta):
    _two_specs(monkeypatch)
    worst = replicate.worst_case_vs_learner
    monkeypatch.setattr(
        replicate, "worst_case_vs_learner", lambda spec, learner: worst(spec, learner) + delta
    )
    result = replicate.check_det_minimax_equals_dimension()
    assert (result.passed, result.detail) == (
        False,
        f"{VALUE_0}: the potential learner's worst case {delta} != the tree's 0; "
        f"{VALUE_1}: the potential learner's worst case {1 + delta} != the tree's 1",
    )


@pytest.mark.parametrize(
    "check, delta",
    [(replicate.check_multiclass_dim_below_pfl, -1), (replicate.check_pfl_union_closed_bound, 1)],
    ids=["multiclass-dim-below-pfl", "pfl-union-closed-bound"],
)
def test_relation_checks_fail_a_dimension_off_by_one(monkeypatch, check, delta):
    monkeypatch.setattr(replicate, "pfl_dim", lambda spec, d: pfl_dim(spec, d) + delta)
    result = check()
    assert not result.passed and "(+" in result.detail, result.detail

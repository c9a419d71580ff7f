"""Measure-prediction dimensions, the selection procedure, and randomized values."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pflab import (
    Measure,
    SetSystem,
    SpecError,
    agnostic_game,
    cube_game,
    helly_game,
    measure_grid,
    minimax_rand_regret,
    msp,
    pms_dim,
    ppms_dim,
)
from pflab.replicate import msp_reference

from conftest import two_constant_game


def test_two_constant_pms_frozen():
    spec = two_constant_game()
    v = pms_dim(spec, 2, Fraction(1, 2), g=1)
    assert v == 1
    # at gamma = 1 only total misses count; the g=1 grid still forces one,
    # the g=2 grid lets the learner hedge at 1/2-1/2 forever
    assert pms_dim(spec, 2, 1, g=1) == 1
    assert pms_dim(spec, 2, 1, g=2) == 0


def test_helly_pms_frozen():
    assert pms_dim(helly_game(3), 1, Fraction(1, 3), g=6) == 1


def test_gamma_domain():
    spec = two_constant_game()
    with pytest.raises(SpecError):
        pms_dim(spec, 1, Fraction(3, 2), g=2)
    with pytest.raises(SpecError):
        pms_dim(spec, 1, Fraction(-1, 2), g=2)
    with pytest.raises(SpecError):
        pms_dim(spec, -1, Fraction(1, 2), g=2)


def test_rand_regret_frozen():
    spec = two_constant_game()
    for T in (1, 2, 3):
        assert minimax_rand_regret(spec, T, g=2) == Fraction(1, 2)
        assert minimax_rand_regret(spec, T, g=4) == Fraction(1, 2)
    hg = helly_game(3)
    assert minimax_rand_regret(hg, 1, g=6) == Fraction(1, 3)
    assert minimax_rand_regret(hg, 2, g=6) == Fraction(1, 3)


def test_rand_regret_gates():
    with pytest.raises(SpecError):
        minimax_rand_regret(agnostic_game(3), 1, g=2)
    with pytest.raises(SpecError):
        minimax_rand_regret(cube_game(2, 3, visibility="public"), 1, g=2)


def test_ppms_prefix_seeding():
    spec = two_constant_game()
    half = Fraction(1, 2)
    hedge = Measure.uniform_over(2, [0, 1])
    # hedging at 1/2 triggers the gamma event against the surviving collection
    assert ppms_dim(spec, (0,), (hedge,), (1,), 0, half, g=2) == 1
    # committing to the revealed label does not
    assert ppms_dim(spec, (0,), (Measure.delta(2, 1),), (1,), 0, half, g=2) == 0
    # a single surviving singleton collection yields nothing further
    assert ppms_dim(spec, (0,), (hedge,), (1,), 2, half, g=2) == 1
    with pytest.raises(SpecError):
        ppms_dim(spec, (0,), (0,), (1,), 1, half, g=2)


def test_msp_worked_examples():
    system = SetSystem.explicit(2, [0b01, 0b10])
    jumped = [Measure.delta(2, 0), Measure.delta(2, 1), Measure.delta(2, 1)]
    quarters = [Fraction(1, 4)] * 3
    assert msp(3, jumped, quarters, system) == 1
    assert msp(3, [Measure.delta(2, 0)] * 3, quarters, system) == 3
    with pytest.raises(SpecError):
        msp(3, jumped, quarters[:2], system)
    with pytest.raises(SpecError):
        msp(3, jumped, [Fraction(0), Fraction(1, 4), Fraction(1, 4)], system)
    with pytest.raises(SpecError):
        msp(3, jumped, [Fraction(1, 4), Fraction(1), Fraction(1, 4)], system)


def test_pms_dim_is_a_plain_int():
    v = pms_dim(two_constant_game(), 2, Fraction(1, 2), g=1)
    assert type(v) is int


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_msp_matches_reference(seed):
    rng = random.Random(seed)
    system = SetSystem.explicit(2, [0b01, 0b10, 0b11])
    grid = measure_grid(2, 6)
    n = rng.randint(2, 5)
    measures = [rng.choice(grid) for _ in range(n)]
    thresholds = [Fraction(rng.randint(1, 11), 12) for _ in range(n)]
    assert msp(n, measures, thresholds, system) == msp_reference(n, measures, thresholds, system)

"""Measure-prediction dimensions, the selection procedure, and randomized values."""

import random
from fractions import Fraction

import pytest

from pflab import (
    Measure,
    SetSystem,
    SpecError,
    agnostic_game,
    cube_game,
    helly_game,
    minimax_rand_regret,
    msp,
    pms_dim,
    ppms_dim,
)

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


def test_grid_resolution_true_is_a_spec_error():
    """``True`` is no grid resolution, though it compares equal to 1."""
    with pytest.raises(SpecError, match=r"^grid resolution must be a positive integer, got True$"):
        minimax_rand_regret(two_constant_game(), 1, g=True)


def test_grid_resolution_float_is_a_spec_error():
    """A float grid resolution is a spec error, not a bare ``TypeError``."""
    with pytest.raises(SpecError, match=r"^grid resolution must be a positive integer, got 2\.0$"):
        minimax_rand_regret(two_constant_game(), 1, g=2.0)


def test_gamma_true_is_a_spec_error():
    """``True`` is no threshold, though it compares equal to 1."""
    with pytest.raises(SpecError, match=r"^gamma True is not a Fraction or an int$"):
        pms_dim(two_constant_game(), 1, True, g=4)


def test_gamma_float_is_a_spec_error():
    """A float threshold is rounded: 0.1 is not 1/10, so it is refused, as float weights are."""
    with pytest.raises(SpecError, match=r"^gamma 0\.1 is not a Fraction or an int$"):
        pms_dim(two_constant_game(), 1, 0.1, g=4)


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
    # step 1 moves {0} by 1/2 and {1} by 0: no jump, and stability breaks;
    # step 2 moves both by at least 1/2, a jump that comes too late
    system = SetSystem.explicit(3, [0b001, 0b010])
    half = Fraction(1, 2)
    broken = [Measure.delta(3, 0), Measure((half, 0, half)), Measure.delta(3, 1)]
    eighths = [Fraction(1, 8)] * 3
    assert msp(3, broken, eighths, system) == 3
    assert msp(2, broken[1:], eighths[1:], system) == 1


def test_pms_dim_is_a_plain_int():
    v = pms_dim(two_constant_game(), 2, Fraction(1, 2), g=1)
    assert type(v) is int


def msp_reference(N, measures, thresholds, system):
    """Literal two-condition scan of the selection rule, written independently."""
    sets = list(system.members())
    miss = [[pi.miss_mass(s) for s in sets] for pi in measures]
    for m in range(1, N):
        ok = True
        for i in range(2, m + 1):
            biggest = max(
                abs(miss[i - 1][j] - miss[i - 2][j]) for j in range(len(sets))
            )
            if biggest > 2 * thresholds[i - 2]:
                ok = False
                break
        if ok:
            smallest = min(
                abs(miss[m - 1][j] - miss[m][j]) for j in range(len(sets))
            )
            if smallest >= 2 * thresholds[m - 1]:
                return m
    return N


def random_msp_case(rng, max_n):
    """2 to 4 labels, a random set system, and N from 1 to ``max_n`` sixths measures."""
    n_labels = rng.randint(2, 4)
    all_masks = list(range(1, 1 << n_labels))
    rng.shuffle(all_masks)
    system = SetSystem.explicit(n_labels, sorted(all_masks[: rng.randint(1, len(all_masks))]))
    N = rng.randint(1, max_n)
    measures = []
    for _ in range(N):
        cuts = sorted(rng.randint(0, 6) for _ in range(n_labels - 1))
        parts = [a - b for a, b in zip(cuts + [6], [0] + cuts)]
        measures.append(Measure(tuple(Fraction(p, 6) for p in parts)))
    thresholds = [Fraction(rng.randint(1, 11), 12) for _ in range(N)]
    return N, measures, thresholds, system


def test_msp_matches_reference():
    rng = random.Random(0)
    # 1,000 cases with N up to 5, as the replication suite once ran, then long runs
    for max_n, trials in ((5, 1000), (60, 200)):
        for _ in range(trials):
            case = random_msp_case(rng, max_n)
            assert msp(*case) == msp_reference(*case), case

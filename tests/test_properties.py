"""Cross-module invariants checked with hypothesis."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from pflab import (
    AdmissibleEmpty,
    GameSpec,
    HypothesisClass,
    PotentialMinimizingLearner,
    SetSystem,
    VersionSpacePruningLearner,
    build_admissible_collections,
    helly_game,
    make_adversary,
    minimax_rand_regret,
    pfl_dim,
    play_game,
    pms_dim,
    replay_predictions,
)


def spec_from_seed(seed, horizon=2):
    """Small playable spec with at least one admissible collection."""
    while True:
        rng = random.Random(seed)
        n_x = rng.randint(1, 2)
        n_y = rng.randint(2, 3)
        universe = list(range(1, 1 << n_y))
        masks = sorted(rng.sample(universe, rng.randint(1, min(4, len(universe)))))
        rows = sorted({tuple(rng.randrange(n_y) for _ in range(n_x))
                       for _ in range(rng.randint(1, 4))})
        spec = GameSpec(
            n_instances=n_x,
            n_labels=n_y,
            set_system=SetSystem.explicit(n_y, masks),
            hypotheses=HypothesisClass(n_x, n_y, "explicit", tuple(rows)),
            horizon=horizon,
        )
        try:
            build_admissible_collections(spec)
            return spec
        except AdmissibleEmpty:
            seed += 7919


seeds = st.integers(min_value=0, max_value=5_000)


@settings(max_examples=30, deadline=None)
@given(seeds)
def test_dimension_monotone_in_depth(seed):
    spec = spec_from_seed(seed)
    values = [pfl_dim(spec, d) for d in (0, 1, 2, 3)]
    assert values == sorted(values)
    assert values[0] == 0


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_event_count_antitone_in_gamma(seed):
    spec = spec_from_seed(seed)
    gammas = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
    values = [int(pms_dim(spec, 2, gam, g=4)) for gam in gammas]
    assert values == sorted(values, reverse=True)


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_event_count_antitone_under_grid_refinement(seed):
    spec = spec_from_seed(seed)
    values = [int(pms_dim(spec, 2, Fraction(1, 4), g=g)) for g in (1, 2, 4)]
    assert values == sorted(values, reverse=True)


@settings(max_examples=20, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=99))
def test_replay_reproduces_cvsp(seed, adv_seed):
    spec = spec_from_seed(seed)
    t = play_game(spec, VersionSpacePruningLearner(), make_adversary("random", {"seed": adv_seed}))
    assert replay_predictions(spec, t, VersionSpacePruningLearner()) == t.predictions


@settings(max_examples=12, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=99))
def test_replay_reproduces_dpfla(seed, adv_seed):
    spec = spec_from_seed(seed)
    t = play_game(spec, PotentialMinimizingLearner(), make_adversary("random", {"seed": adv_seed}))
    assert replay_predictions(spec, t, PotentialMinimizingLearner()) == t.predictions


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_randomized_value_never_exceeds_deterministic(seed):
    spec = spec_from_seed(seed)
    assert minimax_rand_regret(spec, 2, g=2) <= pfl_dim(spec, 2)


def test_helly_randomized_value_beats_deterministic():
    spec = helly_game(3)
    assert minimax_rand_regret(spec, 3, g=6) == Fraction(1, 3)
    assert pfl_dim(spec, 3) == 1

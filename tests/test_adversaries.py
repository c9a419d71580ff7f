"""Adversary strategies: forcing traces, determinism, and feedback texture."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pflab import (
    CollisionAdversary,
    CollisionFamily,
    CubeAdversary,
    GameSpec,
    HypothesisClass,
    LabelPoolExhausted,
    Learner,
    Measure,
    OptimalAdversary,
    PrefixParityAdversary,
    ScriptedLearner,
    SeededRandomAdversary,
    SetSystem,
    SpecError,
    TwoConstantAgnosticAdversary,
    UniformPrefixLearner,
    VersionSpacePruningLearner,
    agnostic_game,
    collision_game,
    cube_game,
    make_adversary,
    make_learner,
    pf_not_sv_game,
    pfl_dim,
    play_game,
)
from pflab.setsystems import iter_bits

from conftest import two_constant_game


def test_optimal_forces_the_dimension():
    spec = two_constant_game()
    t = play_game(spec, VersionSpacePruningLearner(), OptimalAdversary())
    assert t.loss == pfl_dim(spec, 3) == 1


def test_echo_gives_zero_regret_to_feasible_play():
    spec = two_constant_game()
    t = play_game(spec, make_learner("constant", {"label": 1}),
                  make_adversary("echo", {}))
    assert t.reveals == (1, 1, 1)
    assert t.loss == 0
    assert t.regret == 0


def test_seeded_random_is_reproducible():
    spec = two_constant_game()
    first = play_game(spec, VersionSpacePruningLearner(), make_adversary("random", {"seed": 5}))
    second = play_game(spec, VersionSpacePruningLearner(), make_adversary("random", {"seed": 5}))
    assert first == second


def test_agnostic_trace_frozen():
    spec = agnostic_game(6)
    t = play_game(spec, VersionSpacePruningLearner(),
                  make_adversary("agnostic_two_constant", {}))
    assert t.predictions == (0, 1, 0, 0, 0, 0)
    assert t.reveals == (1, 0, 1, 1, 1, 1)
    assert t.loss == 5
    assert t.comparator == 0
    assert t.regret == 5


def test_public_cube_reveal_rule():
    # the adversary reveals the lowest label whose weight is at most 1 - k
    spec = cube_game(2, 4, visibility="public")
    res = play_game(spec, make_learner("uniform_cube", {"T": 2}),
                    CubeAdversary(Fraction(1, 2)))
    for branch in res.branches:
        for pi, y in zip(branch.transcript.predictions, branch.transcript.reveals):
            assert isinstance(pi, Measure)
            undercovered = [lab for lab, w in enumerate(pi.weights) if w <= Fraction(1, 2)]
            if undercovered:
                assert y == min(undercovered)


@pytest.mark.parametrize("n_labels", range(2, 9))
def test_public_cube_set_table_equals_the_formula(n_labels):
    # A public round's set is the alphabet minus the draw, or minus the lowest
    # other label when the draw is the reveal; the table is filled on first
    # use, so every pair is read twice.
    adversary = CubeAdversary(Fraction(1, 2))
    adversary.begin(cube_game(2, n_labels, visibility="public"))
    full = (1 << n_labels) - 1
    for _ in range(2):
        for y in range(n_labels):
            for z in range(n_labels):
                want = full ^ (1 << (z if z != y else 0 if z else 1))
                assert adversary._public_sets[y, z] == want
                assert want >> y & 1
    assert len(adversary._public_sets) == n_labels**2


class _FixedMeasureLearner(Learner):
    mode = "randomized"

    def __init__(self, weights):
        self._measure = Measure(weights)

    def predict(self, x):
        return self._measure


@pytest.mark.parametrize(
    "learner, reveals, excluded, loss",
    [
        (ScriptedLearner([0, 1, 1]), (1, 0, 0), (0, 1, 1), 3),
        (_FixedMeasureLearner((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6), 0)), (0, 0, 0), (1, 1, 1), 1),
    ],
    ids=["labels", "measure"],
)
def test_oblivious_cube_excludes_the_heaviest_other_label(learner, reveals, excluded, loss):
    # Obliviously the cube adversary drops, each round, the heaviest label
    # other than the reveal (an int prediction is its point mass, and the
    # lowest label wins a tie).
    t = play_game(cube_game(3, 4), learner, CubeAdversary(Fraction(1, 2)))
    assert t.reveals == reveals
    assert t.sets == tuple(0b1111 ^ (1 << z) for z in excluded)
    assert t.loss == loss


def test_label_feedback_forcing_game():
    spec = pf_not_sv_game()
    t = play_game(spec, VersionSpacePruningLearner(), PrefixParityAdversary())
    assert t.loss == 6
    assert t.comparator == 0
    assert t.witness.members == (0, 64)


def test_set_feedback_variant_is_easy():
    # The set-valued mode follows the spec's feedback, also from the registry.
    sv = pf_not_sv_game(set_valued=True)
    for adversary in (PrefixParityAdversary(), make_adversary("pf_not_sv", {})):
        t = play_game(sv, make_learner("first_round_read", {}), adversary)
        assert t.loss <= 1


def test_cvsp_prunes_to_the_revealed_sets():
    # Each revealed set pins the survivors' images; the first one already
    # leaves only candidate 63's pair, so every later prediction is right.
    sv = pf_not_sv_game(set_valued=True)
    t = play_game(sv, VersionSpacePruningLearner(), PrefixParityAdversary())
    assert t.predictions == (64, 63, 63, 63, 63, 63)
    assert t.reveals == (63,) * 6
    assert t.loss == 0
    assert t.witness.members == (63, 127)


def test_prefix_parity_takes_the_sets_in_any_order():
    spec = pf_not_sv_game()
    masks = list(spec.set_system.masks)
    random.Random(3).shuffle(masks)
    shuffled = replace(spec, set_system=SetSystem.explicit(spec.n_labels, masks))
    t = play_game(shuffled, VersionSpacePruningLearner(), PrefixParityAdversary())
    assert (t.loss, t.comparator, t.witness.members) == (6, 0, (0, 64))


def test_prefix_parity_rejects_another_layout():
    spec = pf_not_sv_game()
    rows = spec.hypotheses.rows
    swapped = rows[64:] + rows[:64]
    for other in (
        replace(spec, hypotheses=HypothesisClass.explicit(6, 66, swapped)),
        replace(spec, hypotheses=HypothesisClass.all_functions(6, 66)),
        replace(spec, set_system=SetSystem.all_nonempty_up_to(66, 2)),
        replace(spec, set_system=SetSystem.explicit(66, spec.set_system.masks[:-1])),
    ):
        with pytest.raises(SpecError):
            play_game(other, make_learner("constant", {"label": 0}), PrefixParityAdversary())


def test_collision_needs_an_explicit_class():
    # With one instance and slope 0 the all-functions class over 3 labels
    # holds the family's three tables, but the adversary reads the class's
    # label masks, which only an explicit class has.
    fam = CollisionFamily(modulus=3, slopes=(0,), pool=(0,))
    spec = collision_game(fam, horizon=1)
    assert play_game(spec, make_learner("constant", {}), CollisionAdversary(fam)).regret == 1
    spec = replace(spec, hypotheses=HypothesisClass.all_functions(1, 3))
    with pytest.raises(SpecError, match="label masks need an explicit hypothesis class"):
        play_game(spec, make_learner("constant", {}), CollisionAdversary(fam))


def test_cube_needs_every_co_singleton():
    spec = replace(cube_game(2, 3, visibility="public"),
                   set_system=SetSystem.explicit(3, [0b011, 0b110]))
    with pytest.raises(SpecError, match=r"co-singleton \(0, 2\)"):
        play_game(spec, UniformPrefixLearner(3), CubeAdversary(Fraction(1, 2)))


@pytest.mark.parametrize(
    "masks, missing",
    [([0b01, 0b10], r"\(0, 1\)"), ([0b10, 0b11], r"\(0,\)"), ([0b01, 0b11], r"\(1,\)")],
    ids=["no-pair", "no-0", "no-1"],
)
def test_two_constant_needs_both_singletons_and_the_pair(masks, missing):
    spec = replace(agnostic_game(3), set_system=SetSystem.explicit(2, masks))
    with pytest.raises(SpecError, match=rf"the set {missing} in the set system"):
        play_game(spec, make_learner("constant", {}), TwoConstantAgnosticAdversary())


def test_cube_label_pool_message_names_the_alphabet():
    spec = cube_game(2, 3, visibility="public")
    with pytest.raises(LabelPoolExhausted) as err:
        play_game(spec, UniformPrefixLearner(3), CubeAdversary(1))
    assert str(err.value) == "every one of the spec's 3 labels carries mass above 0"


def test_agnostic_needs_a_fresh_instance_per_round():
    spec = replace(agnostic_game(4), horizon=5)
    with pytest.raises(SpecError, match="fresh instance"):
        play_game(spec, UniformPrefixLearner(2), TwoConstantAgnosticAdversary())
    with pytest.raises(SpecError, match="unused adversary parameters"):
        make_adversary("agnostic_two_constant", {"T": 4})


def _multiclass_spec(sets, rows):
    return GameSpec(
        n_instances=len(rows[0]),
        n_labels=2,
        set_system=SetSystem.explicit(2, sets),
        hypotheses=HypothesisClass.explicit(len(rows[0]), 2, rows),
        horizon=2,
        feedback="multiclass",
    )


@pytest.mark.parametrize(
    "name, params",
    [("optimal", {}), ("echo", {})] + [("random", {"seed": seed}) for seed in range(4)],
    ids=["optimal", "echo", "random0", "random1", "random2", "random3"],
)
def test_collection_adversaries_commit_to_one_hypothesis_under_multiclass(name, params):
    """Multiclass play finalizes singleton sets, so the witness is one hypothesis.

    Collections of two hypotheses that disagree are admissible here too; a
    random adversary committed to one of them broke the protocol.
    """
    spec = _multiclass_spec([(0,), (1,), (0, 1)], [(0, 0), (0, 1), (1, 0)])
    t = play_game(spec, VersionSpacePruningLearner(), make_adversary(name, params))
    assert t.sets == tuple(1 << y for y in t.reveals)
    assert len(t.witness.members) == 1


@pytest.mark.parametrize("name", ["optimal", "echo", "random"])
def test_multiclass_needs_an_admissible_single_hypothesis(name):
    spec = _multiclass_spec([(0, 1)], [(0,), (1,)])
    with pytest.raises(SpecError, match="one-hypothesis collection"):
        make_adversary(name, {}).begin(spec)


def test_random_adversary_picks_a_wide_alive_mask_as_choice_would():
    # The pick must equal rng.choice over the listed alive ids and leave the
    # generator in the same state, so a seed's transcript does not depend on
    # how the set bit is found.
    rng = random.Random(18)
    adversary = SeededRandomAdversary()
    for seed in range(2):
        mask = sum(1 << cid for cid in rng.sample(range(60_000), 50_000))
        adversary._rng, adversary._pick = random.Random(seed), None
        # Two score levels; the alive mask is their union.
        adversary._state = (0, ((0, mask & (1 << 30_000) - 1), (1, mask >> 30_000 << 30_000)))
        reference = random.Random(seed)
        assert adversary._chosen() == reference.choice(list(iter_bits(mask)))
        assert adversary._rng.random() == reference.random()
    for width in range(1, 13):
        for seed in range(30):
            mask = random.Random(seed).getrandbits(width) | 1 << width - 1
            adversary._rng, adversary._pick = random.Random(seed), None
            adversary._state = (0, ((0, mask),))
            assert adversary._chosen() == random.Random(seed).choice(list(iter_bits(mask)))
    # Dense, full, single-bit and two-bit masks up to 20,000 bits wide.
    for width in (31, 32, 33, 64, 65, 1000, 20_000):
        top = 1 << width - 1
        for mask in (rng.getrandbits(width) | top, (top << 1) - 1, top, top | 1):
            bits = list(iter_bits(mask))
            for seed in range(4):
                adversary._rng, adversary._pick = random.Random(seed), None
                adversary._state = (0, ((0, mask),))
                reference = random.Random(seed)
                assert adversary._chosen() == reference.choice(bits)
                assert adversary._rng.getstate() == reference.getstate()
    adversary._rng, adversary._pick = random.Random(0), None
    adversary._state = (0, ((0, 0),))
    with pytest.raises(IndexError):
        adversary._chosen()

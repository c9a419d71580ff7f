"""Adversary strategies: forcing traces, determinism, and feedback texture."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from pflab import (
    HypothesisClass,
    LabelPoolExhausted,
    Measure,
    SetSystem,
    SpecError,
    agnostic_game,
    agnostic_two_constant_adversary,
    cube_game,
    cvsp_learner,
    make_adversary,
    make_learner,
    optimal_adversary,
    pf_not_sv_adversary,
    pf_not_sv_game,
    pfl_dim,
    play_game,
    public_cube_adversary,
    uniform_cube_learner,
)

from conftest import two_constant_game


def test_optimal_forces_the_dimension():
    spec = two_constant_game()
    t = play_game(spec, cvsp_learner(spec), optimal_adversary(spec))
    assert t.loss == pfl_dim(spec, 3) == 1


def test_echo_gives_zero_regret_to_feasible_play():
    spec = two_constant_game()
    t = play_game(spec, make_learner("constant", {"label": 1}, spec),
                  make_adversary("echo", {}, spec))
    assert t.reveals == (1, 1, 1)
    assert t.loss == 0
    assert t.regret == 0


def test_seeded_random_is_reproducible():
    spec = two_constant_game()
    first = play_game(spec, cvsp_learner(spec), make_adversary("random", {"seed": 5}, spec))
    second = play_game(spec, cvsp_learner(spec), make_adversary("random", {"seed": 5}, spec))
    assert first == second


def test_agnostic_trace_frozen():
    spec = agnostic_game(6)
    t = play_game(spec, cvsp_learner(spec),
                  make_adversary("agnostic_two_constant", {}, spec))
    assert t.predictions == (0, 1, 0, 0, 0, 0)
    assert t.reveals == (1, 0, 1, 1, 1, 1)
    assert t.loss == 5
    assert t.comparator == 0
    assert t.regret == 5


def test_public_cube_reveal_rule():
    # the adversary reveals the lowest label whose weight is at most 1 - k
    spec = cube_game(2, 4, visibility="public")
    res = play_game(spec, make_learner("uniform_cube", {"T": 2}, spec),
                    public_cube_adversary(Fraction(1, 2)))
    for branch in res.branches:
        for pi, y in zip(branch.transcript.predictions, branch.transcript.reveals):
            assert isinstance(pi, Measure)
            undercovered = [lab for lab, w in enumerate(pi.weights) if w <= Fraction(1, 2)]
            if undercovered:
                assert y == min(undercovered)


def test_label_feedback_forcing_game():
    spec = pf_not_sv_game()
    t = play_game(spec, cvsp_learner(spec), pf_not_sv_adversary())
    assert t.loss == 6
    assert t.comparator == 0
    assert t.witness.members == (0, 64)


def test_set_feedback_variant_is_easy():
    # The set-valued mode follows the spec's feedback, also from the registry.
    sv = pf_not_sv_game(set_valued=True)
    for adversary in (pf_not_sv_adversary(), make_adversary("pf_not_sv", {}, sv)):
        t = play_game(sv, make_learner("first_round_read", {}, sv), adversary)
        assert t.loss <= 1


def test_cvsp_prunes_to_the_revealed_sets():
    # Each revealed set pins the survivors' images; the first one already
    # leaves only candidate 63's pair, so every later prediction is right.
    sv = pf_not_sv_game(set_valued=True)
    t = play_game(sv, cvsp_learner(sv), pf_not_sv_adversary())
    assert t.predictions == (64, 63, 63, 63, 63, 63)
    assert t.reveals == (63,) * 6
    assert t.loss == 0
    assert t.witness.members == (63, 127)


def test_prefix_parity_takes_the_sets_in_any_order():
    spec = pf_not_sv_game()
    masks = list(spec.set_system.masks)
    random.Random(3).shuffle(masks)
    shuffled = replace(spec, set_system=SetSystem.explicit(spec.n_labels, masks))
    t = play_game(shuffled, cvsp_learner(shuffled), pf_not_sv_adversary())
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
            play_game(other, make_learner("constant", {"label": 0}, other), pf_not_sv_adversary())


def test_cube_needs_every_co_singleton():
    spec = replace(cube_game(2, 3, visibility="public"),
                   set_system=SetSystem.explicit(3, [0b011, 0b110]))
    with pytest.raises(SpecError, match=r"co-singleton \(0, 2\)"):
        play_game(spec, uniform_cube_learner(3), public_cube_adversary(Fraction(1, 2)))


@pytest.mark.parametrize(
    "masks, missing",
    [([0b01, 0b10], r"\(0, 1\)"), ([0b10, 0b11], r"\(0,\)"), ([0b01, 0b11], r"\(1,\)")],
    ids=["no-pair", "no-0", "no-1"],
)
def test_two_constant_needs_both_singletons_and_the_pair(masks, missing):
    spec = replace(agnostic_game(3), set_system=SetSystem.explicit(2, masks))
    with pytest.raises(SpecError, match=rf"the set {missing} in the set system"):
        play_game(spec, make_learner("constant", {}, spec), agnostic_two_constant_adversary())


def test_cube_label_pool_message_names_the_alphabet():
    spec = cube_game(2, 3, visibility="public")
    with pytest.raises(LabelPoolExhausted) as err:
        play_game(spec, uniform_cube_learner(3), public_cube_adversary(1))
    assert str(err.value) == "every one of the spec's 3 labels carries mass above 0"


def test_agnostic_needs_a_fresh_instance_per_round():
    spec = replace(agnostic_game(4), horizon=5)
    with pytest.raises(SpecError, match="fresh instance"):
        play_game(spec, uniform_cube_learner(2), agnostic_two_constant_adversary())
    with pytest.raises(SpecError, match="unused adversary parameters"):
        make_adversary("agnostic_two_constant", {"T": 4}, spec)


def test_adversary_registry_validation():
    spec = two_constant_game()
    with pytest.raises(SpecError):
        make_adversary("nope", {}, spec)
    with pytest.raises(SpecError):
        make_adversary("echo", {"junk": True}, spec)

"""Public play against a slow, independent reference player.

``play_game`` plays a public game on a stack, settles the last round's draws
where they are drawn, forks by sharing what ``begin`` built and memoizes
every check that depends only on an outcome. The reference below does none
of that: it recurses, gives every child deep copies of its parent's
strategies, carries each probability as a ``Fraction`` and runs ``_outcome``
on every leaf. The two must agree branch for branch.
"""

import copy
from dataclasses import replace
from fractions import Fraction

import pytest

from pflab import (
    HELLY_TRANSVERSAL,
    GameView,
    Measure,
    PublicBranch,
    PublicGameResult,
    Transcript,
    agnostic_game,
    cube_game,
    helly_game,
    make_adversary,
    make_learner,
    play_game,
)
from pflab.game import _outcome

from conftest import two_constant_game


def reference_public_play(spec, learner, adversary):
    """Every draw branch of a public, partial-feedback game, by plain recursion."""
    learner.begin(spec)
    adversary.begin(spec)
    branches = []

    def settle(adversary, probability, instances, predictions, reveals, draws):
        view = GameView(spec, instances, predictions, reveals, draws)
        sets = tuple(adversary.finalize_sets(view))
        claimed = adversary.witness_collection()
        claimed = None if claimed is None else tuple(claimed)
        comparator, witness = _outcome(spec, instances, sets, claimed)
        loss = Fraction(sum(1 for z, m in zip(draws, sets) if not m >> z & 1))
        transcript = Transcript(
            instances=instances,
            predictions=predictions,
            reveals=reveals,
            sets=sets,
            loss=loss,
            comparator=comparator,
            regret=loss - comparator,
            draws=draws,
            witness=witness,
        )
        branches.append(PublicBranch(probability, transcript))

    def play(learner, adversary, probability, instances, predictions, reveals, draws):
        if len(instances) == spec.horizon:
            settle(adversary, probability, instances, predictions, reveals, draws)
            return
        x = adversary.choose_instance()
        pred = learner.predict(x)
        y = adversary.reveal(x, pred)
        learner.observe(y)
        if isinstance(pred, Measure):
            weights = pred.weights
        else:
            weights = [Fraction(int(z == pred)) for z in range(spec.n_labels)]
        for z, w in enumerate(weights):
            if not w:
                continue
            child_learner, child_adversary = copy.deepcopy(learner), copy.deepcopy(adversary)
            child_learner.observe_draw(z)
            child_adversary.observe_draw(z)
            play(
                child_learner,
                child_adversary,
                probability * w,
                instances + (x,),
                predictions + (pred,),
                reveals + (y,),
                draws + (z,),
            )

    play(learner, adversary, Fraction(1), (), (), (), ())
    e_loss = sum(b.probability * b.transcript.loss for b in branches)
    e_comp = sum(b.probability * b.transcript.comparator for b in branches)
    assert sum(b.probability for b in branches) == 1
    return PublicGameResult(
        branches=tuple(branches),
        expected_loss=e_loss,
        expected_comparator=e_comp,
        expected_regret=e_loss - e_comp,
    )


def _rows(result):
    return [
        (b.transcript.draws, b.probability, b.transcript, b.transcript.witness)
        for b in result.branches
    ]


def _assert_same_play(spec, learner, params, adversary, adversary_params=None):
    def strategies():
        return make_learner(learner, dict(params)), make_adversary(adversary, adversary_params or {})

    fast = play_game(spec, *strategies())
    slow = reference_public_play(spec, *strategies())
    assert _rows(fast) == _rows(slow)
    assert fast == slow
    return fast


@pytest.mark.parametrize("T, M", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (3, 4)])
def test_public_cube_play_matches_the_reference(T, M):
    spec = cube_game(T, M, visibility="public")
    result = _assert_same_play(spec, "uniform_cube", {"T": T}, "public_cube")
    assert len(result.branches) == T**T


RANDOMIZED = {
    "frpfl": {"gamma": "1/2", "g": 6},
    "mrpfl": {"N": 2, "g": 6},
    "helly_intersection": {"transversal": list(HELLY_TRANSVERSAL)},
    "uniform_cube": {"T": 3},
}


@pytest.mark.parametrize("adversary", ["optimal", "echo", "random"])
@pytest.mark.parametrize("learner", sorted(RANDOMIZED))
def test_public_helly_play_matches_the_reference(learner, adversary):
    spec = replace(helly_game(3), visibility="public")
    _assert_same_play(spec, learner, RANDOMIZED[learner], adversary)


@pytest.mark.parametrize("g", [4, 6])
@pytest.mark.parametrize(
    "spec, adversary",
    [
        (replace(two_constant_game(3), visibility="public"), "optimal"),
        (replace(two_constant_game(3), visibility="public"), "echo"),
        (replace(agnostic_game(4), visibility="public"), "agnostic_two_constant"),
    ],
    ids=["set-realizable-optimal", "set-realizable-echo", "existence-realizable"],
)
def test_public_two_constant_play_with_frpfl_matches_the_reference(spec, adversary, g):
    _assert_same_play(spec, "frpfl", {"gamma": "1/2", "g": g}, adversary)

"""The ``fork()`` contract of learners and adversaries, and the per-play memo.

Public play continues every draw but the last on forks of the strategies. A
fork must continue exactly as a deep copy of the strategy would, and
advancing it must leave the original's continuation unchanged. Each strategy
of the ``make_learner`` and ``make_adversary`` registries is checked on a
public game it can begin on: a learner against scripted reveals, an
adversary against scripted predictions.
"""

import copy
from dataclasses import replace

import pytest

from pflab import (
    Adversary,
    GameView,
    HELLY_TRANSVERSAL,
    Measure,
    RealizabilityViolation,
    agnostic_game,
    collision_game,
    cube_game,
    find_realizability_witness,
    helly_game,
    make_adversary,
    make_learner,
    pf_not_sv_game,
    play_game,
)
from pflab.learners import ScriptedLearner
from pflab.setsystems import iter_bits


def public(spec):
    return replace(spec, visibility="public")


HELLY = public(helly_game(4))

LEARNERS = {
    "cvsp": {},
    "dpfla": {},
    "frpfl": {"gamma": "1/2", "g": 4},
    "mrpfl": {"g": 4},
    "helly_intersection": {"transversal": list(HELLY_TRANSVERSAL)},
    "uniform_cube": {"T": 3},
    "constant": {"label": 1},
    "scripted": {"labels": [0, 3, 5, 1]},
    "first_round_read": {},
}

# name -> (params, a public spec it can begin on, the partner's predictions
# before the fork, on the fork's branch and on the original's branch)
ADVERSARIES = {
    "optimal": ({}, HELLY, [3, 3], [3, 3], [4, 4]),
    "echo": ({}, HELLY, [3, 3], [2, 5], [0, 1]),
    "random": ({"seed": 5}, HELLY, [3, 3], [2, 5], [0, 1]),
    "collision": ({}, public(collision_game(horizon=4)), [0, 1], [5, 6], [2, 3]),
    "agnostic_two_constant": ({}, public(agnostic_game(4)), [0, 1], [1, 1], [0, 0]),
    "public_cube": ({}, cube_game(4, 5, visibility="public"), [0, 1], [2, 3], [4, 0]),
    "pf_not_sv": ({}, public(pf_not_sv_game()), [0, 1], [5, 6, 7, 8], [10, 11, 12, 13]),
}


def _play(learner, adversary, history, rounds, pick):
    """Extend ``history`` by ``rounds`` played rounds of (x, prediction, y, draw).

    Each round's draw is the support label at position ``pick`` (modulo the
    support size): 0 draws the lowest label and -1 the highest, which sends
    a fork and its original down different draw branches.
    """
    history = list(history)
    for _ in range(rounds):
        x = adversary.choose_instance()
        pred = learner.predict(x)
        y = adversary.reveal(x, pred)
        learner.observe(y)
        support = list(iter_bits(pred.support_mask())) if isinstance(pred, Measure) else [pred]
        z = support[pick % len(support)]
        learner.observe_draw(z)
        adversary.observe_draw(z)
        history.append((x, pred, y, z))
    return history


def _continuation(spec, learner, adversary, history, pick):
    """The rest of the game after ``history``, with the adversary's sets and witness."""
    history = _play(learner, adversary, history, spec.horizon - len(history), pick)
    view = GameView(spec, *(tuple(column) for column in zip(*history)))
    sets = tuple(adversary.finalize_sets(view))
    witness = adversary.witness_collection()
    return history, sets, None if witness is None else tuple(witness)


def _scripted(spec, labels):
    learner = ScriptedLearner(labels)
    learner.begin(spec)
    return learner


class _ScriptedReveals(Adversary):
    """Shows instance 0 every round and reveals a fixed label sequence."""

    def __init__(self, labels):
        self._labels = list(labels)

    def choose_instance(self):
        return 0

    def reveal(self, x, prediction):
        return self._labels.pop(0)


@pytest.mark.parametrize("name", sorted(LEARNERS))
def test_learner_fork_contract(name):
    # In the Helly game the reveals 3, 3 fit the sets {0, 1, 3} and
    # {2, 3, 5}; the fork goes on inside the second and the original inside
    # the first, so a fork sharing state with its original leaves no
    # consistent collection for the original.
    learner = make_learner(name, LEARNERS[name])
    learner.begin(HELLY)
    history = _play(learner, _ScriptedReveals([3, 3]), (), 2, 0)
    reference = copy.deepcopy(learner)
    twin = copy.deepcopy(learner)
    fork = learner.fork()

    def rest(own, labels, pick):
        return _play(own, _ScriptedReveals(labels), history, 2, pick)

    assert rest(fork, [2, 5], -1) == rest(twin, [2, 5], -1)
    assert rest(learner, [0, 1], 0) == rest(reference, [0, 1], 0)


@pytest.mark.parametrize("name", sorted(ADVERSARIES))
def test_adversary_fork_contract(name):
    # A scripted partner plays different labels on the two branches; a
    # deterministic prediction is also its own draw.
    params, spec, before, on_fork, on_original = ADVERSARIES[name]
    adversary = make_adversary(name, params)
    adversary.begin(spec)
    history = _play(_scripted(spec, before), adversary, (), 2, 0)
    reference = copy.deepcopy(adversary)
    twin = copy.deepcopy(adversary)
    fork = adversary.fork()

    def rest(own, labels):
        return _continuation(spec, _scripted(spec, labels), own, history, 0)

    assert rest(fork, on_fork) == rest(twin, on_fork)
    assert rest(adversary, on_original) == rest(reference, on_original)


# -- the per-play validation memo ---------------------------------------------------


class _SameSetsAdversary(Adversary):
    """One round; the same set on every draw branch, and a witness per draw.

    On draws listed in ``wrong`` the witness is ``(0, 2)``, whose image is
    the feasible set {0, 2} but not the finalized set {1, 2}.
    """

    def __init__(self, wrong=()):
        self._wrong = set(wrong)

    def begin(self, spec):
        self._spec = spec
        self._draw = None

    def choose_instance(self):
        return 0

    def reveal(self, x, prediction):
        return 2

    def observe_draw(self, z):
        self._draw = z

    def finalize_sets(self, view):
        return [0b110]

    def witness_collection(self):
        if self._draw in self._wrong:
            return (0, 2)
        return find_realizability_witness(self._spec, [0], [0b110])


def test_memo_still_checks_each_witness():
    spec = cube_game(1, 3, visibility="public")
    learner = make_learner("uniform_cube", {"T": 2})
    res = play_game(spec, learner, _SameSetsAdversary())
    assert [b.transcript.sets for b in res.branches] == [(0b110,), (0b110,)]
    assert res.branches[0].transcript.witness.members == (1, 2)
    with pytest.raises(RealizabilityViolation):
        play_game(spec, make_learner("uniform_cube", {"T": 2}), _SameSetsAdversary(wrong={1}))

"""Play-loop behaviour pinned on frozen transcripts.

The expected branches, transcripts and protocol errors are frozen outputs of
``play_game``; a change to the loop or to the strategies must reproduce them.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from pflab import (
    Adversary,
    CubeAdversary,
    Measure,
    OptimalAdversary,
    PrefixParityAdversary,
    ProtocolViolation,
    SetSystem,
    SpecError,
    VersionSpacePruningLearner,
    cube_game,
    helly_game,
    make_adversary,
    make_learner,
    mask_of,
    pf_not_sv_game,
    play_game,
)
from pflab.learners import ScriptedLearner

from conftest import two_constant_game
from test_properties import spec_from_seed


def _shown(pred):
    if isinstance(pred, Measure):
        return ",".join(str(w) for w in pred.weights)
    return pred


def _summary(t):
    return (
        t.instances,
        tuple(_shown(p) for p in t.predictions),
        t.reveals,
        t.sets,
        str(t.loss),
        t.witness.members,
    )


# -- public play -------------------------------------------------------------------

# (probability, draws, reveals, sets, witness members) per branch, in play order.
CUBE_BRANCHES = [
    ("1/27", (0, 0, 0), (0, 0, 0), (13, 13, 13), (0, 2, 3, 8, 12, 32, 48)),
    ("1/27", (0, 0, 1), (0, 0, 0), (13, 13, 13), (0, 2, 3, 8, 12, 32, 48)),
    ("1/27", (0, 0, 2), (0, 0, 0), (13, 13, 11), (0, 1, 3, 8, 12, 32, 48)),
    ("1/27", (0, 1, 0), (0, 0, 0), (13, 13, 13), (0, 2, 3, 8, 12, 32, 48)),
    ("1/27", (0, 1, 1), (0, 0, 0), (13, 13, 13), (0, 2, 3, 8, 12, 32, 48)),
    ("1/27", (0, 1, 2), (0, 0, 0), (13, 13, 11), (0, 1, 3, 8, 12, 32, 48)),
    ("1/27", (0, 2, 0), (0, 0, 0), (13, 11, 13), (0, 2, 3, 4, 12, 32, 48)),
    ("1/27", (0, 2, 1), (0, 0, 0), (13, 11, 13), (0, 2, 3, 4, 12, 32, 48)),
    ("1/27", (0, 2, 2), (0, 0, 0), (13, 11, 11), (0, 1, 3, 4, 12, 32, 48)),
    ("1/27", (1, 0, 0), (0, 0, 0), (13, 13, 13), (0, 2, 3, 8, 12, 32, 48)),
    ("1/27", (1, 0, 1), (0, 0, 0), (13, 13, 13), (0, 2, 3, 8, 12, 32, 48)),
    ("1/27", (1, 0, 2), (0, 0, 0), (13, 13, 11), (0, 1, 3, 8, 12, 32, 48)),
    ("1/27", (1, 1, 0), (0, 0, 0), (13, 13, 13), (0, 2, 3, 8, 12, 32, 48)),
    ("1/27", (1, 1, 1), (0, 0, 0), (13, 13, 13), (0, 2, 3, 8, 12, 32, 48)),
    ("1/27", (1, 1, 2), (0, 0, 0), (13, 13, 11), (0, 1, 3, 8, 12, 32, 48)),
    ("1/27", (1, 2, 0), (0, 0, 0), (13, 11, 13), (0, 2, 3, 4, 12, 32, 48)),
    ("1/27", (1, 2, 1), (0, 0, 0), (13, 11, 13), (0, 2, 3, 4, 12, 32, 48)),
    ("1/27", (1, 2, 2), (0, 0, 0), (13, 11, 11), (0, 1, 3, 4, 12, 32, 48)),
    ("1/27", (2, 0, 0), (0, 0, 0), (11, 13, 13), (0, 2, 3, 8, 12, 16, 48)),
    ("1/27", (2, 0, 1), (0, 0, 0), (11, 13, 13), (0, 2, 3, 8, 12, 16, 48)),
    ("1/27", (2, 0, 2), (0, 0, 0), (11, 13, 11), (0, 1, 3, 8, 12, 16, 48)),
    ("1/27", (2, 1, 0), (0, 0, 0), (11, 13, 13), (0, 2, 3, 8, 12, 16, 48)),
    ("1/27", (2, 1, 1), (0, 0, 0), (11, 13, 13), (0, 2, 3, 8, 12, 16, 48)),
    ("1/27", (2, 1, 2), (0, 0, 0), (11, 13, 11), (0, 1, 3, 8, 12, 16, 48)),
    ("1/27", (2, 2, 0), (0, 0, 0), (11, 11, 13), (0, 2, 3, 4, 12, 16, 48)),
    ("1/27", (2, 2, 1), (0, 0, 0), (11, 11, 13), (0, 2, 3, 4, 12, 16, 48)),
    ("1/27", (2, 2, 2), (0, 0, 0), (11, 11, 11), (0, 1, 3, 4, 12, 16, 48)),
]


def _branch_rows(result):
    return [
        (
            str(b.probability),
            b.transcript.draws,
            b.transcript.reveals,
            b.transcript.sets,
            b.transcript.witness.members,
        )
        for b in result.branches
    ]


def test_public_cube_branches_pinned():
    spec = cube_game(3, 4, visibility="public")
    res = play_game(spec, make_learner("uniform_cube", {"T": 3}),
                    CubeAdversary(Fraction(1, 2)))
    assert _branch_rows(res) == CUBE_BRANCHES
    assert res.expected_loss == 2
    assert res.expected_comparator == 0


def test_public_frpfl_vs_optimal_pinned():
    spec = replace(helly_game(2), visibility="public")
    res = play_game(spec, make_learner("frpfl", {"gamma": "1/2", "g": 6}),
                    make_adversary("optimal", {}))
    assert _branch_rows(res) == [
        ("1/9", (1, 0), (2, 2), (44, 44), (2, 3, 5)),
        ("2/9", (1, 2), (2, 2), (44, 44), (2, 3, 5)),
        ("1/9", (3, 0), (2, 2), (44, 44), (2, 3, 5)),
        ("2/9", (3, 2), (2, 2), (44, 44), (2, 3, 5)),
        ("1/9", (5, 0), (2, 2), (44, 44), (2, 3, 5)),
        ("2/9", (5, 2), (2, 2), (44, 44), (2, 3, 5)),
    ]
    for b in res.branches:
        assert [_shown(p) for p in b.transcript.predictions] == [
            "0,1/3,0,1/3,0,1/3",
            "1/3,0,2/3,0,0,0",
        ]
    assert res.expected_loss == Fraction(2, 3)


@pytest.mark.parametrize("visibility", ["oblivious", "public"])
def test_cube_with_more_instances_than_rounds(visibility):
    """The unplayed instance gets a feasible image in the cube witness."""
    spec = replace(cube_game(4, 4, visibility=visibility), horizon=3)
    res = play_game(spec, make_learner("uniform_cube", {"T": 3}),
                    CubeAdversary(Fraction(1, 2)))
    if visibility == "public":
        transcripts = [b.transcript for b in res.branches]
        assert (len(transcripts), res.expected_loss) == (27, 2)
    else:
        transcripts = [res]
        assert res.loss == 1
    for t in transcripts:
        assert t.comparator == 0
        assert t.witness.images[:3] == t.sets
        assert spec.set_system.contains(t.witness.images[3])


# -- oblivious play ----------------------------------------------------------------

LEARNERS = {"dpfla": {}, "frpfl": {"gamma": "1/3", "g": 3}, "mrpfl": {"N": 3, "g": 4}}
ADVERSARIES = {"optimal": {}, "echo": {}, "random": {"seed": 3}}

# (instances, predictions, reveals, sets, loss, witness members) on
# spec_from_seed(seed, horizon=3).
OBLIVIOUS = {
    (11, "dpfla", "optimal"): ((0, 0, 0), (0, 1, 1), (1, 1, 1), (2, 2, 2), "1", (1,)),
    (11, "dpfla", "echo"): ((0, 0, 0), (0, 0, 0), (0, 0, 0), (5, 5, 5), "0", (0, 2)),
    (11, "dpfla", "random"): ((0, 0, 1), (0, 1, 1), (2, 1, 2), (6, 6, 6), "1", (1, 2)),
    (11, "frpfl", "optimal"): ((0, 0, 0), ("1,0,0", "0,1,0", "0,1,0"), (1, 1, 1), (2, 2, 2), "1", (1,)),
    (11, "frpfl", "echo"): ((0, 0, 0), ("1,0,0", "1,0,0", "1,0,0"), (0, 0, 0), (5, 5, 5), "0", (0, 2)),
    (11, "frpfl", "random"): ((0, 0, 1), ("1,0,0", "0,1,0", "0,1,0"), (2, 1, 2), (6, 6, 6), "1", (1, 2)),
    (11, "mrpfl", "optimal"): ((0, 0, 0), ("1,0,0", "0,1,0", "0,1,0"), (1, 1, 1), (2, 2, 2), "1", (1,)),
    (11, "mrpfl", "echo"): ((0, 0, 0), ("1,0,0", "1,0,0", "1,0,0"), (0, 0, 0), (5, 5, 5), "0", (0, 2)),
    (11, "mrpfl", "random"): ((0, 0, 1), ("1,0,0", "0,1,0", "0,1,0"), (2, 1, 2), (6, 6, 6), "1", (1, 2)),
    (35, "dpfla", "optimal"): ((0, 0, 1), (0, 1, 0), (1, 1, 1), (2, 2, 2), "2", (3,)),
    (35, "dpfla", "echo"): ((0, 0, 0), (0, 0, 0), (0, 0, 0), (1, 1, 1), "0", (0,)),
    (35, "dpfla", "random"): ((0, 1, 0), (0, 0, 0), (0, 1, 0), (3, 3, 3), "0", (0, 2, 3)),
    (35, "frpfl", "optimal"): ((0, 0, 1), ("1,0", "0,1", "1,0"), (1, 1, 1), (2, 2, 2), "2", (3,)),
    (35, "frpfl", "echo"): ((0, 0, 0), ("1,0", "1,0", "1,0"), (0, 0, 0), (1, 1, 1), "0", (0,)),
    (35, "frpfl", "random"): ((0, 1, 0), ("1,0", "1,0", "1,0"), (0, 1, 0), (3, 3, 3), "0", (0, 2, 3)),
    (35, "mrpfl", "optimal"): ((0, 0, 1), ("1,0", "0,1", "1,0"), (1, 1, 1), (2, 2, 2), "2", (3,)),
    (35, "mrpfl", "echo"): ((0, 0, 0), ("1,0", "1,0", "1,0"), (0, 0, 0), (1, 1, 1), "0", (0,)),
    (35, "mrpfl", "random"): ((0, 1, 0), ("1,0", "1,0", "1,0"), (0, 1, 0), (3, 3, 3), "0", (0, 2, 3)),
    (81, "dpfla", "optimal"): ((0, 0, 0), (1, 0, 0), (0, 0, 0), (1, 1, 1), "1", (0,)),
    (81, "dpfla", "echo"): ((0, 0, 0), (1, 1, 1), (1, 1, 1), (2, 2, 2), "0", (1,)),
    (81, "dpfla", "random"): ((0, 0, 1), (1, 2, 2), (2, 2, 2), (4, 4, 4), "1", (3,)),
    (81, "frpfl", "optimal"): ((0, 0, 0), ("0,1,0", "1,0,0", "1,0,0"), (0, 0, 0), (1, 1, 1), "1", (0,)),
    (81, "frpfl", "echo"): ((0, 0, 0), ("0,1,0", "0,1,0", "0,1,0"), (1, 1, 1), (2, 2, 2), "0", (1,)),
    (81, "frpfl", "random"): ((0, 0, 1), ("0,1,0", "0,0,1", "0,0,1"), (2, 2, 2), (4, 4, 4), "1", (3,)),
    (81, "mrpfl", "optimal"): ((0, 0, 0), ("0,1,0", "1,0,0", "1,0,0"), (0, 0, 0), (1, 1, 1), "1", (0,)),
    (81, "mrpfl", "echo"): ((0, 0, 0), ("0,1,0", "0,1,0", "0,1,0"), (1, 1, 1), (2, 2, 2), "0", (1,)),
    (81, "mrpfl", "random"): ((0, 0, 1), ("0,1,0", "0,0,1", "0,0,1"), (2, 2, 2), (4, 4, 4), "1", (3,)),
    (192, "dpfla", "optimal"): ((0, 0, 0), (2, 0, 0), (0, 0, 0), (5, 5, 5), "0", (0, 2)),
    (192, "dpfla", "echo"): ((0, 0, 0), (2, 2, 2), (2, 2, 2), (5, 5, 5), "0", (0, 2)),
    (192, "dpfla", "random"): ((0, 0, 1), (2, 2, 0), (2, 1, 0), (7, 7, 5), "0", (0, 1, 2, 3)),
    (192, "frpfl", "optimal"): ((0, 0, 0), ("0,0,1", "1,0,0", "1,0,0"), (0, 0, 0), (5, 5, 5), "0", (0, 2)),
    (192, "frpfl", "echo"): ((0, 0, 0), ("0,0,1", "0,0,1", "0,0,1"), (2, 2, 2), (5, 5, 5), "0", (0, 2)),
    (192, "frpfl", "random"): ((0, 0, 1), ("0,0,1", "0,0,1", "1,0,0"), (2, 1, 0), (7, 7, 5), "0", (0, 1, 2, 3)),
    (192, "mrpfl", "optimal"): ((0, 0, 0), ("0,0,1", "1,0,0", "1,0,0"), (0, 0, 0), (5, 5, 5), "0", (0, 2)),
    (192, "mrpfl", "echo"): ((0, 0, 0), ("0,0,1", "0,0,1", "0,0,1"), (2, 2, 2), (5, 5, 5), "0", (0, 2)),
    (192, "mrpfl", "random"): ((0, 0, 1), ("0,0,1", "0,0,1", "1,0,0"), (2, 1, 0), (7, 7, 5), "0", (0, 1, 2, 3)),
}


@pytest.mark.parametrize("seed, learner, adversary", sorted(OBLIVIOUS))
def test_oblivious_transcripts_pinned(seed, learner, adversary):
    spec = spec_from_seed(seed, horizon=3)
    t = play_game(spec, make_learner(learner, LEARNERS[learner]),
                  make_adversary(adversary, ADVERSARIES[adversary]))
    assert t.draws is None
    assert _summary(t) == OBLIVIOUS[seed, learner, adversary]


# -- other feedback modes ----------------------------------------------------------


def test_set_valued_play_pinned():
    spec = pf_not_sv_game(set_valued=True)
    t = play_game(spec, make_learner("first_round_read", {}), PrefixParityAdversary())
    assert _summary(t) == (
        (0, 1, 2, 3, 4, 5),
        (0, 63, 63, 63, 63, 63),
        (63,) * 6,
        (mask_of([63, 64]), mask_of([63, 65])) * 3,
        "1",
        (63, 127),
    )
    assert t.comparator == 0


def test_multiclass_play_pinned():
    spec = replace(two_constant_game(3), feedback="multiclass")
    t = play_game(spec, VersionSpacePruningLearner(), OptimalAdversary())
    assert _summary(t) == ((0, 0, 0), (0, 1, 1), (1, 1, 1), (2, 2, 2), "1", (1,))


class _BanditAdversary(Adversary):
    """Commits to label 1 on instance 0 and reports loss bits against it."""

    def begin(self, spec):
        self.spec = spec

    def choose_instance(self):
        return 0

    def loss_bit(self, x, prediction):
        return 0 if prediction == 1 else 1

    def finalize_sets(self, view):
        return [0b10] * self.spec.horizon

    def witness_collection(self):
        return (1,)


def test_bandit_play_pinned():
    spec = replace(two_constant_game(3), feedback="bandit")
    t = play_game(spec, ScriptedLearner([0, 1, 0]), _BanditAdversary())
    assert _summary(t) == ((0, 0, 0), (0, 1, 0), (None,) * 3, (2, 2, 2), "2", (1,))
    assert t.comparator == 0


# -- protocol violations -----------------------------------------------------------


class _LyingBanditAdversary(_BanditAdversary):
    def loss_bit(self, x, prediction):
        return 0


class _OutsideSetAdversary(_BanditAdversary):
    def reveal_set(self, x, prediction):
        return 0b11


class _WideMulticlassAdversary(_BanditAdversary):
    def reveal(self, x, prediction):
        return 0

    def finalize_sets(self, view):
        return [0b11] * self.spec.horizon


def test_wrong_loss_bit():
    spec = replace(two_constant_game(3), feedback="bandit")
    with pytest.raises(ProtocolViolation, match="bandit loss bit at round 0"):
        play_game(spec, ScriptedLearner([0, 1, 0]), _LyingBanditAdversary())


def test_measure_under_bandit():
    spec = replace(two_constant_game(3), feedback="bandit")
    with pytest.raises(ProtocolViolation, match="deterministic predictions"):
        play_game(spec, make_learner("uniform_cube", {"T": 2}), _BanditAdversary())


def test_revealed_set_outside_the_system():
    spec = replace(two_constant_game(3), feedback="set_valued")
    with pytest.raises(ProtocolViolation, match="not in the set system"):
        play_game(spec, ScriptedLearner([0, 1, 0]), _OutsideSetAdversary())


def test_multiclass_sets_must_be_singletons():
    spec = replace(
        two_constant_game(3),
        feedback="multiclass",
        set_system=SetSystem.explicit(2, [0b01, 0b10, 0b11]),
    )
    with pytest.raises(ProtocolViolation, match="singleton sets"):
        play_game(spec, ScriptedLearner([0, 1, 0]), _WideMulticlassAdversary())


@pytest.mark.parametrize("feedback", ["bandit", "set_valued"])
def test_public_visibility_rejects_feedback(feedback):
    spec = replace(two_constant_game(3), feedback=feedback, visibility="public")
    with pytest.raises(SpecError, match=f"{feedback} feedback"):
        play_game(spec, ScriptedLearner([0, 1, 0]), _BanditAdversary())


# -- long games --------------------------------------------------------------------


@pytest.mark.parametrize("visibility", ["oblivious", "public"])
def test_long_game(visibility):
    T = 2000
    spec = replace(two_constant_game(T), visibility=visibility)
    result = play_game(spec, make_learner("constant", {"label": 1}),
                       make_adversary("echo", {}))
    if visibility == "public":
        assert len(result.branches) == 1 and result.branches[0].probability == 1
        t = result.branches[0].transcript
        assert t.draws == (1,) * T
        assert result.expected_loss == 0
    else:
        t = result
        assert t.draws is None
    assert _summary(t) == ((0,) * T, (1,) * T, (1,) * T, (2,) * T, "0", (1,))

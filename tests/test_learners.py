"""Learner strategies: frozen traces, commit rules, and registry validation."""

from fractions import Fraction

import pytest

from pflab import (
    Adversary,
    CollisionAdversary,
    CollisionFamily,
    EchoAdversary,
    EmptyConsistentSet,
    GameSpec,
    HypothesisClass,
    Measure,
    OptimalAdversary,
    PotentialMinimizingLearner,
    SeededRandomAdversary,
    SetSystem,
    SpecError,
    TransversalIntersectionLearner,
    VersionSpacePruningLearner,
    collision_game,
    helly_game,
    make_learner,
    pfl_dim,
    play_game,
    small_binary_family,
    ternary_slice,
)
from pflab.replicate import worst_case_vs_learner

from conftest import bounded_and_listed, two_constant_game


def test_collision_trace_frozen():
    family = CollisionFamily()
    spec = collision_game(family)
    t = play_game(spec, VersionSpacePruningLearner(), CollisionAdversary(family))
    assert t.predictions == (0,) * 8
    assert t.reveals == (1, 3, 6, 2, 12, 5, 4, 8)
    assert t.loss == 8
    assert t.witness.members == (1, 2, 3, 4, 5, 6, 8, 12)
    assert t.regret == 8


def test_transversal_commit_map():
    spec = helly_game(6)
    committed = {}
    for first in range(6):
        learner = TransversalIntersectionLearner([1, 3, 5])
        learner.begin(spec)
        opening = learner.predict(0)
        assert opening == Measure.uniform_over(6, [1, 3, 5])
        learner.observe(first)
        committed[first] = learner.predict(0).weights.index(1)
        assert learner.empty_intersection is False
    assert committed == {0: 1, 1: 1, 2: 3, 3: 3, 4: 1, 5: 5}


def test_transversal_empty_meet_fallback():
    spec = helly_game(6)
    learner = TransversalIntersectionLearner([0])
    learner.begin(spec)
    learner.predict(0)
    learner.observe(5)
    assert learner.empty_intersection is True
    assert learner.predict(0) == Measure.delta(6, 0)
    # later reveals do not rescue the commitment
    learner.observe(0)
    assert learner.predict(0) == Measure.delta(6, 0)


def test_transversal_learner_reused_for_a_second_game():
    spec = GameSpec(
        n_instances=1,
        n_labels=3,
        set_system=SetSystem.explicit(3, [0b011, 0b110, 0b101]),
        hypotheses=HypothesisClass.explicit(1, 3, [[0], [1], [2]]),
        horizon=2,
    )
    learner = TransversalIntersectionLearner([1, 2])
    learner.begin(spec)
    learner.observe(0)
    assert learner.empty_intersection is True
    learner.begin(spec)
    learner.observe(1)
    assert learner.predict(0) == Measure.delta(3, 1)
    assert learner.empty_intersection is False


def test_only_first_reveal_commits():
    spec = helly_game(6)
    learner = TransversalIntersectionLearner([1, 3, 5])
    learner.begin(spec)
    learner.predict(0)
    learner.observe(2)
    learner.observe(4)
    assert learner.predict(0) == Measure.delta(6, 3)


def test_mrpfl_helly_loss():
    spec = helly_game(3)
    t = play_game(spec, make_learner("mrpfl", {"N": 3, "g": 6}),
                  OptimalAdversary())
    assert t.loss == 1


def test_frpfl_stays_on_grid():
    spec = helly_game(3)
    learner = make_learner("frpfl", {"gamma": "1/3", "g": 6})
    learner.begin(spec)
    for _ in range(3):
        pi = learner.predict(0)
        assert isinstance(pi, Measure)
        assert all(w.denominator in (1, 2, 3, 6) for w in pi.weights)
        learner.observe(1)


def test_simple_learners():
    spec = two_constant_game()
    uc = make_learner("uniform_cube", {"T": 2})
    uc.begin(spec)
    assert uc.predict(0) == Measure.uniform_over(2, [0, 1])

    const = make_learner("constant", {"label": 1})
    const.begin(spec)
    assert [const.predict(0) for _ in range(3)] == [1, 1, 1]

    scripted = make_learner("scripted", {"labels": [1, 0]})
    scripted.begin(spec)
    assert [scripted.predict(0), scripted.predict(0)] == [1, 0]

    reader = make_learner("first_round_read", {})
    reader.begin(spec)
    assert reader.predict(0) == 0
    reader.observe_set(0b10)
    assert reader.predict(0) == 1
    reader.observe_set(0b01)
    assert reader.predict(0) == 1  # locked on the first set


def test_label_feedback_learners_reject_set_reveals():
    spec = two_constant_game()
    for name, params in [("dpfla", {}), ("frpfl", {"gamma": "1/2", "g": 2}),
                         ("mrpfl", {"N": 2, "g": 2})]:
        learner = make_learner(name, params)
        learner.begin(spec)
        learner.predict(0)
        with pytest.raises(SpecError):
            learner.observe_set(0b01)


class _RevealsLabelTwo(Adversary):
    """Shows instance 0 and reveals label 2, or the set ``{2}``, whatever is predicted."""

    def choose_instance(self):
        return 0

    def reveal(self, x, prediction):
        return 2

    def reveal_set(self, x, prediction):
        return 0b100


def _no_collection_holds_label_two(feedback="partial"):
    """Two binary hypotheses over three labels: the set ``{2}`` is no collection's image."""
    return GameSpec(
        n_instances=1,
        n_labels=3,
        set_system=SetSystem.explicit(3, [(0,), (1,), (0, 1), (2,)]),
        hypotheses=HypothesisClass.explicit(1, 3, [(0,), (1,)]),
        horizon=2,
        feedback=feedback,
    )


@pytest.mark.parametrize(
    "name, params",
    [("cvsp", {}), ("dpfla", {}), ("frpfl", {"gamma": "1/2", "g": 2})],
)
def test_a_reveal_no_collection_holds_empties_the_version_space(name, params):
    learner = make_learner(name, params)
    with pytest.raises(
        EmptyConsistentSet, match="^every admissible collection is inconsistent with the reveals$"
    ):
        play_game(_no_collection_holds_label_two(), learner, _RevealsLabelTwo())


def test_a_revealed_set_no_collection_has_empties_the_version_space():
    spec = _no_collection_holds_label_two(feedback="set_valued")
    with pytest.raises(
        EmptyConsistentSet,
        match="^every admissible collection is inconsistent with the revealed sets$",
    ):
        play_game(spec, VersionSpacePruningLearner(), _RevealsLabelTwo())


def test_dpfla_two_constant_regret_one():
    spec = two_constant_game()
    t = play_game(spec, make_learner("dpfla", {}), OptimalAdversary())
    assert t.loss == 1
    assert t.regret == 1


def test_dpfla_worst_case_equals_the_game_value_on_the_families():
    # dpfla never loses more than the game value, and no learner can do
    # better; the walk plays the learner on forks, which share its engine.
    specs = list(small_binary_family()) + list(ternary_slice())
    assert len(specs) == 411
    for slug, spec in specs:
        value = pfl_dim(spec, spec.horizon)
        assert worst_case_vs_learner(spec, PotentialMinimizingLearner) == value, slug


@pytest.mark.parametrize("adversary", [
    OptimalAdversary, EchoAdversary, lambda: SeededRandomAdversary(7),
], ids=["optimal", "echo", "random"])
def test_cvsp_implicit_mode_plays_as_the_explicit_mode(adversary):
    """On ``K >= horizon`` cvsp tracks reveals; on the listed sets it enumerates."""
    played = []
    for seed in range(60):
        bounded, listed = bounded_and_listed(seed, min_size=3)
        if bounded.set_system.max_size < bounded.horizon:
            continue
        implicit, explicit = VersionSpacePruningLearner(), VersionSpacePruningLearner()
        t = play_game(bounded, implicit, adversary())
        assert implicit._implicit
        assert play_game(listed, explicit, adversary()) == t
        assert not explicit._implicit
        played.append(t.predictions)
    assert len(played) >= 30 and len(set(played)) > 5

"""Core game mechanics checked against brute-force oracles."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from pflab import (
    AdmissibleEmpty,
    Adversary,
    Collection,
    CubeAdversary,
    GameSpec,
    HypothesisClass,
    Learner,
    OptimalAdversary,
    ProtocolViolation,
    RealizabilityViolation,
    SetSystem,
    VersionSpacePruningLearner,
    build_admissible_collections,
    comparator_loss,
    cube_game,
    find_realizability_witness,
    helly_game,
    make_adversary,
    make_learner,
    play_game,
    replay_predictions,
)
from pflab.learners import ScriptedLearner

from conftest import two_constant_game


def brute_admissible(spec):
    """Independent enumeration: every nonempty hypothesis subset whose image
    at each instance lands in the set system."""
    H = spec.hypotheses
    size = H.size
    out = []
    for r in range(1, size + 1):
        for members in combinations(range(size), r):
            ok = True
            images = []
            for x in range(spec.n_instances):
                img = 0
                for h in members:
                    img |= 1 << H.value(h, x)
                if not spec.set_system.contains(img):
                    ok = False
                    break
                images.append(img)
            if ok:
                out.append((members, tuple(images)))
    return out


def random_small_spec(rng):
    n_x = rng.randint(1, 2)
    n_y = rng.randint(2, 3)
    universe = list(range(1, 1 << n_y))
    masks = sorted(rng.sample(universe, rng.randint(1, min(4, len(universe)))))
    rows = set()
    for _ in range(rng.randint(1, 4)):
        rows.add(tuple(rng.randrange(n_y) for _ in range(n_x)))
    return GameSpec(
        n_instances=n_x,
        n_labels=n_y,
        set_system=SetSystem.explicit(n_y, masks),
        hypotheses=HypothesisClass(n_x, n_y, "explicit", tuple(sorted(rows))),
        horizon=2,
    )


def admissible_or_empty(spec):
    try:
        return [(c.members, c.images) for c in build_admissible_collections(spec)]
    except AdmissibleEmpty:
        return []


def test_admissible_collections_match_brute_force():
    rng = random.Random(7)
    saw_empty = False
    for _ in range(60):
        spec = random_small_spec(rng)
        brute = brute_admissible(spec)
        saw_empty = saw_empty or not brute
        assert sorted(admissible_or_empty(spec)) == sorted(brute)
    assert saw_empty, "generator never exercised the no-collection branch"


def test_two_constant_play_frozen():
    spec = two_constant_game(3)
    t = play_game(spec, VersionSpacePruningLearner(), OptimalAdversary())
    assert t.predictions == (0, 1, 1)
    assert t.reveals == (1, 1, 1)
    assert t.sets == (0b10, 0b10, 0b10)
    assert t.loss == 1
    assert t.comparator == 0
    assert t.regret == 1
    assert t.witness == Collection(members=(1,), images=(0b10,))


def brute_comparator(transcript, spec):
    best = None
    for outputs in product(range(spec.n_labels), repeat=spec.n_instances):
        miss = sum(
            1 for x, m in zip(transcript.instances, transcript.sets)
            if not (m >> outputs[x]) & 1
        )
        best = miss if best is None else min(best, miss)
    return Fraction(best)


def test_comparator_matches_brute_force():
    spec = helly_game(4)
    t = play_game(spec, make_learner("helly_intersection", {"transversal": [1, 3, 5]}),
                  OptimalAdversary())
    assert comparator_loss(t, spec) == brute_comparator(t, spec)

    rng = random.Random(3)
    tried = 0
    while tried < 25:
        small = random_small_spec(rng)
        if not brute_admissible(small):
            continue
        tried += 1
        tr = play_game(small, VersionSpacePruningLearner(), make_adversary("random", {"seed": rng.randrange(99)}))
        assert comparator_loss(tr, small) == brute_comparator(tr, small)


def test_replay_is_pure():
    spec = helly_game(3)
    learner = make_learner("helly_intersection", {"transversal": [1, 3, 5]})
    t = play_game(spec, learner, OptimalAdversary())
    again = replay_predictions(spec, t, make_learner("helly_intersection", {"transversal": [1, 3, 5]}))
    assert again == t.predictions


def test_public_branches_partition_probability():
    spec = cube_game(3, 4, visibility="public")
    res = play_game(spec, make_learner("uniform_cube", {"T": 3}),
                    CubeAdversary(Fraction(1, 2)))
    total = sum(b.probability for b in res.branches)
    assert total == 1
    assert res.expected_loss == sum(b.probability * b.transcript.loss for b in res.branches)


class _StringLearner(Learner):
    def predict(self, x):
        return "zero"


def test_learner_prediction_validation():
    spec = two_constant_game(2)
    with pytest.raises(ProtocolViolation):
        play_game(spec, ScriptedLearner([5, 0]), OptimalAdversary())
    with pytest.raises(ProtocolViolation):
        play_game(spec, _StringLearner(), OptimalAdversary())


class _BadCountAdversary(Adversary):
    def begin(self, spec):
        self.spec = spec

    def choose_instance(self):
        return 0

    def reveal(self, x, prediction):
        return 0

    def finalize_sets(self, view):
        return [0b01]  # one short


class _InfeasibleRevealAdversary(_BadCountAdversary):
    def finalize_sets(self, view):
        # reveal was 0 every round but the committed set excludes it
        return [0b10] * self.spec.horizon


def test_adversary_finalize_validation():
    spec = two_constant_game(2)
    with pytest.raises(ProtocolViolation):
        play_game(spec, ScriptedLearner([0, 0]), _BadCountAdversary())
    with pytest.raises(ProtocolViolation):
        play_game(spec, ScriptedLearner([0, 0]), _InfeasibleRevealAdversary())


class _UnrealizableAdversary(_BadCountAdversary):
    """Alternates singleton sets on a single instance; no fixed rule fits."""

    def reveal(self, x, prediction):
        self.t = getattr(self, "t", -1) + 1
        return self.t % 2

    def finalize_sets(self, view):
        return [1 << (t % 2) for t in range(self.spec.horizon)]


def test_set_realizable_games_reject_unrealizable_sets():
    spec = two_constant_game(2)
    with pytest.raises(RealizabilityViolation):
        play_game(spec, ScriptedLearner([0, 0]), _UnrealizableAdversary())


def test_find_realizability_witness():
    spec = two_constant_game(2)
    assert find_realizability_witness(spec, (0, 0), (0b01, 0b01)) == (0,)
    assert find_realizability_witness(spec, (0, 0), (0b01, 0b10)) is None


@st.composite
def seeded_specs(draw):
    return random_small_spec(random.Random(draw(st.integers(min_value=0, max_value=10_000))))


@settings(max_examples=40, deadline=None)
@given(seeded_specs())
def test_admissible_collections_property(spec):
    assert sorted(admissible_or_empty(spec)) == sorted(brute_admissible(spec))

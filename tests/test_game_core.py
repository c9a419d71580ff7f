"""Core game mechanics checked against brute-force oracles."""

import dataclasses
import random
import resource
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pflab
from pflab import (
    AdmissibleEmpty,
    Adversary,
    Collection,
    CubeAdversary,
    GameSpec,
    HypothesisClass,
    Learner,
    Measure,
    OptimalAdversary,
    ProtocolViolation,
    RealizabilityViolation,
    SetSystem,
    SpecError,
    VersionSpacePruningLearner,
    build_admissible_collections,
    collection_of,
    comparator_loss,
    cube_game,
    find_realizability_witness,
    helly_game,
    make_adversary,
    make_learner,
    play_game,
    replay_predictions,
)
from pflab import adversaries, learners
from pflab.game import Realizability, _comparator
from pflab.learners import ScriptedLearner

from conftest import two_constant_game
from naive_tree import naive_tree_oracle  # called by name in a capped child process


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


def _assert_comparator_is_zero(spec, t):
    # Under set realizability play reports 0 without scanning the class; the
    # scan must agree, because every witness member is inside every set.
    assert spec.realizability is Realizability.SET_REALIZABLE
    assert _comparator(spec, t.instances, t.sets) == 0 == t.comparator


def test_comparator_matches_brute_force():
    spec = helly_game(4)
    t = play_game(spec, make_learner("helly_intersection", {"transversal": [1, 3, 5]}),
                  OptimalAdversary())
    assert comparator_loss(t, spec) == brute_comparator(t, spec)
    _assert_comparator_is_zero(spec, t)

    rng = random.Random(3)
    tried = 0
    while tried < 25:
        small = random_small_spec(rng)
        if not brute_admissible(small):
            continue
        tried += 1
        tr = play_game(small, VersionSpacePruningLearner(), make_adversary("random", {"seed": rng.randrange(99)}))
        assert comparator_loss(tr, small) == brute_comparator(tr, small)
        _assert_comparator_is_zero(small, tr)

    # The cube adversary claims no witness, so play finds each one.
    cube = cube_game(3, 3, visibility="public")
    res = play_game(cube, make_learner("uniform_cube", {"T": 3}), CubeAdversary(Fraction(1, 2)))
    assert len(res.branches) == 27
    for branch in res.branches:
        tb = branch.transcript
        _assert_comparator_is_zero(cube, tb)
        assert tb.witness.members == find_realizability_witness(cube, range(3), tb.sets)


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
    with pytest.raises(ProtocolViolation, match=r"^predicted label 2 outside range\(2\)$"):
        play_game(spec, ScriptedLearner([2, 0]), OptimalAdversary())
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


class _EmptySetAdversary(_BadCountAdversary):
    def finalize_sets(self, view):
        return [0] * self.spec.horizon


def test_adversary_finalize_validation():
    spec = two_constant_game(2)
    with pytest.raises(ProtocolViolation):
        play_game(spec, ScriptedLearner([0, 0]), _BadCountAdversary())
    with pytest.raises(ProtocolViolation):
        play_game(spec, ScriptedLearner([0, 0]), _InfeasibleRevealAdversary())
    # The empty set is a label mask, but not a member set.
    with pytest.raises(
        ProtocolViolation, match=r"^finalized set \(\) at round 0 is not in the set system$"
    ):
        play_game(spec, ScriptedLearner([0, 0]), _EmptySetAdversary())


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


class _ZeroAdversary(_BadCountAdversary):
    """Reveals 0 on instance 0 and finalizes {0} every round."""

    def finalize_sets(self, view):
        return [0b01] * self.spec.horizon


@pytest.mark.parametrize("claim", [(0, 1), (7,), (), (1,)])
def test_a_bad_claimed_witness_is_a_realizability_violation(claim):
    # (0, 1) has the infeasible image {0, 1}, 7 lies outside the class and ()
    # is empty: none is a collection, and (1,) is one with the wrong image.
    adversary = _ZeroAdversary()
    adversary.witness_collection = lambda: claim
    with pytest.raises(RealizabilityViolation):
        play_game(two_constant_game(1), ScriptedLearner([0]), adversary)


class _OneAdversary(_BadCountAdversary):
    """Reveals 1 on instance 0 and finalizes {1}, so (1,) is its witness."""

    def reveal(self, x, prediction):
        return 1

    def finalize_sets(self, view):
        return [0b10] * self.spec.horizon


@pytest.mark.parametrize("claim", [7, ("a",), (True,), [1, True]])
def test_a_claimed_witness_must_hold_plain_ints(claim):
    # (True,) would be read as the valid witness (1,), and [1, True] as {1}.
    adversary = _OneAdversary()
    adversary.witness_collection = lambda: claim
    with pytest.raises(RealizabilityViolation, match="not a hypothesis index|hypothesis indices"):
        play_game(two_constant_game(1), ScriptedLearner([0]), adversary)


@pytest.mark.parametrize("claim", [[1], (1,), iter([1])], ids=["list", "tuple", "iterator"])
def test_a_claimed_witness_of_plain_ints_is_accepted(claim):
    # A one-pass iterator is read once, not once for the cache key and again
    # for the check.
    adversary = _OneAdversary()
    adversary.witness_collection = lambda: claim
    t = play_game(two_constant_game(1), ScriptedLearner([0]), adversary)
    assert t.witness == Collection(members=(1,), images=(0b10,))


@pytest.mark.parametrize(
    "answer", [None, 0b01, {0b01}, (m for m in [0b01])],
    ids=["None", "an int", "a set", "a generator"],
)
def test_finalized_sets_must_be_a_sequence(answer):
    adversary = _ZeroAdversary()
    adversary.finalize_sets = lambda view: answer
    with pytest.raises(ProtocolViolation, match="must be a sequence"):
        play_game(two_constant_game(1), ScriptedLearner([0]), adversary)


_KEEP = object()


class _BadLeafAdversary(CubeAdversary):
    """The public cube adversary, except at the leaf whose draws are ``bad``.

    There it finalizes ``sets`` and claims ``claim`` when they are given;
    elsewhere it claims no witness, as the cube adversary does. ``leaves``,
    shared with every fork, lists the draws of each leaf whose sets were
    asked for, in the order play asked.
    """

    def __init__(self, bad, sets=_KEEP, claim=_KEEP):
        super().__init__(Fraction(1, 2))
        self._bad, self._sets, self._claim = bad, sets, claim
        self.leaves = []

    def begin(self, spec):
        super().begin(spec)
        self._draws = ()

    def observe_draw(self, z):
        self._draws += (z,)

    def finalize_sets(self, view):
        self.leaves.append(view.draws)
        if view.draws == self._bad and self._sets is not _KEEP:
            return self._sets
        return super().finalize_sets(view)

    def witness_collection(self):
        if self._draws == self._bad and self._claim is not _KEEP:
            return self._claim
        return None


# Public cube play on two rounds of two draws: its leaves in play order.
_LEAVES = [(0, 0), (0, 1), (1, 0), (1, 1)]


def _play_public_cube(adversary):
    return play_game(
        cube_game(2, 3, visibility="public"), make_learner("uniform_cube", {"T": 2}), adversary
    )


@pytest.mark.parametrize("bad", [(0, 1), (1, 0)], ids=["last-child", "forked-child"])
@pytest.mark.parametrize(
    "answer", [None, 0b011, {0b011}, (m for m in [0b011])],
    ids=["None", "an int", "a set", "a generator"],
)
def test_finalized_sets_must_be_a_sequence_at_every_public_leaf(answer, bad):
    # Only the leaf of draws ``bad`` answers badly, and play raises there,
    # after every earlier leaf has been settled and before any later one.
    adversary = _BadLeafAdversary(bad, sets=answer)
    with pytest.raises(ProtocolViolation, match="must be a sequence"):
        _play_public_cube(adversary)
    assert adversary.leaves == _LEAVES[: _LEAVES.index(bad) + 1]


@pytest.mark.parametrize("bad", [(0, 1), (1, 0)], ids=["last-child", "forked-child"])
@pytest.mark.parametrize("claim", ["wrong image", (0,), (9,), ()])
def test_a_bad_claimed_witness_is_a_realizability_violation_at_every_public_leaf(claim, bad):
    # (0,) has the image {0}, not a co-singleton, 9 lies outside the class
    # and () is empty: none is a collection. The wrong-image claim is the
    # product witness of sets that exclude label 2, which no leaf finalizes.
    spec = cube_game(2, 3, visibility="public")
    if claim == "wrong image":
        claim = find_realizability_witness(spec, (0, 1), (0b011, 0b011))
    assert _play_public_cube(_BadLeafAdversary(None)).expected_loss == 1
    adversary = _BadLeafAdversary(bad, claim=claim)
    with pytest.raises(RealizabilityViolation):
        _play_public_cube(adversary)
    assert adversary.leaves == _LEAVES[: _LEAVES.index(bad) + 1]


class _Mask(int):
    """An int subclass, which is not a plain label bitmask."""


@pytest.mark.parametrize(
    "feedback, method, answer",
    [("partial", "finalize_sets", [m]) for m in (1.9, True, "1", "x", None, _Mask(1))]
    + [("set_valued", "reveal_set", m) for m in (1.5, True, _Mask(1))]
    + [("bandit", "loss_bit", bit) for bit in (0.5, True, _Mask(0))]
    + [("partial", method, _Mask(0)) for method in ("choose_instance", "reveal", "predict")],
)
def test_strategy_sets_and_loss_bits_must_be_ints(feedback, method, answer):
    # An instance, a revealed label or a predicted label that is an int
    # subclass is refused as one that is not a plain int, not as out of range.
    spec = replace(two_constant_game(1), feedback=feedback)
    adversary = _ZeroAdversary()
    learner = ScriptedLearner([0])
    setattr(learner if method == "predict" else adversary, method, lambda *args: answer)
    match = "must be a plain int" if method in ("choose_instance", "reveal", "predict") else "must be"
    with pytest.raises(ProtocolViolation, match=match):
        play_game(spec, learner, adversary)


def _hand_over_negative_mask(case):
    """Give a negative bitmask to a bit lister, the set-system constructor or play."""
    if case in ("iter_bits", "labels_of"):
        list(getattr(pflab.setsystems, case)(-1))
        return
    if case == "set system":
        SetSystem.explicit(2, [-1])
        return
    feedback, method, answer = {
        "finalized set": ("partial", "finalize_sets", [-1]),
        "revealed set": ("set_valued", "reveal_set", -1),
    }[case]
    adversary = _ZeroAdversary()
    setattr(adversary, method, lambda *args: answer)
    play_game(replace(two_constant_game(1), feedback=feedback), ScriptedLearner([0]), adversary)


@pytest.mark.parametrize(
    "case, error",
    [("iter_bits", "ValueError"), ("labels_of", "ValueError"), ("set system", "SpecError"),
     ("finalized set", "ProtocolViolation"), ("revealed set", "ProtocolViolation")],
)
def test_negative_bitmasks_are_refused(case, error):
    # A negative int has set bits without end, so listing its labels for an
    # error message ran until memory ran out.
    done = _capped_child(f"_hand_over_negative_mask({case!r})")
    assert done.stdout.strip() == error, done.stderr


@pytest.mark.parametrize(
    "call",
    ["naive_tree_oracle(two_constant_game(), 5000, 1)", "pflab.shattering_tree(two_constant_game(), 5000)"],
    ids=["naive", "engine"],
)
def test_tree_size_bounds_build_no_huge_power(call):
    # The naive search's guard raised (n_x * n_y) to the number of internal
    # nodes, itself a number of about 1,500 digits at depth 5000, so it ran
    # until memory ran out. The engine tree's node bound adds one level at a time.
    done = _capped_child(call)
    assert done.stdout.strip() == "BudgetExceeded", done.stderr


def _capped_child(call: str) -> subprocess.CompletedProcess:
    """Run ``call`` from this module in a child process; it prints the exception it raises.

    The child is held to 400 MB of address space and 60 s, which fails the
    caller with MemoryError or a timeout if the call runs away.
    """
    paths = [str(Path(__file__).resolve().parent), str(Path(pflab.__file__).resolve().parents[1])]
    child = (
        f"import sys\nsys.path[:0] = {paths!r}\n"
        "import test_game_core\n"
        f"try:\n    exec({call!r}, vars(test_game_core))\n"
        "except Exception as e:\n    print(type(e).__name__)\n"
    )
    cap = 400 << 20
    return subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


@pytest.mark.parametrize(
    "output", [0.5, 0.0, True, -1, 2], ids=["float", "integral float", "bool", "negative", "n_labels"]
)
def test_hypothesis_outputs_are_plain_ints_in_range(output):
    # 0.5 and 0.0 were kept as outputs, and True as label 1.
    with pytest.raises(SpecError, match="outside range"):
        HypothesisClass.explicit(1, 2, [[0], [output]])


def test_measure_grid_must_be_positive():
    spec = two_constant_game(1)
    assert replace(spec, measure_grid=1).measure_grid == 1
    with pytest.raises(SpecError, match="^measure_grid must be a positive integer$"):
        replace(spec, measure_grid=0)


@st.composite
def seeded_specs(draw):
    return random_small_spec(random.Random(draw(st.integers(min_value=0, max_value=10_000))))


@settings(max_examples=40, deadline=None)
@given(seeded_specs())
def test_admissible_collections_property(spec):
    assert sorted(admissible_or_empty(spec)) == sorted(brute_admissible(spec))


def random_class(rng):
    n_x, n_y = rng.randint(1, 4), rng.randint(2, 5)
    rows = {tuple(rng.randrange(n_y) for _ in range(n_x)) for _ in range(rng.randint(1, 12))}
    return HypothesisClass.explicit(n_x, n_y, rng.sample(sorted(rows), len(rows)))


def test_label_masks_equal_a_scan_of_rows():
    rng = random.Random(5)
    for _ in range(200):
        H = random_class(rng)
        for x in range(H.n_instances):
            scan = tuple(
                sum(1 << h for h, row in enumerate(H.rows) if row[x] == y)
                for y in range(H.n_labels)
            )
            assert H.label_masks(x) == scan


def test_label_masks_raise_on_an_all_functions_class():
    H = HypothesisClass.all_functions(2, 3)
    for _ in range(2):  # on every read: a raised error is not cached
        with pytest.raises(SpecError, match="explicit"):
            H.label_masks(0)


def test_derived_tables_leave_the_frozen_objects_as_they_were():
    """The tables read off a class, a set system and a measure are cached per instance.

    After every table has been read, each object still refuses assignment,
    equals and hashes like a fresh twin; a second read returns the identical
    table.
    """
    H = HypothesisClass.explicit(2, 3, [[0, 1], [2, 1], [1, 0]])
    S = SetSystem.explicit(3, [0b011, 0b110, 0b101, 0b010])
    m = Measure((Fraction(1, 2), 0, Fraction(1, 2)))
    H.label_masks(0)
    collection_of(GameSpec(2, 3, S, H, horizon=1), [0, 1])  # row words, member index
    S.span_fill(0b010)
    m.support_mask()
    tables = {H: ("_label_masks", "_row_words"), S: ("_answers", "_member_index"), m: ("_support",)}
    for obj, names in tables.items():
        for name in names:
            assert getattr(obj, name) is vars(obj)[name]
        field = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))
        twin = dataclasses.replace(obj)
        assert not set(names) & set(vars(twin))
        assert obj == twin and hash(obj) == hash(twin)


# The parameters each registered strategy requires; the others take none.
REQUIRED_PARAMS = {
    "frpfl": {"gamma": "1/2"},
    "helly_intersection": {"transversal": [1, 3, 5]},
    "scripted": {"labels": [0]},
}


@pytest.mark.parametrize(
    "role, make, registry, base",
    [
        ("learner", make_learner, learners.BUILDERS, Learner),
        ("adversary", make_adversary, adversaries.BUILDERS, Adversary),
    ],
    ids=["learner", "adversary"],
)
def test_both_registries_build_and_refuse_alike(role, make, registry, base):
    """Each registry builds every name it lists and refuses an unknown name or a bad parameter set.

    Both registries are one call of one builder, so they check in the same
    order: the name first, then each parameter the strategy reads (a
    missing required one is refused), then the parameters it left unread.
    """
    for name in registry:
        params = REQUIRED_PARAMS.get(name, {})
        assert isinstance(make(name, dict(params)), base)
        for key in params:
            with pytest.raises(SpecError, match=rf"^strategy '{name}' requires parameter '{key}'$"):
                make(name, {})
        with pytest.raises(SpecError, match=rf"^unused {role} parameters \['junk'\] for '{name}'$"):
            make(name, {**params, "junk": 1})
    with pytest.raises(SpecError, match=rf"^unknown {role} name 'x'$"):
        make("x", {"junk": 1})
    with pytest.raises(SpecError, match=rf"^unknown {role} name \['x'\]$"):
        make(["x"], {})

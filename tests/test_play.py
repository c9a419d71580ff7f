"""Play-loop behaviour pinned on frozen transcripts.

The expected branches, transcripts and protocol errors are frozen outputs of
``play_game``; a change to the loop or to the strategies must reproduce them.
"""

import pickle
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction
from pathlib import Path

import pytest

from pflab import (
    Adversary,
    CubeAdversary,
    GameSpec,
    HypothesisClass,
    Learner,
    Measure,
    OptimalAdversary,
    PrefixParityAdversary,
    ProtocolViolation,
    RealizabilityViolation,
    SetSystem,
    SpecError,
    VersionSpacePruningLearner,
    agnostic_game,
    cube_game,
    helly_game,
    load_spec_file,
    make_adversary,
    make_learner,
    mask_of,
    pf_not_sv_game,
    play_game,
    replay_predictions,
)
import pflab.engine
from pflab import game
from pflab.learners import ScriptedLearner, UniformPrefixLearner

from conftest import two_constant_game
from test_properties import spec_from_seed
from test_public_reference import reference_public_play


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


def test_public_cube_witness_search_runs_once_per_distinct_outcome(monkeypatch):
    """The cube adversary claims no witness; play searches once per outcome."""
    calls = []
    search = game.find_realizability_witness

    def counted(spec, instances, sets):
        calls.append((tuple(instances), tuple(sets)))
        return search(spec, instances, sets)

    monkeypatch.setattr(game, "find_realizability_witness", counted)
    spec = cube_game(4, 6, visibility="public")
    res = play_game(spec, make_learner("uniform_cube", {"T": 4}), make_adversary("public_cube", {}))
    outcomes = {(b.transcript.instances, b.transcript.sets) for b in res.branches}
    assert (len(res.branches), len(calls), res.expected_loss) == (256, 81, 3)
    assert sorted(calls) == sorted(outcomes)


class _ViewKeepingCube(CubeAdversary):
    """The cube adversary, keeping every view play hands it; its forks share the list."""

    def begin(self, spec):
        super().begin(spec)
        self.views = []

    def finalize_sets(self, view):
        self.views.append(view)
        return super().finalize_sets(view)


def test_public_leaf_records_equal_constructed_ones():
    """Play builds each leaf's records without their ``__init__``; nothing else tells."""
    adversary = _ViewKeepingCube(Fraction(1, 2))
    res = play_game(cube_game(3, 4, visibility="public"), make_learner("uniform_cube", {"T": 3}), adversary)
    assert len(res.branches) == len(adversary.views) == 27
    records = [r for b in res.branches for r in (b, b.transcript)] + adversary.views
    for record in records:
        assert type(record) in (game.PublicBranch, game.Transcript, game.GameView)
        twin = type(record)(**{f.name: getattr(record, f.name) for f in fields(record)})
        assert record == twin and twin == record
        assert hash(record) == hash(twin)
        assert repr(record) == repr(twin)
        assert pickle.dumps(record) == pickle.dumps(twin)
        assert pickle.loads(pickle.dumps(record)) == record
        assert replace(record) == record
        for f in fields(record):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(record, f.name)


class _ForkCountingCubeLearner(UniformPrefixLearner):
    """The uniform cube learner counting its forks and the draws it is told.

    It forks to itself, so every fork adds to the one count.
    """

    def begin(self, spec):
        super().begin(spec)
        self.counts = Counter()

    def fork(self):
        self.counts["fork"] += 1
        return super().fork()

    def observe_draw(self, z):
        self.counts["observe_draw"] += 1


def test_a_public_leaf_forks_only_the_adversary():
    # Three draws a round over three rounds: 3 + 9 = 12 internal draws, of
    # which all but the last of each 3 siblings, 8, play on forks. The 27
    # leaves would add 27 draws and 18 forks if the learner were carried
    # down to them.
    spec = cube_game(3, 4, visibility="public")
    learner = _ForkCountingCubeLearner(3)
    res = play_game(spec, learner, make_adversary("public_cube", {}))
    assert len(res.branches) == 27
    assert learner.counts == {"fork": 8, "observe_draw": 12}
    reference = reference_public_play(
        spec, make_learner("uniform_cube", {"T": 3}), make_adversary("public_cube", {})
    )
    assert [b.transcript for b in res.branches] == [b.transcript for b in reference.branches]
    assert res == reference


@pytest.mark.parametrize("name", ["cube-t3m4", "frpfl-vs-optimal"])
def test_public_branches_behave_as_the_tuple_of_their_records(name):
    res = play_game(*_weighted_game(name))
    branches = res.branches
    records = tuple(branches)
    n = len(records)
    plain = replace(res, branches=records)
    assert n > 2 and not isinstance(branches, tuple)
    assert res == plain and plain == res and not res != plain
    assert branches == records and records == branches and not branches != records
    assert hash(res) == hash(plain) and hash(branches) == hash(records)
    assert repr(res) == repr(plain) and repr(branches) == repr(records)
    assert res == play_game(*_weighted_game(name))
    # One branch fewer, or the same records in a list, is not the tuple.
    assert res != replace(plain, branches=records[:-1]) and branches != records[:-1]
    assert branches != list(records) and list(records) != branches
    assert list(branches) == [branches[i] for i in range(n)] == list(records)
    draws = [b.transcript.draws for b in branches]
    assert draws == sorted(draws)
    for i in (0, 1, n - 1, -1, -2, -n):
        assert branches[i] == records[i]
    for i in (n, -n - 1, 10**20):
        with pytest.raises(IndexError):
            branches[i]
    for cut in (slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, None),
                slice(n, None), slice(2, 1)):
        assert type(branches[cut]) is tuple and branches[cut] == records[cut]
    again = pickle.loads(pickle.dumps(res))
    assert again == res == plain and hash(again) == hash(res) and repr(again) == repr(res)
    assert pickle.loads(pickle.dumps(branches)) == records


# Every method play may call on a learner or an adversary.
_PROTOCOL = (
    "begin", "predict", "observe", "observe_set", "observe_loss_bit", "observe_draw",
    "choose_instance", "reveal", "reveal_set", "loss_bit", "finalize_sets",
    "witness_collection", "fork",
)


def _counting(strategy, calls: Counter):
    """``strategy``, its class swapped for a subclass counting each protocol call in ``calls``."""
    cls = type(strategy)

    def counted(name):
        method = getattr(cls, name)

        def call(self, *args):
            calls[name] += 1
            return method(self, *args)

        return call

    methods = {name: counted(name) for name in _PROTOCOL if hasattr(cls, name)}
    strategy.__class__ = type(cls.__name__, (cls,), methods)
    return strategy


@pytest.mark.parametrize("name", ["cube-t3m4", "frpfl-vs-optimal"])
def test_reading_public_branches_calls_no_strategy_and_validates_nothing(monkeypatch, name):
    validated = Counter()
    for check in ("collection_of", "find_realizability_witness", "_outcome"):
        def counted(*args, _check=check, _original=getattr(game, check)):
            validated[_check] += 1
            return _original(*args)

        monkeypatch.setattr(game, check, counted)
    calls = Counter()
    spec, learner, adversary = _weighted_game(name)
    res = play_game(spec, _counting(learner, calls), _counting(adversary, calls))
    leaves = len(res.branches)
    assert leaves > 2
    assert calls["finalize_sets"] == calls["witness_collection"] == leaves
    assert validated["collection_of"] == validated["_outcome"] > 0
    played = (Counter(calls), Counter(validated))
    for _ in range(2):
        assert len([b.transcript.witness for b in res.branches]) == leaves
        assert res.branches[-1] == res.branches[leaves - 1]
        assert len(res.branches[::2]) == (leaves + 1) // 2
        hash(res)
        repr(res)
    assert (calls, validated) == played


def _reference_expectations(result):
    """Total probability, E[loss], E[comparator] and E[regret] in plain Fractions.

    Each branch's probability is recomputed as the product of the weights
    its predictions gave its draws, and checked against the branch's own, as
    is its regret, its loss less its comparator.
    """
    total = e_loss = e_comp = Fraction(0)
    for b in result.branches:
        t = b.transcript
        p = Fraction(1)
        for pred, z in zip(t.predictions, t.draws):
            p *= pred.weights[z] if isinstance(pred, Measure) else Fraction(int(pred == z))
        assert b.probability == p
        assert t.regret == t.loss - t.comparator
        total += p
        e_loss += p * t.loss
        e_comp += p * t.comparator
    return total, e_loss, e_comp, e_loss - e_comp


class _FixedMeasureLearner(Learner):
    """Plays one measure every round, so branches get unequal weights."""

    mode = "randomized"

    def __init__(self, weights):
        self._weights = weights

    def begin(self, spec):
        self._measure = Measure.of(enumerate(self._weights), spec.n_labels)

    def predict(self, x):
        return self._measure


class _FloatMeasureLearner(Learner):
    """Builds its measure from floats in every round."""

    mode = "randomized"

    def begin(self, spec):
        pass

    def predict(self, x):
        return Measure((0.5, 0.5, 0.0))


@pytest.mark.parametrize("visibility", ["public", "oblivious"])
def test_float_measure_is_a_spec_error_in_play(visibility):
    spec = cube_game(2, 3, visibility=visibility)
    with pytest.raises(SpecError, match=r"^measure weight 0\.5 is not a Fraction or an int$"):
        play_game(spec, _FloatMeasureLearner(), CubeAdversary(Fraction(1, 2)))


class _ConstantWeightsLearner(Learner):
    """Builds one measure from the given weights, as given, in every round."""

    mode = "randomized"

    def __init__(self, weights):
        self._weights = weights

    def begin(self, spec):
        pass

    def predict(self, x):
        return Measure(self._weights)


@pytest.mark.parametrize("label", [0, 1, 2])
def test_public_play_takes_int_point_masses(label):
    """A measure may hold plain-int weights; public play draws from it as from Fractions."""
    spec = cube_game(3, 3, visibility="public")
    ints = tuple(int(y == label) for y in range(3))
    res = play_game(spec, _ConstantWeightsLearner(ints), CubeAdversary(Fraction(1, 2)))
    ref = play_game(spec, _ConstantWeightsLearner(tuple(map(Fraction, ints))),
                    CubeAdversary(Fraction(1, 2)))
    assert len(res.branches) == 1 and res.branches[0].probability == 1
    assert res.branches[0].transcript.draws == (label,) * 3
    assert res.expected_loss == ref.expected_loss == 3
    assert res.expected_comparator == ref.expected_comparator
    assert res.expected_regret == ref.expected_regret


class _SplitAdversary(Adversary):
    """Shows instance ``t`` in round ``t``, reveals label ``t`` and commits to ``{t}``.

    On the two-constant game over two instances no hypothesis fits both
    rounds, so every branch's comparator is 1.
    """

    def begin(self, spec):
        self._t = -1

    def choose_instance(self):
        self._t += 1
        return self._t

    def reveal(self, x, prediction):
        return x

    def finalize_sets(self, view):
        return [1 << x for x in view.instances]


def _weighted_game(name):
    """A public game by name: its spec, learner and adversary."""
    if name == "agnostic-split":  # comparator 1 on every branch
        spec = replace(agnostic_game(2), realizability="agnostic", visibility="public")
        return spec, make_learner("uniform_cube", {"T": 2}), _SplitAdversary()
    if name == "frpfl-vs-optimal":  # branches of 1/9 and 2/9
        spec = replace(helly_game(2), visibility="public")
        return spec, make_learner("frpfl", {"gamma": "1/2", "g": 6}), OptimalAdversary()
    if name == "cube-t3m4-sixths":  # draws of 1/2, 1/3 and 1/6
        learner = _FixedMeasureLearner([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
        return cube_game(3, 4, visibility="public"), learner, CubeAdversary(Fraction(1, 2))
    T, M = int(name[6]), int(name[8])  # "cube-tTmM"
    spec = cube_game(T, M, visibility="public")
    return spec, make_learner("uniform_cube", {"T": T}), CubeAdversary(Fraction(1, 2))


@pytest.mark.parametrize(
    "name",
    ["frpfl-vs-optimal", "cube-t3m4-sixths", "agnostic-split"]
    + [f"cube-t{T}m{M}" for T in (3, 4) for M in (4, 5, 6)],
)
def test_public_expectations_match_a_fraction_reference(name):
    res = play_game(*_weighted_game(name))
    total, e_loss, e_comp, e_regret = _reference_expectations(res)
    assert total == 1
    assert res.expected_loss == e_loss
    assert res.expected_comparator == e_comp
    assert res.expected_regret == e_regret


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


def test_label_play_groups_only_the_alive_collections(monkeypatch):
    """cvsp against ``pf_not_sv`` on the 4-round prefix-parity game groups 480 collections, not 1,024.

    The learner's engine holds 256 collections, and each reveal halves the
    alive ones, so round ``t``'s instance is grouped over ``256 / 2**t`` of
    them, once. The prefix-parity adversary tracks candidates, not
    collections, so every grouping is the learner's. The transcript is the
    one ``tests/cli_pins.json`` pins for this play.
    """
    grouped = []

    def recording(spec, words, x):
        images = game.images_at(spec, words, x)
        grouped.append((x, len(images)))
        return images

    monkeypatch.setattr(pflab.engine, "images_at", recording)
    spec = load_spec_file(Path(__file__).resolve().parent / "specs" / "prefix_parity_t4.yaml").spec
    learner = make_learner("cvsp", {})
    t = play_game(spec, learner, make_adversary("pf_not_sv", {}))
    assert len(learner._engines[0].image_words) == 256
    assert grouped == [(0, 256), (1, 128), (2, 64), (3, 32)]
    assert _summary(t) == (
        (0, 1, 2, 3), (16,) * 4, (17,) * 4, (mask_of([0, 17]),) * 4, "4", (0, 16)
    )
    assert t.comparator == 0


class _LossFollowingLearner(Learner):
    """Predicts 0 until it loses a round, then 1."""

    def begin(self, spec):
        self._label = 0

    def predict(self, x):
        return self._label

    def observe_loss_bit(self, bit):
        if bit:
            self._label = 1


def test_bandit_replay_feeds_back_each_loss_bit():
    # The first round is lost, and that loss bit turns every later prediction.
    spec = replace(two_constant_game(3), feedback="bandit")
    t = play_game(spec, _LossFollowingLearner(), _BanditAdversary())
    assert t.predictions == (0, 1, 1)
    assert replay_predictions(spec, t, _LossFollowingLearner()) == t.predictions


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


# -- outcome memo -------------------------------------------------------------------


class _PerDrawAdversary(Adversary):
    """Reveals label 0; finalizes sets and claims a witness chosen by the draws.

    The default deep-copy fork gives each draw branch its own copy, so each
    branch reads its own entry of ``outcomes``: draws -> (sets, witness).
    """

    def __init__(self, outcomes):
        self._outcomes = outcomes

    def choose_instance(self):
        return 0

    def reveal(self, x, prediction):
        return 0

    def finalize_sets(self, view):
        self._sets, self._witness = self._outcomes[view.draws]
        return self._sets

    def witness_collection(self):
        return self._witness


def _three_draw_game():
    """One public round on 3 labels, drawn uniformly: branches draw 0, 1 and 2.

    The member sets are {0}, {0, 1} and {2}; each hypothesis is a constant.
    """
    spec = GameSpec(
        n_instances=1,
        n_labels=3,
        set_system=SetSystem.explicit(3, [0b001, 0b011, 0b100]),
        hypotheses=HypothesisClass.explicit(1, 3, [(0,), (1,), (2,)]),
        horizon=1,
        visibility="public",
    )
    return spec, make_learner("uniform_cube", {"T": 3})


def test_outcome_memo_never_skips_a_type_check():
    """A bool that equals an int of an already checked outcome is still rejected.

    Branch 0 settles a valid outcome; branch 1 repeats it with ``True`` in
    place of a ``1``, which compares and hashes equal to it.
    """
    spec, learner = _three_draw_game()
    adversary = _PerDrawAdversary({
        (0,): ((0b001,), (0,)),
        (1,): ((True,), (0,)),
        (2,): ((0b001,), (0,)),
    })
    with pytest.raises(ProtocolViolation, match=r"^finalized set must be a label bitmask, got True$"):
        play_game(spec, learner, adversary)
    spec, learner = _three_draw_game()
    adversary = _PerDrawAdversary({
        (0,): ((0b011,), (0, 1)),
        (1,): ((0b011,), (0, True)),
        (2,): ((0b011,), (0, 1)),
    })
    with pytest.raises(RealizabilityViolation, match="collection member True is not a hypothesis index"):
        play_game(spec, learner, adversary)


def test_outcome_memo_checks_each_distinct_outcome():
    """A non-member set on a later branch raises there, after valid outcomes."""
    spec, learner = _three_draw_game()
    adversary = _PerDrawAdversary({
        (0,): ((0b001,), (0,)),
        (1,): ((0b011,), (0, 1)),
        (2,): ((0b101,), (0, 2)),
    })
    with pytest.raises(
        ProtocolViolation, match=r"^finalized set \(0, 2\) at round 0 is not in the set system$"
    ):
        play_game(spec, learner, adversary)
    spec, learner = _three_draw_game()
    adversary = _PerDrawAdversary({
        (0,): ((0b001,), (0,)),
        (1,): ((0b011,), (0, 1)),
        (2,): ((0b001,), (0,)),
    })
    res = play_game(spec, learner, adversary)
    assert [b.transcript.sets for b in res.branches] == [(1,), (3,), (1,)]
    assert [str(b.transcript.loss) for b in res.branches] == ["0", "0", "1"]


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

"""One exact-input rule at every boundary: a table of refused values.

Every size, depth, index, mask, threshold or parameter pflab takes from
outside must be exact: a plain int (a ``bool`` is not one) or, for a
threshold, a ``Fraction``. Each row feeds one rejected value (a ``bool``, a
float, a digit string where none is allowed, ``None``, a negative or an
out-of-range value) through one boundary: a spec file, a CLI flag, a
library entry point or constructor, a strategy parameter, a strategy move,
or a shattering tree. A library row checks the exception class and the
start of its message; a CLI row checks exit code 2 and one stderr line.
"""

import dataclasses
import os
from fractions import Fraction
from pathlib import Path

import pytest

from pflab import (
    Adversary,
    CollectionEngine,
    CollisionFamily,
    ConstantLearner,
    CubeAdversary,
    HypothesisClass,
    Measure,
    MultiScaleMeasureLearner,
    OptimalAdversary,
    PflabError,
    ProtocolViolation,
    RealizabilityViolation,
    ScriptedLearner,
    SeededRandomAdversary,
    SetSystem,
    SpecError,
    TreeSpecMismatch,
    UniformPrefixLearner,
    agnostic_game,
    build_admissible_collections,
    collection_of,
    cube_game,
    enumerate_specs,
    find_realizability_witness,
    inseparability_report,
    load_spec_file,
    make_adversary,
    make_learner,
    minimax_rand_regret,
    ml_sl_bl_dim,
    msp,
    pfl_dim,
    play_game,
    pms_dim,
    shattering_tree,
    verify_shattering_tree,
)
from pflab.cli import _fraction_arg, main
from pflab.game import fraction

from conftest import two_constant_game

SYSTEM = SetSystem.explicit(2, [0b01, 0b10, 0b11])
PARITY = load_spec_file(Path(__file__).parent / "specs" / "prefix_parity_t2.yaml").spec
TWO = two_constant_game(2)


def _engine_value(rounds):
    engine = CollectionEngine(TWO, build_admissible_collections(TWO))
    return engine.value(*engine.initial_state(), rounds)


def _with_env(name, value, call):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        return call()
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


class _Fixed(Adversary):
    """Shows instance 0, reveals 0 and finalizes {0}, unless ``answers`` says otherwise."""

    def __init__(self, **answers):
        self.answers = answers

    def begin(self, spec):
        self.spec = spec

    def choose_instance(self):
        return self.answers.get("instance", 0)

    def reveal(self, x, prediction):
        return self.answers.get("reveal", 0)

    def reveal_set(self, x, prediction):
        return self.answers.get("set", 0b01)

    def loss_bit(self, x, prediction):
        return self.answers.get("bit", 0)

    def finalize_sets(self, view):
        return self.answers.get("sets", [0b01] * self.spec.horizon)

    def witness_collection(self):
        return self.answers.get("witness", (0,))


def _play(learner=(0,), feedback="partial", **answers):
    spec = dataclasses.replace(two_constant_game(1), feedback=feedback)
    return play_game(spec, ScriptedLearner(list(learner)), _Fixed(**answers))


def _tree(**change):
    tree = shattering_tree(TWO, 1)
    verify_shattering_tree(TWO, tree)
    return verify_shattering_tree(TWO, dataclasses.replace(tree, **change))


def lib(boundary, rejected, call, error, message):
    return pytest.param(call, error, message, id=f"{boundary}-{rejected}")


HEAD = "labels: 2\ninstances: 1\nset_system: [[0], [1]]\nhypotheses: [[0], [1]]\n"


@dataclasses.dataclass
class _Cli:
    """``pflab`` run on ``argv``, with ``SPEC`` standing for a file holding ``spec_text``."""

    spec_text: str
    argv: str | tuple  # a tuple keeps an argument's spaces


def cli(boundary, rejected, spec_text, argv, message):
    return pytest.param(_Cli(spec_text, argv), 2, message, id=f"{boundary}-{rejected}")


LIBRARY = [
    # Library value entry points: d, T, cap, rounds and budget.
    lib("entry", "float", lambda: pfl_dim(PARITY, 1.5), SpecError,
        "depth must be a plain int, got 1.5"),
    lib("entry", "bool", lambda: pfl_dim(PARITY, True), SpecError,
        "depth must be a plain int, got True"),
    lib("entry", "None", lambda: pfl_dim(PARITY, None), SpecError,
        "depth must be a plain int, got None"),
    lib("entry", "digits", lambda: pfl_dim(PARITY, "2"), SpecError,
        "depth must be a plain int, got '2'"),
    lib("entry", "negative", lambda: pfl_dim(PARITY, -1), SpecError,
        "depth must be nonnegative, got -1"),
    lib("entry-horizon", "float", lambda: minimax_rand_regret(TWO, 1.5), SpecError,
        "horizon must be a plain int, got 1.5"),
    lib("entry-horizon", "negative", lambda: minimax_rand_regret(TWO, -1), SpecError,
        "horizon must be nonnegative, got -1"),
    lib("entry-cap", "float", lambda: ml_sl_bl_dim(TWO, "ml", cap=1.5), SpecError,
        "cap must be a plain int, got 1.5"),
    lib("entry-budget", "float", lambda: pfl_dim(TWO, 2, budget=1.5), SpecError,
        "budget must be a plain int, got 1.5"),
    lib("entry-budget", "bool", lambda: pfl_dim(TWO, 2, budget=True), SpecError,
        "budget must be a plain int, got True"),
    lib("entry-budget", "negative", lambda: pfl_dim(TWO, 2, budget=-1), SpecError,
        "budget must be nonnegative, got -1"),
    lib("entry-rounds", "float", lambda: _engine_value(1.5), SpecError,
        "rounds must be a plain int, got 1.5"),
    lib("entry-rounds", "negative", lambda: _engine_value(-1), SpecError,
        "rounds must be nonnegative, got -1"),
    lib("entry-tree", "float", lambda: shattering_tree(TWO, 1.5), SpecError,
        "depth must be a plain int, got 1.5"),
    lib("entry-gamma", "float", lambda: pms_dim(TWO, 1, 0.1), SpecError,
        "gamma 0.1 is not a Fraction or an int"),
    lib("entry-gamma", "out of range", lambda: pms_dim(TWO, 1, Fraction(3, 2)), SpecError,
        "gamma must lie in [0, 1], got 3/2"),
    lib("entry-witness", "bool", lambda: find_realizability_witness(TWO, (True,), (1,)),
        SpecError, "instance True outside range(1)"),
    lib("entry-witness", "negative", lambda: find_realizability_witness(TWO, (0,), (-1,)),
        SpecError, "set -1 is not a label mask"),
    lib("entry-collection", "float", lambda: collection_of(TWO, [0.0]), SpecError,
        "collection member 0.0 is not a hypothesis index"),
    lib("entry-collection", "None", lambda: collection_of(TWO, None), SpecError,
        "collection member None is not a hypothesis index"),
    lib("entry-env", "non-ASCII digits", lambda: _with_env("PFLAB_BUDGET_STATES", "١٢",
        lambda: pfl_dim(TWO, 1)), SpecError, "PFLAB_BUDGET_STATES must be a nonnegative integer"),
    lib("entry-env", "negative", lambda: _with_env("PFLAB_BUDGET_STATES", "-1",
        lambda: pfl_dim(TWO, 1)), SpecError, "PFLAB_BUDGET_STATES must be a nonnegative integer"),
    # Library constructors: game sizes, grids, set-system bounds, weights and outputs.
    lib("constructor", "float", lambda: dataclasses.replace(TWO, horizon=1.5), SpecError,
        "a game size must be a plain int, got 1.5"),
    lib("constructor", "None", lambda: dataclasses.replace(TWO, n_instances=None), SpecError,
        "a game size must be a plain int, got None"),
    lib("constructor", "out of range", lambda: dataclasses.replace(TWO, horizon=0), SpecError,
        "horizon must be at least 1"),
    lib("constructor-grid", "bool", lambda: dataclasses.replace(TWO, measure_grid=True), SpecError,
        "measure_grid must be a positive integer"),
    lib("constructor-grid", "float", lambda: dataclasses.replace(TWO, measure_grid=2.5), SpecError,
        "measure_grid must be a positive integer"),
    lib("constructor-max-size", "float", lambda: SetSystem.all_nonempty_up_to(3, 1.5), SpecError,
        "max_size must lie in [1, 3], got 1.5"),
    lib("constructor-max-size", "bool", lambda: SetSystem.all_nonempty_up_to(3, True), SpecError,
        "max_size must lie in [1, 3], got True"),
    lib("constructor-max-size", "out of range", lambda: SetSystem.all_nonempty_up_to(3, 4),
        SpecError, "max_size must lie in [1, 3], got 4"),
    lib("constructor-set", "bool", lambda: SetSystem.explicit(2, [[0, True]]), SpecError,
        "set label True is not a plain int >= 0"),
    lib("constructor-set", "negative", lambda: SetSystem.explicit(2, [[-1]]), SpecError,
        "set label -1 is not a plain int >= 0"),
    lib("constructor-rows", "bool", lambda: HypothesisClass.explicit(1, 2, [[True]]), SpecError,
        "hypothesis output True outside range(2)"),
    lib("constructor-weight", "float", lambda: Measure((Fraction(1, 2), 0.5)), SpecError,
        "measure weight 0.5 is not a Fraction or an int"),
    lib("constructor-weight", "negative", lambda: Measure((Fraction(3, 2), Fraction(-1, 2))),
        SpecError, "measure weights must be nonnegative"),
    lib("constructor-delta", "bool", lambda: Measure.delta(2, True), SpecError,
        "label True outside range(2)"),
    lib("constructor-strategy", "float", lambda: UniformPrefixLearner(1.5), SpecError,
        "label count must be positive, got 1.5"),
    lib("constructor-strategy", "float scale count", lambda: MultiScaleMeasureLearner(N=1.5),
        SpecError, "scale count must be positive, got 1.5"),
    lib("constructor-strategy", "float label", lambda: play_game(TWO, ConstantLearner(1.5),
        OptimalAdversary()), SpecError, "constant label 1.5 out of range"),
    lib("constructor-cube", "float", lambda: CubeAdversary(0.5), SpecError,
        "mass threshold 0.5 is not a Fraction or an int"),
    lib("constructor-cube", "bool", lambda: CubeAdversary(True), SpecError,
        "mass threshold True is not a Fraction or an int"),
    lib("constructor-cube", "text", lambda: CubeAdversary("1/2"), SpecError,
        "mass threshold '1/2' is not a Fraction or an int"),
    lib("constructor-seed", "float", lambda: SeededRandomAdversary(1.5), SpecError,
        "seed 1.5 is not a plain int"),
    lib("constructor-seed", "bool", lambda: SeededRandomAdversary(True), SpecError,
        "seed True is not a plain int"),
    lib("constructor-seed", "text", lambda: SeededRandomAdversary("x"), SpecError,
        "seed 'x' is not a plain int"),
    lib("constructor-modulus", "float", lambda: CollisionFamily(modulus=7.0), SpecError,
        "modulus must be a positive int, got 7.0"),
    lib("constructor-modulus", "bool", lambda: CollisionFamily(modulus=True), SpecError,
        "modulus must be a positive int, got True"),
    lib("constructor-modulus", "text", lambda: CollisionFamily(modulus="7"), SpecError,
        "modulus must be a positive int, got '7'"),
    lib("constructor-slopes", "float", lambda: CollisionFamily(slopes=(0.5, 1)), SpecError,
        "slope 0.5 is not a plain int"),
    lib("constructor-slopes", "bool", lambda: CollisionFamily(slopes=(0, True)), SpecError,
        "slope True is not a plain int"),
    lib("constructor-pool", "text", lambda: CollisionFamily(pool=(0, "1")), SpecError,
        "pool entry '1' is not a plain int"),
    lib("constructor-system-labels", "float", lambda: SetSystem.explicit(2.0, [[0]]), SpecError,
        "a game size must be a plain int, got 2.0"),
    lib("constructor-system-labels", "bool", lambda: SetSystem.explicit(True, [[0]]), SpecError,
        "a game size must be a plain int, got True"),
    lib("constructor-system-labels", "text", lambda: SetSystem.explicit("2", [[0]]), SpecError,
        "a game size must be a plain int, got '2'"),
    lib("constructor-class", "float", lambda: HypothesisClass.explicit(1.0, 2, [[0]]), SpecError,
        "a game size must be a plain int, got 1.0"),
    lib("constructor-class", "bool", lambda: HypothesisClass.explicit(1, True, [[0]]), SpecError,
        "a game size must be a plain int, got True"),
    lib("constructor-class", "text", lambda: HypothesisClass.explicit("1", 2, [[0]]), SpecError,
        "a game size must be a plain int, got '1'"),
    lib("constructor-all-functions", "float", lambda: HypothesisClass.all_functions(2.0, 2),
        SpecError, "a game size must be a plain int, got 2.0"),
    lib("constructor-all-functions", "bool", lambda: HypothesisClass.all_functions(2, True),
        SpecError, "a game size must be a plain int, got True"),
    lib("constructor-all-functions", "text", lambda: HypothesisClass.all_functions("2", 2),
        SpecError, "a game size must be a plain int, got '2'"),
    lib("constructor-cube-game", "float", lambda: cube_game(2, 3.0), SpecError,
        "a game size must be a plain int, got 3.0"),
    lib("constructor-cube-game", "bool", lambda: cube_game(2, True), SpecError,
        "a game size must be a plain int, got True"),
    lib("constructor-cube-game", "text", lambda: cube_game(2, "3"), SpecError,
        "a game size must be a plain int, got '3'"),
    lib("constructor-agnostic-game", "float", lambda: agnostic_game(2.0), SpecError,
        "a game size must be a plain int, got 2.0"),
    lib("constructor-agnostic-game", "bool", lambda: agnostic_game(True), SpecError,
        "a game size must be a plain int, got True"),
    lib("constructor-agnostic-game", "text", lambda: agnostic_game("2"), SpecError,
        "a game size must be a plain int, got '2'"),
    lib("entry-p", "float", lambda: inseparability_report(SYSTEM, 1.5), SpecError,
        "p must be a positive integer, got 1.5"),
    lib("entry-p", "bool", lambda: inseparability_report(SYSTEM, True), SpecError,
        "p must be a positive integer, got True"),
    lib("entry-p", "text", lambda: inseparability_report(SYSTEM, "2"), SpecError,
        "p must be a positive integer, got '2'"),
    lib("entry-msp", "float", lambda: msp(2.0, [], [], SYSTEM), SpecError,
        "N must be a plain int, got 2.0"),
    lib("entry-msp", "bool", lambda: msp(True, [], [], SYSTEM), SpecError,
        "N must be a plain int, got True"),
    lib("entry-msp", "text", lambda: msp("2", [], [], SYSTEM), SpecError,
        "N must be a plain int, got '2'"),
    lib("entry-family", "float", lambda: list(enumerate_specs(2, (1,), 1.5, (1,))), SpecError,
        "max_class_size must be a plain int, got 1.5"),
    lib("entry-family", "bool", lambda: list(enumerate_specs(2, (1,), True, (1,))), SpecError,
        "max_class_size must be a plain int, got True"),
    lib("entry-family", "text", lambda: list(enumerate_specs(2, (1,), "1", (1,))), SpecError,
        "max_class_size must be a plain int, got '1'"),
    # Strategy parameters, as the registries take them from a spec file.
    lib("parameter", "float", lambda: make_learner("constant", {"label": 1.5}), SpecError,
        "parameter 'label' of 'constant' is not a valid integer: 1.5"),
    lib("parameter", "bool", lambda: make_learner("constant", {"label": True}), SpecError,
        "parameter 'label' of 'constant' is not a valid integer: True"),
    lib("parameter", "None", lambda: make_learner("constant", {"label": None}), SpecError,
        "parameter 'label' of 'constant' is not a valid integer: None"),
    lib("parameter", "underscored digits", lambda: make_learner("constant", {"label": "1_0"}),
        SpecError, "parameter 'label' of 'constant' is not a valid integer: '1_0'"),
    lib("parameter", "padded digits", lambda: make_learner("constant", {"label": " 1 "}),
        SpecError, "parameter 'label' of 'constant' is not a valid integer: ' 1 '"),
    lib("parameter", "plus sign", lambda: make_adversary("random", {"seed": "+1"}), SpecError,
        "parameter 'seed' of 'random' is not a valid integer: '+1'"),
    lib("parameter", "full-width digit", lambda: make_adversary("random", {"seed": "１"}),
        SpecError, "parameter 'seed' of 'random' is not a valid integer"),
    lib("parameter", "gamma float", lambda: make_learner("frpfl", {"gamma": 0.1}), SpecError,
        "parameter 'gamma' of 'frpfl' is not a valid fraction: 0.1"),
    lib("parameter", "underscored gamma", lambda: make_learner("frpfl", {"gamma": "1_0/20"}),
        SpecError, "parameter 'gamma' of 'frpfl' is not a valid fraction: '1_0/20'"),
    lib("parameter", "non-ASCII gamma", lambda: make_learner("frpfl", {"gamma": "١/٢"}),
        SpecError, "parameter 'gamma' of 'frpfl' is not a valid fraction"),
    lib("parameter", "padded k", lambda: make_adversary("public_cube", {"k": " 1/2"}),
        SpecError, "parameter 'k' of 'public_cube' is not a valid fraction: ' 1/2'"),
    lib("parameter", "bare decimal point", lambda: make_adversary("public_cube", {"k": ".5"}),
        SpecError, "parameter 'k' of 'public_cube' is not a valid fraction: '.5'"),
    lib("parameter", "list bool", lambda: make_learner("scripted", {"labels": [0, True]}),
        SpecError, "parameter 'labels' of 'scripted' is not a valid int_list: [0, True]"),
    lib("parameter", "out of range", lambda: play_game(TWO, make_learner("constant", {"label": 2}),
        make_adversary("optimal", {})), SpecError, "constant label 2 out of range"),
    lib("parameter", "negative", lambda: play_game(TWO, make_learner("constant", {"label": -1}),
        make_adversary("optimal", {})), SpecError, "constant label -1 out of range"),
    # Strategy moves, checked by play on every round and every leaf.
    lib("move-prediction", "bool", lambda: _play(learner=(True,)), ProtocolViolation,
        "prediction must be a plain int label or a Measure, got True of type bool"),
    lib("move-prediction", "float", lambda: _play(learner=(0.5,)), ProtocolViolation,
        "prediction must be a plain int label or a Measure, got 0.5 of type float"),
    lib("move-prediction", "digits", lambda: _play(learner=("0",)), ProtocolViolation,
        "prediction must be a plain int label or a Measure, got '0' of type str"),
    lib("move-prediction", "negative", lambda: _play(learner=(-1,)), ProtocolViolation,
        "predicted label -1 outside range(2)"),
    lib("move-instance", "None", lambda: _play(instance=None), ProtocolViolation,
        "instance must be a plain int, got None of type NoneType"),
    lib("move-instance", "out of range", lambda: _play(instance=1), ProtocolViolation,
        "instance 1 outside range(1)"),
    lib("move-reveal", "bool", lambda: _play(reveal=False), ProtocolViolation,
        "revealed label must be a plain int, got False of type bool"),
    lib("move-set", "negative", lambda: _play(feedback="set_valued", set=-1), ProtocolViolation,
        "revealed set must be a label bitmask, got -1"),
    lib("move-bit", "out of range", lambda: _play(feedback="bandit", bit=2), ProtocolViolation,
        "loss bit must be 0 or 1, got 2"),
    lib("move-sets", "float", lambda: _play(sets=[1.0]), ProtocolViolation,
        "finalized set must be a label bitmask, got 1.0"),
    lib("move-sets", "negative", lambda: _play(sets=[-1]), ProtocolViolation,
        "finalized set must be a label bitmask, got -1"),
    lib("move-witness", "bool", lambda: _play(witness=(True,)), RealizabilityViolation,
        "the claimed witness is not admissible: collection member True is not a hypothesis index"),
    # Shattering trees, replayed against the spec alone.
    lib("tree", "float", lambda: _tree(depth=1.5), TreeSpecMismatch,
        "depth 1.5 must be a nonnegative int"),
    lib("tree", "negative", lambda: _tree(q=-1), TreeSpecMismatch,
        "shattering count -1 must be a nonnegative int"),
    lib("tree", "bool", lambda: _tree(nodes={(): True}), TreeSpecMismatch,
        "node instance True out of range"),
    lib("tree", "out of range", lambda: _tree(annotations={(0,): 0, (1,): 2}), TreeSpecMismatch,
        "annotation 2 out of range"),
]

SPEC = HEAD + "horizon: 2\n"
DIM = "dim SPEC --what pfl --depth 1"
PLAY = "play SPEC --adversary optimal"
COMMAND_LINE = [
    # Spec files.
    cli("spec", "float", HEAD + "horizon: 1.5\n", DIM, "horizon must be an integer, got 1.5"),
    cli("spec", "bool", SPEC + "grid: true\n", DIM, "grid must be a positive integer, got True"),
    cli("spec", "digits", SPEC.replace("labels: 2", "labels: '2'"), DIM,
        "labels must be an integer, got '2'"),
    cli("spec", "None", HEAD + "horizon:\n", DIM, "horizon must be an integer, got None"),
    cli("spec", "negative", SPEC.replace("instances: 1", "instances: -1"), DIM,
        "instances must be at least 1, got -1"),
    cli("spec", "out of range", SPEC.replace("[[0], [1]]\nhor", "[[0], [2]]\nhor"), DIM,
        "hypothesis output 2 outside range(2)"),
    cli("spec-row", "float", SPEC.replace("[[0], [1]]\nhor", "[[0], [1.5]]\nhor"), DIM,
        "hypothesis output 1.5 outside range(2)"),
    cli("spec-shorthand", "bool",
        SPEC.replace("[[0], [1]]\nhyp", "{all_nonempty_up_to: true}\nhyp"),
        DIM, "all_nonempty_up_to takes an integer"),
    # Strategy parameters in a spec file.
    cli("spec-parameter", "float", SPEC + "learner: {name: frpfl, params: {gamma: 0.1}}\n", PLAY,
        "parameter 'gamma' of 'frpfl' is not a valid fraction: 0.1"),
    cli("spec-parameter", "bool", SPEC + "learner: {name: frpfl, params: {gamma: true}}\n", PLAY,
        "parameter 'gamma' of 'frpfl' is not a valid fraction: True"),
    cli("spec-parameter", "underscored digits",
        SPEC + "learner: {name: constant, params: {label: '1_0'}}\n", PLAY,
        "parameter 'label' of 'constant' is not a valid integer: '1_0'"),
    # CLI flags.
    cli("flag", "negative", SPEC, "dim SPEC --what pfl --depth -1",
        "depth must be nonnegative, got -1"),
    cli("flag", "negative budget", SPEC, "dim SPEC --what pfl --depth 1 --budget -1",
        "budget must be nonnegative, got -1"),
    cli("flag", "out of range", SPEC, "rand SPEC --what regret --depth 1 --grid 0",
        "grid resolution must be a positive integer, got 0"),
    cli("flag", "out-of-range gamma", SPEC, "rand SPEC --what pms --depth 1 --gamma 2",
        "gamma must lie in [0, 1], got 2"),
    cli("flag", "float", SPEC, "dim SPEC --what ppfl --depth 1 --prefix-x 0.5 --prefix-y 0 "
        "--prefix-reveal 0", "expected a comma-separated integer list, got '0.5'"),
    cli("flag", "bool", SPEC, "rand SPEC --what pms --depth 1 --gamma true",
        "expected a rational like 1/3, got 'true'"),
    cli("flag", "out-of-range prefix", SPEC, "dim SPEC --what ppfl --depth 1 --prefix-x 1 "
        "--prefix-y 0 --prefix-reveal 0", "prefix instance 1 outside range(1)"),
    # Integer flags take ASCII digits after an optional "-", as is_decimal reads them.
    cli("flag", "underscored depth", SPEC, "dim SPEC --what pfl --depth 1_0",
        "--depth expects an integer, got '1_0'"),
    cli("flag", "plus-signed depth", SPEC, "dim SPEC --what pfl --depth +1",
        "--depth expects an integer, got '+1'"),
    cli("flag", "float depth", SPEC, "dim SPEC --what pfl --depth 1.5",
        "--depth expects an integer, got '1.5'"),
    cli("flag", "non-ASCII depth", SPEC, "rand SPEC --what regret --depth ١",
        "--depth expects an integer, got '١'"),
    cli("flag", "float budget", SPEC, "dim SPEC --what pfl --depth 1 --budget 1e3",
        "--budget expects an integer, got '1e3'"),
    cli("flag", "float grid", SPEC, "rand SPEC --what regret --depth 1 --grid 2.5",
        "--grid expects an integer, got '2.5'"),
    cli("flag", "underscored p", SPEC, "setsys SPEC --p 1_0", "--p expects an integer, got '1_0'"),
    cli("flag", "float sweep budget", SPEC, "sweep SPEC --task dim --what pfl --horizon 1 "
        "--budget 1.5", "--budget expects an integer, got '1.5'"),
    cli("flag", "underscored horizon", SPEC, "sweep SPEC --task dim --what pfl --horizon 1_0",
        "expected a comma-separated integer list, got '1_0'"),
    cli("flag", "underscored range", SPEC, "sweep SPEC --task dim --what pfl --horizon 1..2_0",
        "expected a range like 1..4, got '1..2_0'"),
    cli("flag", "padded prefix", SPEC, ("dim", "SPEC", "--what", "ppfl", "--depth", "1",
        "--prefix-x", " 0", "--prefix-y", "0", "--prefix-reveal", "0"),
        "expected a comma-separated integer list, got ' 0'"),
    # Rational flags take ASCII digits, then optionally "/" or "." and digits (is_rational).
    cli("flag", "padded gamma", SPEC, ("rand", "SPEC", "--what", "pms", "--depth", "1",
        "--gamma", " 1/2"), "expected a rational like 1/3, got ' 1/2'"),
    cli("flag", "underscored gamma", SPEC, "rand SPEC --what pms --depth 1 --gamma 1_0/20",
        "expected a rational like 1/3, got '1_0/20'"),
    cli("flag", "exponent gamma", SPEC, "rand SPEC --what pms --depth 1 --gamma 5e-1",
        "expected a rational like 1/3, got '5e-1'"),
    cli("flag", "non-ASCII gamma", SPEC, "rand SPEC --what pms --depth 1 --gamma ١/٢",
        "expected a rational like 1/3, got '١/٢'"),
    cli("flag", "bare decimal point", SPEC, "sweep SPEC --task rand --what pms --horizon 1 "
        "--gamma .5", "expected a rational like 1/3, got '.5'"),
    cli("flag", "padded weight", SPEC, ("rand", "SPEC", "--what", "ppms", "--depth", "1",
        "--gamma", "1/2", "--prefix-x", "0", "--prefix-measure", "1/2, 1/2",
        "--prefix-reveal", "0"), "expected a rational like 1/3, got ' 1/2'"),
]


@pytest.mark.parametrize("call, expected, message", LIBRARY + COMMAND_LINE)
def test_every_boundary_refuses_inexact_values(tmp_path, capsys, call, expected, message):
    if isinstance(call, _Cli):
        path = tmp_path / "spec.yaml"
        path.write_text(call.spec_text)
        argv = call.argv.split() if isinstance(call.argv, str) else call.argv
        assert main([str(path) if a == "SPEC" else a for a in argv]) == expected
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
        assert message in captured.err
        return
    assert issubclass(expected, PflabError)
    with pytest.raises(expected) as caught:
        call()
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize(
    "text, value",
    [("1/3", Fraction(1, 3)), ("0.1", Fraction(1, 10)), ("-2", Fraction(-2)), ("07/14", Fraction(1, 2))],
)
def test_rational_text_keeps_its_plain_spellings(text, value):
    """A plain fraction, decimal or int is still read exactly, as a strategy parameter and as a flag."""
    assert fraction(text) == value
    assert _fraction_arg(text) == value

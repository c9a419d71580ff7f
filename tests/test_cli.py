"""Command-line interface: output contracts, exit codes, and determinism."""

import dataclasses
import gc
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

import pflab.cli
import pflab.dimensions
import pflab.replicate
import pflab.setsystems
from pflab import (
    GridTooLarge,
    build_admissible_collections,
    load_spec_file,
    pfl_dim,
    pms_dim,
    shattering_tree,
)
from pflab.cli import CSV_HEADER, main
from pflab.engine import CollectionEngine
from pflab.replicate import CHECKS

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
TWO_CONSTANT = str(SPEC_DIR / "two_constant.yaml")
OVERLAP = str(SPEC_DIR / "overlap_triple.yaml")
AGNOSTIC = str(SPEC_DIR / "agnostic_coin.yaml")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_runtime(text):
    return re.sub(r"(runtime_ms[:,] ?)\d+", r"\g<1>_", re.sub(r",\d+,(?=[01]$)", ",_,", text, flags=re.M))


def test_dim_worked_example(capsys):
    code, out, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "1"])
    assert code == 0 and err == ""
    assert "value: 1" in out
    assert "task: dim/pfl" in out


def test_dim_witness(capsys):
    code, out, _ = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "2", "--witness"])
    assert code == 0
    assert "value: 1" in out
    assert "witness" in out


def test_dim_csv_format(capsys):
    code, out, _ = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "1",
                                "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[1] == "dim/pfl"
    assert fields[2] == "1"          # horizon
    assert (fields[5], fields[6]) == ("1", "1")  # value 1/1
    assert fields[8] == "0"          # exact, not grid-truncated


def test_csv_witness_builds_no_tree(capsys):
    # CSV has no place for a tree, so the tree's node bound must not reject
    # the row: at depth 20 it would exit 3.
    code, out, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "20",
                                  "--witness", "--format", "csv"])
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[1:7] == ["dim/pfl", "20", "", "", "1", "1"]


def test_witness_runs_one_enumeration_and_one_root_solve(capsys, monkeypatch):
    """The row's value is the tree's q: one engine gives both."""
    enumerations, roots = [], []
    enumerate_ = pflab.dimensions.build_admissible_collections
    value = CollectionEngine.value

    def counted_enumeration(spec, *args, **kwargs):
        enumerations.append(spec)
        return enumerate_(spec, *args, **kwargs)

    def counted_value(self, alive, scores, rounds):
        if rounds == 3:
            roots.append(rounds)
        return value(self, alive, scores, rounds)

    monkeypatch.setattr(pflab.dimensions, "build_admissible_collections", counted_enumeration)
    monkeypatch.setattr(CollectionEngine, "value", counted_value)
    for what in ("pfl", "regret"):
        enumerations.clear()
        roots.clear()
        code, out, err = run(capsys, ["dim", OVERLAP, "--what", what, "--depth", "3", "--witness"])
        assert (code, err) == (0, "")
        assert "value: 1\n" in out and "\nq: 1\n" in out
        assert (len(enumerations), len(roots)) == (1, 1)


def test_regret_witness_keeps_the_realizability_gate(capsys):
    for extra in ([], ["--witness"]):
        code, out, err = run(capsys, ["dim", AGNOSTIC, "--what", "regret", "--depth", "1", *extra])
        assert (code, out) == (2, "")
        assert err == "spec error: the deterministic minimax value is defined for fully realizable games only\n"


def test_ops_leave_no_cyclic_garbage(capsys, tmp_path):
    """What an op builds is freed by reference counting alone, with no cycle left."""
    cube = tmp_path / "cube.yaml"
    cube.write_text(
        "labels: 4\ninstances: 3\nset_system: [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]\n"
        "hypotheses: {all_functions: true}\nhorizon: 3\nprotocol: {visibility: public}\n"
    )
    ops = [
        ["dim", OVERLAP, "--what", "pfl", "--depth", "3"],
        ["dim", OVERLAP, "--what", "pfl", "--depth", "3", "--witness"],
        ["rand", OVERLAP, "--what", "regret", "--depth", "2", "--grid", "4"],
        ["play", OVERLAP, "--learner", "dpfla", "--adversary", "optimal"],
        ["play", str(cube), "--learner", "uniform_cube", "--adversary", "public_cube"],
    ]
    pflab.cli._build_parser()  # built once per process; argparse's formatters hold cycles
    for argv in ops:
        gc.collect()
        gc.disable()
        try:
            code, _, err = run(capsys, argv)
            found = gc.collect()
        finally:
            gc.enable()
        assert (code, err, found) == (0, "", 0), argv


def test_rand_csv(capsys):
    code, out, _ = run(capsys, ["rand", OVERLAP, "--what", "regret", "--depth", "2",
                                "--grid", "6", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert (fields[5], fields[6]) == ("1", "3")
    assert fields[8] == "1"


def test_sweep_worked_example(capsys):
    code, out, _ = run(capsys, ["sweep", OVERLAP, "--task", "rand", "--what", "regret",
                                "--horizon", "1..4", "--grid", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    for T, row in zip((1, 2, 3, 4), lines[1:]):
        fields = row.split(",")
        assert fields[1] == "rand/regret"
        assert fields[2] == str(T)
        assert fields[4] == "6"
        assert (fields[5], fields[6]) == ("1", "3")
        assert fields[8] == "1"


def test_play_text_and_csv(capsys):
    code, out, _ = run(capsys, ["play", TWO_CONSTANT])
    assert code == 0
    assert "learner: cvsp" in out
    assert "loss: 1" in out
    assert "round 0: instance 0 predict 0 reveal 1 set {1}" in out

    code, out, _ = run(capsys, ["play", TWO_CONSTANT, "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].split(",")[1] == "play"


def test_play_strategy_override(capsys):
    code, out, _ = run(capsys, ["play", TWO_CONSTANT, "--adversary", "echo"])
    assert code == 0
    assert "adversary: echo" in out
    assert "loss: 0" in out


def test_play_requires_a_learner_somewhere(capsys):
    code, _, err = run(capsys, ["play", AGNOSTIC, "--learner", "cvsp", "--adversary",
                                "agnostic_two_constant"])
    assert code == 0
    # the agnostic sample names both strategies, so bare play also works
    code, _, _ = run(capsys, ["play", AGNOSTIC])
    assert code == 0


def test_setsys_report(capsys):
    code, out, _ = run(capsys, ["setsys", OVERLAP])
    assert code == 0
    assert "helly: 3" in out
    assert "condition1_holds: False" in out
    assert "condition2_holds: True (witness p = 3)" in out
    code, out, _ = run(capsys, ["setsys", OVERLAP, "--p", "2"])
    assert code == 0
    assert "condition2_holds: False" in out


@pytest.mark.parametrize("extra", [[], ["--p", "2"]], ids=["default-p", "given-p"])
def test_setsys_runs_one_helly_search(capsys, monkeypatch, extra):
    # The report's search is the only one, with or without --p. Calls are
    # counted through both bindings, so a search in the command shows too.
    calls = 0
    search = pflab.setsystems.helly_number

    def counted(system):
        nonlocal calls
        calls += 1
        return search(system)

    monkeypatch.setattr(pflab.cli, "helly_number", counted, raising=False)
    monkeypatch.setattr(pflab.setsystems, "helly_number", counted)
    code, _, _ = run(capsys, ["setsys", OVERLAP, *extra])
    assert code == 0
    assert calls == 1


@pytest.mark.parametrize(
    "labels, set_system, sets, helly, union_closed",
    [
        (5, "{full_power_set: true}", 31, 5, True),
        (6, "{all_nonempty_up_to: 2}", 21, 3, False),
        (30, "{full_power_set: true}", 2**30 - 1, 30, True),
    ],
)
def test_setsys_past_twenty_member_sets(capsys, tmp_path, labels, set_system, sets, helly,
                                        union_closed):
    # The 30-label power set has over a billion members: the report is read
    # off the bounded kind's closed forms, not an enumeration.
    spec = tmp_path / "system.yaml"
    spec.write_text(
        f"labels: {labels}\ninstances: 1\nset_system: {set_system}\n"
        "hypotheses: [[0], [1]]\nhorizon: 1\n"
    )
    code, out, _ = run(capsys, ["setsys", str(spec)])
    assert code == 0
    assert f"\nsets: {sets}\nhelly: {helly}\n" in out
    assert f"\nunion_closed: {union_closed}\n" in out


def test_replicate_single_check(capsys):
    code, out, err = run(capsys, ["replicate", "--only", "det-minimax-equals-dimension"])
    assert (code, err) == (0, "")
    # Every spec is certified on both sides: no spec is skipped for its size.
    assert out.splitlines()[1].split(None, 2) == [
        "det-minimax-equals-dimension",
        "pass",
        "411 specs equal; each certified by a verified tree and the learner's worst case",
    ]


def _tampered(spec, d, budget=None):
    """The engine's tree with the all-zero path's witness replaced by hypothesis 0 alone."""
    tree = shattering_tree(spec, d, budget=budget)
    return dataclasses.replace(tree, witnesses={**tree.witnesses, (0,) * d: (0,)})


def test_a_tree_that_fails_verification_is_never_printed(capsys, monkeypatch):
    monkeypatch.setattr(pflab.cli, "shattering_tree", _tampered)
    code, out, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "2", "--witness"])
    assert (code, out) == (1, "")
    assert err.startswith("error: annotation at step 1 of path (0, 0) is outside the witness image")


def test_a_tree_that_fails_verification_fails_the_check_row(monkeypatch):
    monkeypatch.setattr(pflab.replicate, "shattering_tree", _tampered)
    result = pflab.replicate.check_det_minimax_equals_dimension()
    assert not result.passed
    assert "fails verification" in result.detail and "(+" in result.detail


PAPER_CHECKS = [
    "det-minimax-equals-dimension",
    "version-space-mistake-bound",
    "full-system-linear-regret",
    "multiclass-dim-below-pfl",
    "pfl-union-closed-bound",
    "helly-randomized-tightness",
    "binary-singleton-half-dimension",
    "small-helly-measure-equals-label",
    "fixed-scale-event-bound",
    "visibility-separation-cube",
    "two-constant-agnostic-floor",
    "label-vs-set-feedback-gap",
]


def test_replicate_lists_the_paper_checks_in_order(capsys):
    assert [slug for slug, _ in CHECKS] == PAPER_CHECKS
    code, out, err = run(capsys, ["replicate"])
    assert code == 0 and err == ""
    header, *rows = out.splitlines()
    assert header.split() == ["check", "result", "detail"]
    assert [row.split()[:2] for row in rows] == [[slug, "pass"] for slug in PAPER_CHECKS]


def test_replicate_unknown_check(capsys):
    code, _, err = run(capsys, ["replicate", "--only", "no-such-check"])
    assert code == 2
    assert "no-such-check" in err


def test_exit_code_spec_errors(capsys):
    code, _, err = run(capsys, ["dim", str(SPEC_DIR / "missing.yaml"), "--what", "pfl",
                                "--depth", "1"])
    assert code == 2
    assert "spec error" in err


def test_exit_code_budget(capsys):
    code, _, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "20",
                                "--witness"])
    assert code == 3
    assert "budget rejected" in err


def test_unknown_key_is_a_spec_error(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(
        "labels: 2\ninstances: 1\nset_system: [[0], [1]]\n"
        "hypotheses: [[0], [1]]\nhorizon: 1\nmystery: 1\n"
    )
    code, _, err = run(capsys, ["dim", str(bad), "--what", "pfl", "--depth", "1"])
    assert code == 2
    assert "mystery" in err


def test_invalid_yaml_is_a_one_line_spec_error(capsys, tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("labels: [1, 2\nfoo: :\n")
    code, out, err = run(capsys, ["dim", str(bad), "--what", "pfl", "--depth", "1"])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1
    assert "invalid YAML" in err


def test_output_file(capsys, tmp_path):
    target = tmp_path / "rows.csv"
    code, out, _ = run(capsys, ["sweep", OVERLAP, "--task", "rand", "--what", "regret",
                                "--horizon", "1..2", "--grid", "6", "-o", str(target)])
    assert code == 0
    text = target.read_text()
    assert text.startswith(CSV_HEADER)
    assert len(text.strip().splitlines()) == 3


def test_determinism_up_to_runtime(capsys):
    argv = ["rand", OVERLAP, "--what", "regret", "--depth", "2", "--grid", "6",
            "--format", "csv"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert strip_runtime(first) == strip_runtime(second)


def test_prefix_dim(capsys):
    code, out, _ = run(capsys, ["dim", TWO_CONSTANT, "--what", "ppfl", "--depth", "2",
                                "--prefix-x", "0", "--prefix-y", "1", "--prefix-reveal", "1"])
    assert code == 0
    assert "value: 0" in out


@pytest.mark.parametrize(
    "prefix_x, prefix_reveal",
    [("5", "0"), ("-1", "0"), ("0", "-1"), ("0", "9")],
)
def test_prefix_rand_out_of_range(capsys, prefix_x, prefix_reveal):
    code, out, err = run(capsys, ["rand", TWO_CONSTANT, "--what", "ppms", "--gamma", "1/2",
                                  "--prefix-x", prefix_x, "--prefix-measure", "1/2,1/2",
                                  "--prefix-reveal", prefix_reveal])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1


# 5,000 digits is past int()'s conversion limit, which raised a bare ValueError (exit 1).
@pytest.mark.parametrize("value", ["abc", "-1", pytest.param("9" * 5000, id="5000-digits")])
def test_budget_variable_must_be_a_nonnegative_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("PFLAB_BUDGET_STATES", value)
    code, _, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "1"])
    assert code == 2
    assert err.startswith("spec error:") and "PFLAB_BUDGET_STATES" in err
    assert err.count("\n") == 1


def test_negative_version_space_cap(capsys):
    code, _, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "ml", "--depth", "-3"])
    assert code == 2
    assert "spec error" in err


def _spec_with(tmp_path, extra):
    path = tmp_path / "game.yaml"
    path.write_text(Path(TWO_CONSTANT).read_text().split("learner:")[0] + extra)
    return str(path)


@pytest.mark.parametrize("feedback", ["set_valued", "bandit"])
@pytest.mark.parametrize(
    "adversary, cls",
    [("optimal", "OptimalAdversary"), ("echo", "EchoAdversary"), ("random", "SeededRandomAdversary")],
)
def test_unsupported_feedback_mode_is_a_spec_error(capsys, tmp_path, feedback, adversary, cls):
    spec = _spec_with(tmp_path, f"protocol:\n  feedback: {feedback}\n")
    code, out, err = run(capsys, ["play", spec, "--learner", "cvsp", "--adversary", adversary])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1
    assert cls in err and feedback in err


@pytest.mark.parametrize(
    "block",
    [
        "learner: {name: dpfla, params: {budget: abc}}",
        "learner: {name: mrpfl, params: {N: abc}}",
        "learner: {name: mrpfl, params: {g: abc}}",
        "learner: {name: frpfl, params: {gamma: abc}}",
        "learner: {name: uniform_cube, params: {T: abc}}",
        "learner: {name: constant, params: {label: abc}}",
        "learner: {name: scripted, params: {labels: [0]}}",
        "learner: {name: cvsp}\nadversary: {name: random, params: {seed: abc}}",
    ],
)
def test_malformed_strategy_parameters(capsys, tmp_path, block):
    if "adversary" not in block:
        block += "\nadversary: {name: optimal}"
    code, out, err = run(capsys, ["play", _spec_with(tmp_path, block + "\n")])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "1"],
        ["dim", TWO_CONSTANT, "--what", "ml", "--depth", "1"],
        ["rand", TWO_CONSTANT, "--what", "regret", "--depth", "1", "--grid", "2"],
        ["sweep", TWO_CONSTANT, "--task", "dim", "--what", "pfl", "--horizon", "1..2"],
    ],
)
def test_negative_budget_is_a_spec_error(capsys, argv):
    code, out, err = run(capsys, argv + ["--budget", "-1"])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1


ROOT = SPEC_DIR.parent
PINS = json.loads((Path(__file__).resolve().parent / "cli_pins.json").read_text())


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
def test_value_commands_pinned(capsys, monkeypatch, pin):
    """Exit code, stdout and stderr of dim, rand, sweep and play, runtime masked.

    Each entry of ``cli_pins.json`` holds one command, run from the repository
    root on ``specs/*.yaml`` or ``tests/specs/*.yaml``, with the output it
    must give. The specs under ``tests/`` are the ones the sample-spec loop
    in CI does not run: most are rejected (exit 2 or 3), the two
    ``witness_*`` specs drive play through the realizability witness search
    to a pass (exit 0) and a verification failure (exit 1),
    ``collision_mod7`` and ``prefix_parity_t2`` pin whole games against the
    collision and prefix-parity adversaries, ``prefix_parity_t4`` pins the
    18-label game's value and its play against the prefix-parity and the
    optimal adversary, and ``zero_value`` pins a witness tree at value 0.
    """
    monkeypatch.chdir(ROOT)
    code, out, err = run(capsys, pin["argv"])
    assert (code, strip_runtime(out), err) == (pin["code"], pin["out"], pin["err"])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "1", "--prefix-x", "0"], "--prefix-x"),
        (["dim", TWO_CONSTANT, "--what", "ml", "--prefix-y", "1"], "--prefix-y"),
        (["dim", TWO_CONSTANT, "--what", "ppfl", "--depth", "1", "--witness"], "--witness"),
        (["rand", TWO_CONSTANT, "--what", "regret", "--gamma", "1/3"], "--gamma"),
        (["rand", TWO_CONSTANT, "--what", "pms", "--gamma", "1/2", "--prefix-reveal", "0"],
         "--prefix-reveal"),
        (["sweep", TWO_CONSTANT, "--task", "rand", "--what", "regret", "--horizon", "1..2",
          "--gamma", "1/2"], "--gamma"),
        (["sweep", TWO_CONSTANT, "--task", "dim", "--what", "pfl", "--horizon", "1", "--grid", "3"],
         "--grid"),
        (["sweep", TWO_CONSTANT, "--task", "dim", "--what", "regret", "--horizon", "1",
          "--gamma", "1/2"], "--gamma"),
    ],
    ids=["dim-pfl", "dim-ml", "dim-ppfl", "rand-regret", "rand-pms", "sweep-rand-regret",
         "sweep-dim-pfl", "sweep-dim-regret"],
)
def test_ignored_flag_is_a_spec_error(capsys, argv, flag):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1
    assert flag in err


PF_SHAPE = ("labels: 4\ninstances: 1\nset_system: {all_nonempty_up_to: 2}\n"
            "hypotheses: [[0], [1], [2], [3]]\nhorizon: 1\n")

# Adversary parameters that the spec determines, each reported as unused.
REMOVED = {
    "adversary: {name: optimal, params: {T: 3}}": "T",
    "adversary: {name: agnostic_two_constant, params: {T: 3}}": "T",
    "adversary: {name: public_cube, params: {T: 3}}": "T",
    "adversary: {name: public_cube, params: {M: 8}}": "M",
    "adversary: {name: pf_not_sv, params: {T: 1}}": "T",
    "adversary: {name: pf_not_sv, params: {set_valued: \"no\"}}": "set_valued",
}


@pytest.mark.parametrize(
    "block",
    [
        "learner: {name: helly_intersection, params: {transversal: [a]}}",
        "learner: {name: helly_intersection, params: {transversal: 5}}",
        "learner: {name: scripted, params: {labels: [a, 0, 0]}}",
        "learner: {name: scripted, params: {labels: 3}}",
        "adversary: {name: collision, params: {modulus: 2, pool: [0], slopes: 3}}",
        "adversary: {name: collision, params: {modulus: 2, pool: [0], slopes: [a]}}",
        "adversary: {name: collision, params: {modulus: 2, pool: [0.5]}}",
        *REMOVED,
    ],
)
def test_malformed_list_and_flag_parameters(capsys, tmp_path, block):
    """List strategy parameters are checked like the others.

    The collision and pf_not_sv blocks run on games of their own shape, so
    that only the malformed parameter can stop them. A parameter the spec
    determines (``REMOVED``) is reported as unused.
    """
    removed = REMOVED.get(block)
    if "adversary" in block:
        block = "learner: {name: cvsp}\n" + block
    else:
        block += "\nadversary: {name: optimal}"
    path = tmp_path / "game.yaml"
    if "pf_not_sv" in block:
        path.write_text(PF_SHAPE + block + "\n")
    else:
        path.write_text(Path(TWO_CONSTANT).read_text().split("learner:")[0] + block + "\n")
    code, out, err = run(capsys, ["play", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1
    if removed:
        assert f"unused adversary parameters ['{removed}']" in err


def test_version_space_dimension_of_all_functions_is_a_spec_error(capsys, tmp_path):
    path = tmp_path / "all.yaml"
    path.write_text("labels: 2\ninstances: 1\nset_system:\n  - [0]\n  - [1]\n"
                    "hypotheses: {all_functions: true}\nhorizon: 1\n")
    code, out, err = run(capsys, ["dim", str(path), "--what", "ml"])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1
    assert "explicit hypothesis class" in err


@pytest.mark.parametrize(
    "block",
    [
        "learner: {name: constant, params: {label: 0.5}}",
        "learner: {name: cvsp}\nadversary: {name: random, params: {seed: true}}",
        "learner: {name: dpfla, params: {budget: 1.5}}",
    ],
)
def test_integer_parameters_reject_floats_and_bools(capsys, tmp_path, block):
    if "adversary" not in block:
        block += "\nadversary: {name: optimal}"
    code, out, err = run(capsys, ["play", _spec_with(tmp_path, block + "\n")])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1
    assert "not a valid integer" in err


# The tables of the collision family with modulus 7, slopes (0, 1) and pool
# 0..3, in family order and listed last to first.
COLLISION_ROWS = [[(s * x + b) % 7 for x in range(4)] for s in (0, 1) for b in range(7)]
REVERSED_COLLISION_ROWS = COLLISION_ROWS[::-1]

SHAPE_MISMATCHES = {
    "collision-no-slopes": (
        "labels: 3\ninstances: 2\nset_system: {all_nonempty_up_to: 2}\n"
        "hypotheses: [[0, 1], [1, 2]]\nhorizon: 2\nlearner: {name: constant}\n"
        "adversary: {name: collision, params: {modulus: 3, slopes: [], pool: [0, 1]}}\n"
    ),
    "collision-reversed-rows": (
        "labels: 7\ninstances: 4\nset_system: {all_nonempty_up_to: 2}\n"
        f"hypotheses: {REVERSED_COLLISION_ROWS}\nhorizon: 2\nlearner: {{name: constant}}\n"
        "adversary: {name: collision, params: {modulus: 7, slopes: [0, 1], pool: [0, 1, 2, 3]}}\n"
    ),
    "collision-horizon-above-max-size": (
        "labels: 7\ninstances: 4\nset_system: {all_nonempty_up_to: 2}\n"
        f"hypotheses: {COLLISION_ROWS}\nhorizon: 3\nlearner: {{name: constant}}\n"
        "adversary: {name: collision, params: {modulus: 7, slopes: [0, 1], pool: [0, 1, 2, 3]}}\n"
    ),
    "collision-singleton-sets": (
        "labels: 7\ninstances: 4\n"
        f"set_system: {[[y] for y in range(7)]}\n"
        f"hypotheses: {COLLISION_ROWS}\nhorizon: 2\nlearner: {{name: constant}}\n"
        "adversary: {name: collision, params: {modulus: 7, slopes: [0, 1], pool: [0, 1, 2, 3]}}\n"
    ),
    "agnostic_two_constant": (
        "labels: 2\ninstances: 3\nset_system: [[0], [1]]\n"
        "hypotheses: [[0, 0, 0], [1, 1, 1]]\nhorizon: 3\n"
        "protocol: {realizability: existence_realizable}\n"
        "learner: {name: scripted, params: {labels: [0, 1, 0]}}\n"
        "adversary: {name: agnostic_two_constant}\n"
    ),
    "pf_not_sv": (
        "labels: 6\ninstances: 2\nset_system: {all_nonempty_up_to: 2}\n"
        "hypotheses: {all_functions: true}\nhorizon: 2\n"
        "learner: {name: cvsp}\nadversary: {name: pf_not_sv}\n"
    ),
    "public_cube": (
        "labels: 3\ninstances: 2\nset_system: [[0], [1], [2]]\n"
        "hypotheses: {all_functions: true}\nhorizon: 2\nprotocol: {visibility: public}\n"
        "learner: {name: uniform_cube, params: {T: 3}}\nadversary: {name: public_cube}\n"
    ),
}


@pytest.mark.parametrize("name", sorted(SHAPE_MISMATCHES))
def test_shape_bound_adversary_on_another_game_is_a_spec_error(capsys, tmp_path, name):
    """A game of the right sizes but another class or system stops in ``begin``."""
    path = tmp_path / "game.yaml"
    path.write_text(SHAPE_MISMATCHES[name])
    code, out, err = run(capsys, ["play", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("spec error:") and err.count("\n") == 1


def test_cube_label_pool_exhausted_names_the_alphabet(capsys, tmp_path):
    path = tmp_path / "game.yaml"
    text = SHAPE_MISMATCHES["public_cube"].replace("[[0], [1], [2]]", "[[1, 2], [0, 2], [0, 1]]")
    path.write_text(text.replace("{name: public_cube}", "{name: public_cube, params: {k: 1}}"))
    code, out, err = run(capsys, ["play", str(path)])
    assert (code, out) == (1, "")
    assert err == "error: every one of the spec's 3 labels carries mass above 0\n"


@pytest.mark.parametrize("what", [["regret"], ["pms", "--gamma", "1/2"]])
def test_rand_grid_over_the_budget_is_rejected(capsys, monkeypatch, what):
    monkeypatch.setenv("PFLAB_BUDGET_GRID", "5")
    code, out, err = run(capsys, ["rand", TWO_CONSTANT, "--what", *what, "--depth", "1",
                                  "--grid", "5"])
    assert (code, out) == (3, "")
    assert err == "budget rejected: grid(2, 5) has 6 measures, budget 5\n"


def test_the_grid_budget_never_applies_to_label_engines(capsys, monkeypatch):
    """The label kind runs on the point-mass grid (g = 1) with no grid budget and no ``Measure``s.

    A measure engine on the same spec is still rejected by the budget.
    """
    monkeypatch.setenv("PFLAB_BUDGET_GRID", "1")
    spec = load_spec_file(TWO_CONSTANT).spec
    assert pfl_dim(spec, 2) == 1
    assert CollectionEngine(spec, build_admissible_collections(spec)).edges == [0, 1]
    code, out, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "2"])
    assert (code, err) == (0, "") and "value: 1" in out
    with pytest.raises(GridTooLarge):
        pms_dim(spec, 2, Fraction(1, 2))
    code, out, err = run(capsys, ["rand", TWO_CONSTANT, "--what", "pms", "--gamma", "1/2",
                                  "--depth", "2"])
    assert (code, out) == (3, "")
    assert err.startswith("budget rejected: grid(2, ")


# The det-solve class b5x3-0: three binary instances, five hypotheses.
B5X3 = (
    "labels: 2\ninstances: 3\nset_system: {full_power_set: true}\n"
    "hypotheses: [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]]\nhorizon: 3\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--what", "pfl", "--depth", "5000"],
        ["rand", "--what", "regret", "--depth", "5000"],
        ["rand", "--what", "pms", "--gamma", "1/2", "--depth", "5000"],
    ],
    ids=["pfl", "regret", "pms"],
)
def test_horizon_beyond_the_recursion_limit_is_a_budget_rejection(capsys, tmp_path, argv):
    path = tmp_path / "b5x3.yaml"
    path.write_text(B5X3)
    code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert (code, out) == (3, "")
    assert err == (
        f"budget rejected: minimax recursion over {argv[-1]} rounds "
        "exceeds Python's recursion limit\n"
    )


def test_a_collection_walk_beyond_the_recursion_limit_is_a_budget_rejection(capsys, tmp_path):
    # All 1,024 binary rows over 10 instances: the walk's first path is
    # 1,024 members deep, which was a bare RecursionError (exit 1).
    path = tmp_path / "rows1024.json"
    rows = [list(r) for r in itertools.product((0, 1), repeat=10)]
    path.write_text(json.dumps({
        "labels": 2, "instances": 10, "set_system": {"full_power_set": True},
        "hypotheses": rows, "horizon": 1,
    }))
    code, out, err = run(capsys, ["dim", str(path), "--what", "pfl", "--depth", "1"])
    assert (code, out) == (3, "")
    assert err == "budget rejected: admissible-collection search exceeds Python's recursion limit\n"

"""Command-line interface: output contracts, exit codes, and determinism."""

import json
import re
from pathlib import Path

import pytest

from pflab.cli import CSV_HEADER, main

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


def test_csv_witness_does_not_run_the_tree_oracle(capsys):
    # CSV has no place for a tree, so the oracle's size guard must not reject
    # the row: at depth 20 it would exit 3 with "naive oracle guard".
    code, out, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "20",
                                  "--witness", "--format", "csv"])
    assert (code, err) == (0, "")
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[1:7] == ["dim/pfl", "20", "", "", "1", "1"]


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
    assert "nested_empty_chain: none" in out
    code, out, _ = run(capsys, ["setsys", OVERLAP, "--p", "2"])
    assert code == 0
    assert "condition2_holds: False" in out


def test_replicate_single_check(capsys):
    code, out, _ = run(capsys, ["replicate", "--only", "det-minimax-equals-dimension"])
    assert code == 0
    assert "det-minimax-equals-dimension" in out
    assert "pass" in out.lower()


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


@pytest.mark.parametrize("value", ["abc", "-1"])
def test_budget_variable_must_be_a_nonnegative_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("PFLAB_BUDGET_STATES", value)
    code, _, err = run(capsys, ["dim", TWO_CONSTANT, "--what", "pfl", "--depth", "1"])
    assert code == 2
    assert err.startswith("spec error:") and "PFLAB_BUDGET_STATES" in err


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
    """Exit code, stdout and stderr of dim, rand and sweep, runtime masked.

    Each entry of ``cli_pins.json`` holds one command, run from the repository
    root on ``specs/*.yaml``, with the output it must give.
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
# 0..3, listed last to first.
REVERSED_COLLISION_ROWS = [
    [(s * x + b) % 7 for x in range(4)] for s in (1, 0) for b in range(6, -1, -1)
]

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


# The det-solve class b5x3-0: three binary instances, five hypotheses.
B5X3 = (
    "labels: 2\ninstances: 3\nset_system: {full_power_set: true}\n"
    "hypotheses: [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]]\nhorizon: 3\n"
)


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--what", "pfl", "--depth", "400"],
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

"""YAML game files: parsing, defaults, shorthands, and rejection paths."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from pflab import (
    Feedback,
    Realizability,
    SetSystem,
    SpecDocument,
    SpecFileError,
    Visibility,
    load_spec_file,
    parse_spec_data,
)
from pflab import specfile
from pflab.cli import main

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"

BASE = {
    "labels": 2,
    "instances": 1,
    "set_system": [[0], [1]],
    "hypotheses": [[0], [1]],
    "horizon": 3,
}


def with_updates(**kw):
    data = {k: (dict(v) if isinstance(v, dict) else v) for k, v in BASE.items()}
    data.update(kw)
    return data


def test_sample_specs_load():
    for name in ("two_constant.yaml", "overlap_triple.yaml", "agnostic_coin.yaml"):
        doc = load_spec_file(SPEC_DIR / name)
        assert doc.spec.horizon >= 1
        assert doc.source.endswith(name)
    doc = load_spec_file(SPEC_DIR / "two_constant.yaml")
    assert doc.spec.n_labels == 2
    assert doc.learner == {"name": "cvsp", "params": {}}
    assert doc.adversary == {"name": "optimal", "params": {}}


def test_defaults():
    doc = parse_spec_data(BASE)
    spec = doc.spec
    assert spec.measure_grid == 12
    assert spec.feedback is Feedback.PARTIAL
    assert spec.visibility is Visibility.OBLIVIOUS
    assert spec.realizability is Realizability.SET_REALIZABLE
    assert doc.learner is None
    assert doc.adversary is None


def test_set_system_shorthands():
    bounded = parse_spec_data(with_updates(labels=4, set_system={"all_nonempty_up_to": 2},
                                           hypotheses=[[0]]))
    assert bounded.spec.set_system.kind == "bounded"
    assert len(bounded.spec.set_system.members()) == 10
    full = parse_spec_data(with_updates(labels=3, set_system={"full_power_set": True},
                                        hypotheses=[[0]]))
    assert full.spec.set_system.members() == SetSystem.full_power_set(3).members()


def test_all_functions_shorthand():
    doc = parse_spec_data(with_updates(instances=2, hypotheses={"all_functions": True},
                                       set_system=[[0], [1], [0, 1]]))
    assert doc.spec.hypotheses.size == 4


def test_unknown_keys_rejected():
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(extra=1))
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(protocol={"feedback": "partial", "mystery": 1}))
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(learner={"name": "cvsp", "mystery": 1}))


def test_bad_enums_rejected():
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(protocol={"feedback": "telepathic"}))
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(protocol={"visibility": "invisible"}))
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(protocol={"realizability": "wishful"}))


def test_structural_validation():
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(labels="two"))
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(horizon=0))
    with pytest.raises(SpecFileError):
        parse_spec_data({k: v for k, v in BASE.items() if k != "labels"})
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(set_system=[[0], [7]]))
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(hypotheses=[[0], [0]]))  # duplicate rows


def test_strategy_block_shapes():
    doc = parse_spec_data(with_updates(learner={"name": "constant", "params": {"label": 1}}))
    assert doc.learner == {"name": "constant", "params": {"label": 1}}
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(learner={"params": {}}))
    with pytest.raises(SpecFileError):
        parse_spec_data(with_updates(adversary="optimal"))


def test_missing_file():
    with pytest.raises(SpecFileError):
        load_spec_file(SPEC_DIR / "no_such_game.yaml")


def test_non_mapping_document(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(SpecFileError):
        load_spec_file(p)
    q = tmp_path / "scalar.yaml"
    q.write_text("42\n")
    with pytest.raises(SpecFileError):
        load_spec_file(q)


# YAML texts the test suite writes as game files, plus syntax the sample
# specs do not use: anchors, nulls, quoted fractions, floats, YAML 1.1
# booleans and JSON flow syntax.
YAML_FIXTURES = [
    "labels: 2\ninstances: 1\nset_system: [[0], [1]]\n"
    "hypotheses: [[0], [1]]\nhorizon: 1\nmystery: 1\n",
    "labels: 4\ninstances: 1\nset_system: {all_nonempty_up_to: 2}\n"
    "hypotheses: [[0], [1], [2], [3]]\nhorizon: 1\n"
    "learner: {name: helly_intersection, params: {transversal: [a]}}\n",
    "labels: 2\ninstances: 1\nset_system:\n  - [0]\n  - [1]\n"
    "hypotheses: {all_functions: true}\nhorizon: 1\n",
    "labels: 3\ninstances: 2\nset_system:\n  - &pair [0, 1]\n  - [2]\n"
    "hypotheses: [*pair, [1, 2]]\nhorizon: 2\ngrid: 6\n"
    "protocol: {feedback: partial, visibility: ~}\n"
    "learner: {name: uniform_cube, params: {gamma: '1/2', weight: 0.5, flag: yes}}\n"
    "adversary: {name: optimal, params: null}\n",
    '{"labels": 3, "instances": 1, "set_system": [[0, 2], [1, 2]], '
    '"hypotheses": [[0], [1]], "horizon": 2, "learner": {"name": "cvsp"}}\n',
]


def _without_libyaml(monkeypatch):
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)


def test_loaders_parse_equal_data():
    if not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    texts = [p.read_text(encoding="utf-8") for p in sorted(SPEC_DIR.glob("*.yaml"))]
    assert len(texts) >= 3
    for text in texts + YAML_FIXTURES:
        assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("libyaml", [True, False])
def test_sample_specs_load_alike_with_either_loader(monkeypatch, libyaml):
    want = {p.name: load_spec_file(p) for p in SPEC_DIR.glob("*.yaml")}
    if not libyaml:
        _without_libyaml(monkeypatch)
    assert {p.name: load_spec_file(p) for p in SPEC_DIR.glob("*.yaml")} == want


@pytest.mark.parametrize("libyaml", [True, False])
def test_invalid_yaml_is_one_line(tmp_path, monkeypatch, libyaml):
    p = tmp_path / "broken.yaml"
    p.write_text("labels: [1, 2\nfoo: :\n")
    if not libyaml:
        _without_libyaml(monkeypatch)
    with pytest.raises(SpecFileError) as err:
        load_spec_file(p)
    message = str(err.value)
    assert "\n" not in message
    assert message == (
        f"{p}: invalid YAML (while parsing a flow sequence in \"{p}\", line 1, column 9 "
        f"expected ',' or ']', but got ':' in \"{p}\", line 2, column 4)"
    )


HEAD = "labels: 2\ninstances: 1\nset_system: [[0], [1]]\nhypotheses: [[0], [1]]\nhorizon: 1\n"
DUPLICATES = [
    (HEAD + "labels: 3\n", "'labels'", 6),
    (HEAD + "protocol:\n  feedback: partial\n  feedback: multiclass\n", "'feedback'", 8),
]


@pytest.mark.parametrize("libyaml", [True, False])
def test_repeated_key_is_a_spec_error(tmp_path, monkeypatch, capsys, libyaml):
    if not libyaml:
        _without_libyaml(monkeypatch)
    p = tmp_path / "game.yaml"
    for text, key, line in DUPLICATES:
        p.write_text(text)
        with pytest.raises(SpecFileError) as err:
            load_spec_file(p)
        message = str(err.value)
        assert "\n" not in message
        assert f"found duplicate key {key} in \"{p}\", line {line}" in message
        assert main(["setsys", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spec error:") and captured.err.count("\n") == 1
    # A key that overrides a merged one is not a repeat.
    p.write_text(HEAD + "learner: &b {name: cvsp}\nadversary:\n  <<: *b\n  name: optimal\n")
    assert load_spec_file(p).adversary == {"name": "optimal", "params": {}}
    p.write_text(HEAD + "? [1, 2]\n: 3\n")
    with pytest.raises(SpecFileError, match="found unhashable key"):
        load_spec_file(p)


def test_non_utf8_file_is_a_spec_error(tmp_path):
    p = tmp_path / "binary.yaml"
    p.write_bytes(b"\xff\xfe\x00labels: 2\n")
    with pytest.raises(SpecFileError, match="not UTF-8 text"):
        load_spec_file(p)


HUGE = "9" * 5000  # past Python's default int conversion limit of 4300 digits


@pytest.mark.parametrize("libyaml", [True, False])
def test_huge_integer_is_a_spec_error(tmp_path, monkeypatch, capsys, libyaml):
    if not libyaml:
        _without_libyaml(monkeypatch)
    p = tmp_path / "big.yaml"
    for text in (HEAD.replace("horizon: 1", f"horizon: {HUGE}"),
                 HEAD.replace("[[0], [1]]\nhyp", f"[[0], [{HUGE}]]\nhyp")):
        p.write_text(text)
        with pytest.raises(SpecFileError) as err:
            load_spec_file(p)
        message = str(err.value)
        assert "\n" not in message
        assert message.startswith(f"{p}: invalid YAML value (") and "5000 digits" in message
        assert main(["dim", str(p), "--what", "pfl", "--depth", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("spec error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("libyaml", [True, False])
def test_deeply_nested_lists_are_a_spec_error(tmp_path, monkeypatch, libyaml):
    if not libyaml:
        _without_libyaml(monkeypatch)
    p = tmp_path / "deep.yaml"
    p.write_text("labels: " + "[" * 3000 + "]" * 3000 + "\n")
    with pytest.raises(SpecFileError, match="nested too deeply"):
        load_spec_file(p)


def _deep_params(depth):
    """A valid spec whose learner params hold a list nested ``depth`` deep."""
    return HEAD + f"learner: {{name: cvsp, params: {{a: {'[' * depth}{']' * depth}}}}}\n"


@pytest.mark.parametrize("libyaml", [True, False])
def test_loaders_part_on_deep_data_below_the_libyaml_bound(tmp_path, monkeypatch, libyaml):
    """Below the 10,000-character bound the two loaders can build different results.

    A list nested 3,000 deep, with far fewer than 10,000 brackets, loads
    under libyaml, whose composer recurses in C; the pure loader's composer
    stops at Python's recursion limit, a spec error. At 300 levels both
    load it.
    """
    if libyaml and not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    if not libyaml:
        _without_libyaml(monkeypatch)
    p = tmp_path / "deep.yaml"
    for depth in (300, 3000):
        p.write_text(_deep_params(depth))
        if depth == 3000 and not libyaml:
            with pytest.raises(SpecFileError, match="data nested too deeply"):
                load_spec_file(p)
            continue
        data = load_spec_file(p).learner["params"]["a"]
        for _ in range(depth - 1):
            [data] = data
        assert data == []


DEEP = 40_000
DEEP_SHAPES = {
    "flow-sequence": "labels: " + "[" * DEEP + "]" * DEEP + "\n",
    "flow-mapping": "labels: " + "{b: " * DEEP + "1" + "}" * DEEP + "\n",
    "block-sequence": "labels:\n  " + "- " * DEEP + "1\n",
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_nesting_too_deep_for_libyaml_is_a_spec_error(tmp_path, shape):
    # libyaml's composer crashed the interpreter (SIGSEGV) on these, so the
    # command runs in a child process: a crash fails this test, not the session.
    p = tmp_path / "deep.yaml"
    p.write_text(DEEP_SHAPES[shape] + HEAD.split("\n", 1)[1])
    src = str(Path(specfile.__file__).resolve().parents[1])
    child = (
        f"import sys\nsys.path.insert(0, {src!r})\nfrom pflab.cli import main\n"
        f"sys.exit(main(['setsys', {str(p)!r}]))\n"
    )
    run = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"spec error: {p}: data nested too deeply\n"


def test_text_that_may_nest_deeply_keeps_the_path_in_error_marks(tmp_path):
    # 10,000 dashes in a comment send the file to the pure loader alone.
    p = tmp_path / "broken.yaml"
    p.write_text("labels: [1, 2\nfoo: :\n# " + "-" * 10_000 + "\n")
    with pytest.raises(SpecFileError) as err:
        load_spec_file(p)
    assert str(err.value) == (
        f"{p}: invalid YAML (while parsing a flow sequence in \"{p}\", line 1, column 9 "
        f"expected ',' or ']', but got ':' in \"{p}\", line 2, column 4)"
    )


# Stock PyYAML is the reference: the spec loader builds the data these build.
STOCK_LOADERS = [yaml.SafeLoader] + (
    [yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else []
)
EDGE_SCALARS = [
    "0", "007", "08", "1_000", "+3", "-0", "0x1F", "0o7", "1:30", "1e3",
    "true", "~", "'5'", "!!int '7'", "!!str 5", "٣", "12345678901234567890",
    "0x_", "0b_",
]
EDGE_DOCS = (
    [f"v: {s}\n" for s in EDGE_SCALARS]
    + [f"- {s}\n" for s in EDGE_SCALARS]
    + [f"[{', '.join(EDGE_SCALARS)}]\n", "[[0, 1], [2, 012]]\n", "[]\n", "v: [[], [7]]\n"]
)


def _typed(data):
    """``data`` with every value paired with its exact type, for comparison."""
    if isinstance(data, list):
        return (list, [_typed(v) for v in data])
    if isinstance(data, dict):
        return (dict, [(_typed(k), _typed(v)) for k, v in data.items()])
    return (type(data), data)


def _outcome(text, loader):
    # PyYAML's resolver reads ``0x_`` and ``0b_`` as ints, and its int
    # constructor then raises ValueError on them: an outcome to compare too.
    try:
        return _typed(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, ValueError) as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("stock", STOCK_LOADERS, ids=lambda L: L.__name__)
def test_spec_loader_matches_stock_pyyaml_on_edge_cases(stock):
    spec_loader = specfile._spec_loader(stock)
    for text in EDGE_DOCS:
        assert _outcome(text, spec_loader) == _outcome(text, stock), text


_SCALAR_TOKENS = st.one_of(
    st.integers(-(10**25), 10**25).map(str),
    st.from_regex(r"[-+]?[0-9][0-9_]{0,6}", fullmatch=True),
    st.sampled_from(EDGE_SCALARS),
    st.text(alphabet="0123456789abx_:+-.٣", min_size=1, max_size=6),
)
_FLOW_DOCS = st.recursive(
    _SCALAR_TOKENS,
    lambda inner: st.lists(inner, max_size=5).map(lambda xs: "[" + ", ".join(xs) + "]"),
    max_leaves=30,
)


@pytest.mark.parametrize("stock", STOCK_LOADERS, ids=lambda L: L.__name__)
@settings(max_examples=200, deadline=None)
@given(doc=_FLOW_DOCS)
def test_spec_loader_matches_stock_pyyaml_on_generated_flow_documents(stock, doc):
    spec_loader = specfile._spec_loader(stock)
    for text in (doc + "\n", f"v: {doc}\n"):
        assert _outcome(text, spec_loader) == _outcome(text, stock), text


@pytest.mark.parametrize("stock", STOCK_LOADERS, ids=lambda L: L.__name__)
def test_alias_of_an_int_list_is_one_list_object(stock):
    text = "a: &x [1, 2]\nb: *x\n"
    for loader in (stock, specfile._spec_loader(stock)):
        data = yaml.load(text, Loader=loader)
        assert data == {"a": [1, 2], "b": [1, 2]}
        assert data["a"] is data["b"]


def _yaml_text(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value if value.isidentifier() else json.dumps(value)
    if isinstance(value, list):
        return "[" + ", ".join(_yaml_text(v) for v in value) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_yaml_text(v)}" for k, v in value.items()) + "}"
    return str(value)


_LEAVES = st.one_of(
    st.integers(-2, 6),
    st.integers(0, 10**40),
    st.booleans(),
    st.sampled_from(["partial", "public", "cvsp", "yes", "null", "x", "1/2", ""]),
)
_VALUES = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=4), max_leaves=12)
# "7" and "true" load as an int and a bool key, beside the str keys.
_SPEC_KEYS = ["labels", "instances", "set_system", "hypotheses", "horizon",
              "protocol", "grid", "learner", "adversary", "mystery", "7", "true"]
_MAP_KEYS = st.sampled_from(
    ["name", "params", "feedback", "visibility", "all_functions", "all_nonempty_up_to",
     "full_power_set", "x", "3", "false"]
)


# A valid game as YAML text per key; the fuzz below rewrites or drops keys.
_BASE_TEXT = {"labels": "3", "instances": "2", "set_system": "[[0, 1], [1, 2]]",
              "hypotheses": "[[0, 1], [2, 2]]", "horizon": "2"}


@st.composite
def _spec_texts(draw):
    entries = dict(_BASE_TEXT)
    for key in draw(st.lists(st.sampled_from(_SPEC_KEYS), max_size=4, unique=True)):
        choice = draw(st.integers(0, 9))
        if choice == 0:
            entries.pop(key, None)
        elif choice == 1:
            entries[key] = "9" * draw(st.integers(4290, 4400))  # at or past the digit limit
        elif choice < 5:
            entries[key] = _yaml_text(draw(st.dictionaries(_MAP_KEYS, _VALUES, max_size=3)))
        else:
            entries[key] = _yaml_text(draw(_VALUES))
    return "".join(f"{key}: {value}\n" for key, value in entries.items())


@settings(max_examples=200, deadline=None)
@given(text=_spec_texts())
def test_load_spec_file_returns_a_document_or_raises_spec_file_error(tmp_path_factory, text):
    p = tmp_path_factory.mktemp("fuzz") / "game.yaml"
    p.write_text(text, encoding="utf-8")
    try:
        doc = load_spec_file(p)
    except SpecFileError as exc:
        assert "\n" not in str(exc)
    else:
        assert isinstance(doc, SpecDocument)

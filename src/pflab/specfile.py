"""Game description files.

A game lives in a YAML mapping with a fixed key set:

labels: 2                 # alphabet size
instances: 1              # instance count
set_system:               # list of label lists, or a bounded-family shorthand
  - [0]
  - [1]
hypotheses:               # list of rows (one label per instance), or shorthand
  - [0]
  - [1]
horizon: 3
protocol:                 # optional block, defaults shown
  feedback: partial
  visibility: oblivious
  realizability: set_realizable
grid: 12                  # optional measure denominator
learner:                  # optional strategy block for `play`
  name: cvsp
  params: {}
adversary:                # optional strategy block for `play`
  name: optimal
  params: {}

Shorthands: ``set_system: {all_nonempty_up_to: K}`` for the bounded family,
``set_system: {full_power_set: true}`` for all nonempty sets, and
``hypotheses: {all_functions: true}`` for the complete function class.
Unknown and repeated keys anywhere are rejected, never ignored.

A spec's rows and sets are tables of small ints, so the loader builds two
kinds of node itself: a plain scalar that is ``0`` or ASCII digits without
a leading zero becomes an ``int``, and a list of only such scalars becomes
a list of ints. YAML 1.1 reads exactly these scalars as decimal ints, so
the data is the same as PyYAML's safe loaders build. Every other node
(signs, ``_``, octal, hex, sexagesimal, explicit tags, other scalars)
goes through PyYAML's generic resolver and constructor, so its value and
any error it raises are PyYAML's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import yaml

from .errors import SpecError, SpecFileError, plain_int
from .game import GameSpec, HypothesisClass
from .setsystems import SetSystem

_TOP_KEYS = {
    "labels",
    "instances",
    "set_system",
    "hypotheses",
    "horizon",
    "protocol",
    "grid",
    "learner",
    "adversary",
}
_PROTOCOL_KEYS = {"feedback", "visibility", "realizability"}
_STRATEGY_KEYS = {"name", "params"}


@dataclass(frozen=True)
class SpecDocument:
    """A parsed game file: the game itself plus optional strategy blocks."""

    spec: GameSpec
    source: str = "<inline>"
    learner: Optional[dict] = None
    adversary: Optional[dict] = None


def _sorted_keys(keys) -> list:
    """Keys in order for a message; YAML keys of mixed types sort by text."""
    return sorted(keys, key=lambda k: (str(k), repr(k)))


def _required(data: dict, key: str):
    if key not in data:
        raise SpecError(f"missing required key {key!r}")
    return data[key]


def _size(data: dict, key: str, minimum: int) -> int:
    return plain_int(
        _required(data, key), minimum, None, SpecError,
        f"{key} must be at least {minimum}, got {{value}}",
        f"{key} must be an integer, got {{value!r}}",
    )


def _parse_set_system(raw, n_labels: int) -> SetSystem:
    if isinstance(raw, dict):
        extra = set(raw) - {"all_nonempty_up_to", "full_power_set"}
        if extra or len(raw) != 1:
            raise SpecError(f"unrecognized set_system shorthand {_sorted_keys(raw)}")
        if "all_nonempty_up_to" in raw:
            k = plain_int(
                raw["all_nonempty_up_to"], None, None, SpecError,
                "all_nonempty_up_to takes an integer",
            )
            return SetSystem.all_nonempty_up_to(n_labels, k)
        if raw["full_power_set"] is not True:
            raise SpecError("full_power_set only accepts true")
        return SetSystem.full_power_set(n_labels)
    if not isinstance(raw, list):
        raise SpecError("set_system must be a list of label lists or a shorthand map")
    for s in raw:
        if not isinstance(s, list):
            raise SpecError(f"set_system entries must be lists of integers, got {s!r}")
    return SetSystem.explicit(n_labels, raw)


def _parse_hypotheses(raw, n_instances: int, n_labels: int) -> HypothesisClass:
    if isinstance(raw, dict):
        if set(raw) != {"all_functions"} or raw["all_functions"] is not True:
            raise SpecError(f"unrecognized hypotheses shorthand {_sorted_keys(raw)}")
        return HypothesisClass.all_functions(n_instances, n_labels)
    if not isinstance(raw, list):
        raise SpecError("hypotheses must be a list of rows or {all_functions: true}")
    for r in raw:
        if not isinstance(r, list):
            raise SpecError(f"hypothesis rows must be lists of integers, got {r!r}")
    return HypothesisClass.explicit(n_instances, n_labels, raw)


def _parse_strategy(raw, block: str) -> dict:
    if not isinstance(raw, dict):
        raise SpecError(f"{block} must be a map with name and params")
    extra = set(raw) - _STRATEGY_KEYS
    if extra:
        raise SpecError(f"unknown {block} keys {_sorted_keys(extra)}")
    name = raw.get("name")
    if not isinstance(name, str):
        raise SpecError(f"{block}.name must be a string")
    params = raw.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise SpecError(f"{block}.params must be a map")
    return {"name": name, "params": params}


def parse_spec_data(data, source: str = "<inline>") -> SpecDocument:
    """Validate a parsed YAML document and build the game it describes.

    Every error is a :class:`SpecFileError` whose message starts with
    ``source``.
    """
    try:
        return _parse_spec_data(data, source)
    except (SpecError, ValueError) as exc:  # an unknown protocol mode is a ValueError
        raise SpecFileError(f"{source}: {exc}") from exc


def _parse_spec_data(data, source: str) -> SpecDocument:
    if not isinstance(data, dict):
        raise SpecError("the document must be a mapping")
    extra = set(data) - _TOP_KEYS
    if extra:
        raise SpecError(f"unknown keys {_sorted_keys(extra)}")

    n_labels = _size(data, "labels", 2)
    n_instances = _size(data, "instances", 1)
    horizon = _size(data, "horizon", 1)
    grid = plain_int(
        data.get("grid", 12), 1, None, SpecError, "grid must be a positive integer, got {value!r}"
    )
    set_system = _required(data, "set_system")
    hypotheses = _required(data, "hypotheses")

    protocol = data.get("protocol", {})
    if protocol is None:
        protocol = {}
    if not isinstance(protocol, dict):
        raise SpecError("protocol must be a map")
    extra = set(protocol) - _PROTOCOL_KEYS
    if extra:
        raise SpecError(f"unknown protocol keys {_sorted_keys(extra)}")
    for key in _PROTOCOL_KEYS:
        v = protocol.get(key)
        if v is not None and not isinstance(v, str):
            raise SpecError(f"protocol.{key} must be a string")

    spec = GameSpec(
        n_instances=n_instances,
        n_labels=n_labels,
        set_system=_parse_set_system(set_system, n_labels),
        hypotheses=_parse_hypotheses(hypotheses, n_instances, n_labels),
        horizon=horizon,
        feedback=protocol.get("feedback", "partial"),
        visibility=protocol.get("visibility", "oblivious"),
        realizability=protocol.get("realizability", "set_realizable"),
        measure_grid=grid,
    )

    learner = _parse_strategy(data["learner"], "learner") if "learner" in data else None
    adversary = _parse_strategy(data["adversary"], "adversary") if "adversary" in data else None
    return SpecDocument(spec=spec, source=source, learner=learner, adversary=adversary)


_INT_TAG = "tag:yaml.org,2002:int"
_SEQ_TAG = "tag:yaml.org,2002:seq"


def _plain_decimal(value) -> bool:
    """True for ``0`` and ASCII digit runs without a leading zero.

    These are the plain scalars YAML 1.1 reads as decimal ints; a leading
    zero (octal), ``_``, a sign, ``0x`` or ``:`` is left to PyYAML.
    """
    return (
        type(value) is str and value.isascii() and value.isdigit()
        and (value[0] != "0" or value == "0")
    )


class _SpecLoader:
    """Loader mixin: rejects a key repeated within one mapping, and builds
    plain decimal ints and lists of them without PyYAML's generic layer.

    Both ``yaml.CSafeLoader`` and ``yaml.SafeLoader`` resolve tags and build
    objects through these Python methods, so one override serves either
    parser. A spec's tables are mostly small ints, and the generic path
    tries a list of regexes per scalar and dispatches once per node; the
    shortcuts give the same tags and the same objects for exactly the
    scalars ``_plain_decimal`` accepts, and leave every other node to the
    generic path.
    """

    def resolve(self, kind, value, implicit):
        if kind is yaml.ScalarNode and implicit[0] and _plain_decimal(value):
            return _INT_TAG
        return super().resolve(kind, value, implicit)

    def construct_object(self, node, deep=False):
        if node.tag == _INT_TAG and _plain_decimal(node.value):
            return int(node.value)
        if node.tag == _SEQ_TAG and node not in self.constructed_objects:
            items = node.value
            if all(n.tag == _INT_TAG and _plain_decimal(n.value) for n in items):
                data = [int(n.value) for n in items]
                self.constructed_objects[node] = data  # an alias yields this same list
                return data
        return super().construct_object(node, deep=deep)

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, _ in node.value:
                if key_node.tag == "tag:yaml.org,2002:merge":
                    continue
                key = self.construct_object(key_node, deep=deep)
                try:
                    repeated = key in seen
                except TypeError:
                    continue  # unhashable: the base constructor reports it
                if repeated:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found duplicate key {key!r}", key_node.start_mark,
                    )
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


@lru_cache(maxsize=None)
def _spec_loader(base):
    return type(base.__name__, (_SpecLoader, base), {})


# libyaml's composer recurses on the C stack, and data nested about 40,000
# deep crashes the interpreter there; the pure loader's composer recurses in
# Python and stops at the recursion limit. Text that may nest this deep goes
# to the pure loader only.
_LIBYAML_MAX_NESTING = 10_000


def _nesting_bound(text: str) -> int:
    """An upper bound on the nesting depth of the YAML in ``text``.

    A flow level opens with ``[`` or ``{``. A block level opens with ``-``
    or ``?`` when it shares a line with its parent, and is indented deeper
    than its parent otherwise, so nesting by indentation alone needs text
    quadratic in its depth.
    """
    return text.count("[") + text.count("{") + text.count("-") + text.count("?")


def _read_spec_yaml(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # Loading from the handle, not its text, keeps the path in error marks.
            shallow = _nesting_bound(fh.read()) < _LIBYAML_MAX_NESTING
            if shallow and hasattr(yaml, "CSafeLoader"):
                fh.seek(0)
                try:
                    return yaml.load(fh, Loader=_spec_loader(yaml.CSafeLoader))
                except yaml.YAMLError:
                    pass
            fh.seek(0)
            return yaml.load(fh, Loader=_spec_loader(yaml.SafeLoader))
    except OSError as exc:
        raise SpecFileError(f"{path}: cannot read file ({exc})") from exc
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"{path}: not UTF-8 text ({exc})") from exc
    except yaml.YAMLError as exc:
        message = " ".join(line.strip() for line in str(exc).splitlines() if line.strip())
        raise SpecFileError(f"{path}: invalid YAML ({message})") from exc
    except ValueError as exc:
        # A scalar its constructor cannot convert: an int past Python's
        # digit limit, or a bad date or explicitly tagged number.
        raise SpecFileError(f"{path}: invalid YAML value ({exc})") from exc


def load_spec_file(path: str) -> SpecDocument:
    """Load and validate a game file from disk.

    The file is parsed with libyaml (``yaml.CSafeLoader``) when PyYAML was
    built with it, else with the pure-Python ``yaml.SafeLoader``. A file libyaml
    rejects is parsed again by the pure loader, whose message is the one
    reported, so error text does not depend on whether libyaml is installed.
    A file whose brackets, braces, dashes and question marks number 10,000
    or more could nest deeply enough to crash libyaml, so only the pure
    loader parses it. A file both loaders accept gives the same data, but
    below that bound they can part on deep nesting: a list nested 3,000
    deep loads under libyaml, while the pure loader's composer stops at
    Python's recursion limit and the file is a ``data nested too deeply``
    error. A key repeated within one mapping is an error, never a silent
    override. An int too long for Python to convert, or lists nested too
    deeply to load or report, give a one-line :class:`SpecFileError` too.
    """
    try:
        return parse_spec_data(_read_spec_yaml(path), source=str(path))
    except RecursionError as exc:
        raise SpecFileError(f"{path}: data nested too deeply") from exc

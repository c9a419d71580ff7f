"""Output checker: every op's output against pinned values and identities.

``pinned.json`` holds, for each catalog entry, the full text output of its
command at the commit the benchmark was defined on, with the ``spec:`` path
abstracted and the ``runtime_ms`` line dropped. Presentations never change an
output, so the pins hold for every seed. On top of the pins the checker tests
identities that hold whatever the catalog holds:

- det-solve: the value is at most the class size under the full power set;
- rand-solve: the value lies between 0 and the depth;
- enum-play: loss equals the horizon T and the comparator is 0;
- public-play: expected loss is T - 1 and there are T**T branches, since the
  uniform learner spreads over T labels and k = 1/2.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

PINNED = Path(__file__).with_name("pinned.json")


def normalize(text: str, spec_path: str) -> list:
    """Output lines with the spec path abstracted and runtime_ms dropped."""
    out = []
    for line in text.splitlines():
        if line.startswith("runtime_ms: "):
            continue
        if line == f"spec: {spec_path}":
            line = "spec: {spec}"
        out.append(line)
    return out


def _fields(lines: list) -> dict:
    out = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def identity_problems(workload: str, spec: dict, lines: list) -> list:
    f = _fields(lines)
    T = spec["horizon"]
    try:
        if workload == "det-solve":
            value = int(f["value"])
            if spec["set_system"] == {"full_power_set": True} and not (
                0 <= value <= len(spec["hypotheses"])
            ):
                return [f"value {value} outside [0, class size]"]
        elif workload == "rand-solve":
            value = Fraction(f["value"])
            if not 0 <= value <= T:
                return [f"value {value} outside [0, {T}]"]
        elif workload == "enum-play":
            if Fraction(f["loss"]) != T or Fraction(f["comparator"]) != 0:
                return [f"loss {f['loss']} comparator {f['comparator']}, expected {T} and 0"]
        elif workload == "public-play":
            if Fraction(f["loss"]) != T - 1 or int(f["branches"]) != T**T:
                return [f"loss {f['loss']} over {f['branches']} branches, expected {T - 1}"]
    except (KeyError, ValueError) as exc:
        return [f"unreadable output ({exc!r})"]
    return []


def check_op(workload: str, entry, spec_path: str, rc: int, text: str, pins: dict) -> list:
    """Problems with one op's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    lines = normalize(text, spec_path)
    problems = identity_problems(workload, entry.spec, lines)
    expected = pins.get(workload, {}).get(entry.name)
    if expected is None:
        problems.append("no pinned output")
    elif lines != expected:
        problems.append(f"output differs from pin: {lines!r} != {expected!r}")
    return problems


def load_pins() -> dict:
    return json.loads(PINNED.read_text(encoding="utf-8"))

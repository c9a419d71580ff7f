"""Seeded workload generator for the pflab benchmark.

Each workload is a fixed catalog of op slots. One *pass* runs every slot once,
in a seeded order, and the benchmark runs passes back to back. A slot names a
base game (a catalog entry) plus the CLI arguments of one ``pflab`` command.

The seed never changes which games are solved, only how each is presented:
the order of the hypothesis rows and the order of the listed feasible sets.
Neither changes any printed value or the number of engine states expanded,
so every pass does the same work and every output can be checked exactly for
any seed. Every op of a run gets a presentation no other op of that run has,
so a process-wide cache keyed on spec content cannot score hits that a
one-command-per-process user would never get.

The generator writes plain YAML (JSON flow syntax) and an op list; pflab sees
only those files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Passes generated per run. The measuring loop stops when its time is up, so
# this only caps how many passes a run can make.
PASSES = 10


@dataclass(frozen=True)
class Entry:
    """One base game and the command run on it."""

    name: str
    spec: dict
    args: tuple  # CLI arguments; "{spec}" stands for the generated file
    permute_rows: bool = True


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    entries: dict  # entry name -> Entry
    slots: tuple  # entry names, one per op of a pass


def _full_binary(rows, depth):
    return {
        "labels": 2,
        "instances": len(rows[0]),
        "set_system": {"full_power_set": True},
        "hypotheses": rows,
        "horizon": depth,
    }


def _det_entries():
    out = {}
    binary5 = [
        [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
        [[0, 0, 0], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0]],
        [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
        [[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0]],
        [[0, 0, 1], [0, 1, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]],
        [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0]],
        [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 1, 0], [1, 1, 1]],
        [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]],
    ]
    binary6 = [
        [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 1], [0, 1, 1, 1], [1, 0, 0, 0]],
        [[0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 1, 1], [1, 1, 0, 0]],
        [[0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [1, 1, 0, 0]],
    ]
    ternary5 = [
        [[0, 1, 0], [0, 2, 0], [1, 2, 2], [2, 0, 0], [2, 2, 2]],
        [[0, 0, 0], [0, 1, 0], [1, 2, 1], [2, 0, 2], [2, 2, 2]],
        [[0, 2, 0], [0, 2, 2], [1, 0, 0], [1, 1, 1], [1, 1, 2]],
    ]
    for i, rows in enumerate(binary5 + binary6):
        name = f"b{len(rows)}x{len(rows[0])}-{i}"
        out[name] = _full_binary(rows, len(rows) + 2)
    for i, rows in enumerate(ternary5):
        out[f"t5x3-up2-{i}"] = {
            "labels": 3,
            "instances": 3,
            "set_system": {"all_nonempty_up_to": 2},
            "hypotheses": rows,
            "horizon": len(rows) + 2,
        }
    return {
        name: Entry(
            name, spec, ("dim", "{spec}", "--what", "pfl", "--depth", str(spec["horizon"]))
        )
        for name, spec in out.items()
    }


HELLY_SETS = [[0, 1, 3], [2, 3, 5], [1, 4, 5]]
CYCLE_SETS = [[0, 1, 2], [2, 3, 4], [4, 5, 0], [1, 3, 5]]


def _rand_entries():
    out = {}

    def add(name, spec, what, depth, grid, gamma=None):
        args = ["rand", "{spec}", "--what", what, "--depth", str(depth), "--grid", str(grid)]
        if gamma is not None:
            args += ["--gamma", gamma]
        out[name] = Entry(name, spec, tuple(args))

    regret = [
        ("b4-0", [[0, 0, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]], 3, 4),
        ("b4-1", [[0, 0, 1], [0, 1, 1], [1, 1, 0], [1, 1, 1]], 3, 4),
        ("b5-0", [[0, 0, 0], [0, 0, 1], [0, 1, 0], [1, 1, 0], [1, 1, 1]], 3, 4),
        ("b5-1", [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 1, 1]], 3, 4),
        ("b4x2-t4", [[0, 0], [0, 1], [1, 0], [1, 1]], 4, 4),
        ("b4-g6", [[0, 1, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]], 3, 6),
    ]
    for name, rows, T, g in regret:
        add(f"regret-{name}", _full_binary(rows, T), "regret", T, g)
    pms = [
        ("1/4", [[0, 0, 0], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1]]),
        ("1/3", [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]]),
        ("1/2", [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]]),
    ]
    for i, (gamma, rows) in enumerate(pms):
        add(f"pms-b5-{i}", _full_binary(rows, 4), "pms", 4, 4, gamma)

    def overlap(sets):
        return {
            "labels": 6,
            "instances": 1,
            "set_system": sets,
            "hypotheses": [[label] for label in range(6)],
            "horizon": 3,
        }

    add("regret-helly-g8", overlap(HELLY_SETS), "regret", 3, 8)
    add("pms-helly-g8", overlap(HELLY_SETS), "pms", 3, 8, "1/3")
    add("pms-helly-g10", overlap(HELLY_SETS), "pms", 3, 10, "1/3")
    add("pms-helly-g12", overlap(HELLY_SETS), "pms", 3, 12, "1/3")
    add("regret-cycle-g8", overlap(CYCLE_SETS), "regret", 3, 8)
    add("regret-cycle-g10", overlap(CYCLE_SETS), "regret", 3, 10)
    return out


def _parity_half(c: int, x: int, n_cand: int) -> int:
    ones = bin(c & ((1 << (x + 1)) - 1)).count("1")
    return n_cand + (1 if ones % 2 == 0 else 0)


def _prefix_parity_spec(T: int, n_x: int, learner: dict) -> dict:
    """The shape of ``pflab.games.pf_not_sv_game`` with 2**T candidates.

    Constants come first and parity functions second, in candidate order:
    the adversary names its witness by those row indices, so rows keep their
    order and only the feasible sets are shuffled.
    """
    n_cand = 1 << T
    rows = [[c] * n_x for c in range(n_cand)]
    rows += [[_parity_half(c, x, n_cand) for x in range(n_x)] for c in range(n_cand)]
    sets = []
    for c in range(n_cand):
        sets += [[c, n_cand], [c, n_cand + 1]]
    return {
        "labels": n_cand + 2,
        "instances": n_x,
        "set_system": sets,
        "hypotheses": rows,
        "horizon": T,
        "learner": learner,
    }


def _enum_entries():
    out = {}
    for T, n_x in [(4, 4), (4, 6), (5, 5), (5, 6)]:
        for lname, learner in [
            ("cvsp", {"name": "cvsp"}),
            ("dpfla", {"name": "dpfla", "params": {"budget": 0}}),
        ]:
            name = f"t{T}x{n_x}-{lname}"
            spec = _prefix_parity_spec(T, n_x, learner)
            out[name] = Entry(
                name,
                spec,
                ("play", "{spec}", "--learner", lname, "--adversary", "pf_not_sv"),
                permute_rows=False,
            )
    return out


def _cube_entries():
    out = {}
    for T, M in [(4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8)]:
        full = list(range(M))
        name = f"t{T}m{M}"
        spec = {
            "labels": M,
            "instances": T,
            "set_system": [[y for y in full if y != e] for e in full],
            "hypotheses": {"all_functions": True},
            "horizon": T,
            "protocol": {"visibility": "public"},
        }
        out[name] = Entry(
            name,
            spec,
            ("play", "{spec}", "--learner", "uniform_cube", "--adversary", "public_cube"),
            permute_rows=False,
        )
    return out


_RAND = _rand_entries()
WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "det-solve",
            "dim --what pfl at horizon n+2: the label-kind engine recursion takes ~97% of op "
            "time and enumeration under 1%. Target of the bitset-engine roadmap item.",
            _det_entries(),
            tuple(
                [f"b5x3-{i}" for i in range(9)]
                + [f"b6x4-{i}" for i in range(9, 12)]
                + [f"t5x3-up2-{i}" for i in range(3)]
            ),
        ),
        Workload(
            "rand-solve",
            "rand --what regret|pms: the engine with Fraction loss scores and thresholded "
            "measures takes ~80% of op time, measure_grid ~17%. A label-only speedup that costs "
            "these shows here.",
            _RAND,
            tuple(_RAND),
        ),
        Workload(
            "enum-play",
            "label-feedback play on prefix-parity games: admissible-collection enumeration "
            "takes ~80% of op time, spec loading ~13%, the engine nothing.",
            _enum_entries(),
            tuple(
                ["t4x4-cvsp"] * 3 + ["t4x4-dpfla"] * 2 + ["t4x6-cvsp"] * 2 + ["t4x6-dpfla"] * 2
                + ["t5x5-cvsp", "t5x5-dpfla", "t5x6-cvsp", "t5x6-dpfla"]
                + ["t5x5-cvsp", "t5x6-dpfla"]
            ),
        ),
        Workload(
            "public-play",
            "public-visibility cube play: branching, deepcopy (~23%) and witness validation "
            "(~18%) do all the work; enumeration and the engine none.",
            _cube_entries(),
            tuple(["t4m6"] * 4 + ["t4m7"] * 4 + ["t4m8"] * 4 + ["t5m6", "t5m7", "t5m8"]),
        ),
    ]
}


def _present(entry: Entry, rng: random.Random) -> dict:
    spec = dict(entry.spec)
    if entry.permute_rows and isinstance(spec["hypotheses"], list):
        rows = list(spec["hypotheses"])
        rng.shuffle(rows)
        spec["hypotheses"] = rows
    if isinstance(spec["set_system"], list):
        sets = list(spec["set_system"])
        rng.shuffle(sets)
        spec["set_system"] = sets
    return spec


def spec_text(spec: dict) -> str:
    return "".join(f"{key}: {json.dumps(value)}\n" for key, value in spec.items())


@dataclass(frozen=True)
class Op:
    op_id: int
    pass_no: int
    entry: str
    path: str
    argv: tuple


def generate(workload: str, seed: int, out_dir: Path, passes: int = PASSES) -> list:
    """Write the specs and the op list of one run; return the passes as lists of Ops.

    The same (workload, seed) writes byte-identical files.
    """
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen = set()
    out, listing = [], []
    for p in range(passes):
        order = list(wl.slots)
        rng.shuffle(order)
        ops = []
        for name in order:
            entry = wl.entries[name]
            for _ in range(1000):
                text = spec_text(_present(entry, rng))
                if text not in seen:
                    break
            else:
                raise RuntimeError(f"{workload}/{name}: ran out of distinct presentations")
            seen.add(text)
            op_id = len(listing)
            path = out_dir / f"op{op_id:05d}.yaml"
            path.write_text(text, encoding="utf-8")
            argv = [path.name if a == "{spec}" else a for a in entry.args]
            listing.append({"op": op_id, "pass": p, "entry": name, "argv": argv})
            argv = tuple(str(path) if a == "{spec}" else a for a in entry.args)
            ops.append(Op(op_id, p, name, str(path), argv))
        out.append(ops)
    (out_dir / "ops.json").write_text(json.dumps(listing, indent=0), encoding="utf-8")
    return out

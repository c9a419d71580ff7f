"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Cheap entries per workload for the traced-count test.
CHEAP = {
    "det-solve": {"b5x3-3", "t5x3-up2-1"},
    "rand-solve": {"pms-b5-0", "regret-b4-0", "regret-helly-g8"},
    "enum-play": {"t4x4-cvsp", "t4x4-dpfla"},
    "public-play": {"t4m6"},
}


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_gives_identical_inputs_and_another_seed_different_ones(tmp_path):
    for name in workloads.WORKLOADS:
        dirs = [tmp_path / name / tag for tag in ("a", "b", "c")]
        for d, seed in zip(dirs, (7, 7, 8)):
            d.mkdir(parents=True)
            workloads.generate(name, seed, d, passes=2)
        a, b, c = (_files(d) for d in dirs)
        assert a == b
        assert a.keys() == c.keys()
        differing = [k for k in a if k.endswith(".yaml") and a[k] != c[k]]
        assert len(differing) > len(a) // 2, name


def test_no_two_ops_of_a_run_share_a_spec(tmp_path):
    for name in workloads.WORKLOADS:
        out = tmp_path / name
        out.mkdir()
        workloads.generate(name, 0, out)
        texts = [p.read_bytes() for p in out.glob("*.yaml")]
        assert len(set(texts)) == len(texts) == workloads.PASSES * len(
            workloads.WORKLOADS[name].slots
        )


def test_benchmark_json_matches_the_code():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == tracing.UNITS
    for name in list(e2e) + list(layer):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: wl.why for name, wl in workloads.WORKLOADS.items()
    }
    pins = check.load_pins()
    for name, wl in workloads.WORKLOADS.items():
        assert set(pins[name]) == set(wl.entries) == set(wl.slots)


def _pinned_text(lines, spec_path):
    return "".join(line.replace("{spec}", spec_path) + "\n" for line in lines) + "runtime_ms: 3\n"


def test_checker_accepts_pinned_output_and_fails_an_altered_value():
    pins = check.load_pins()
    value_line = re.compile(r"^(value|loss): ")
    for name, wl in workloads.WORKLOADS.items():
        for entry in wl.entries.values():
            lines = pins[name][entry.name]
            assert check.check_op(name, entry, "x.yaml", 0, _pinned_text(lines, "x.yaml"), pins) == []
            altered = [
                value_line.sub(lambda m: m.group(0) + "1", line, count=1) for line in lines
            ]
            assert altered != lines
            assert check.check_op(name, entry, "x.yaml", 0, _pinned_text(altered, "x.yaml"), pins)
            assert check.check_op(name, entry, "x.yaml", 3, "", pins) == ["exit code 3"]


def _traced_counts(name, seed, tmp_path):
    import pflab.cli

    out = tmp_path / f"{name}-{seed}"
    out.mkdir(parents=True)
    passes = [
        [op for op in ops if op.entry in CHEAP[name]]
        for ops in workloads.generate(name, seed, out, passes=2)
    ]
    tracer = tracing.Tracer()
    loop = run.Loop(pflab.cli.main, passes)
    with tracing.installed(tracer):
        _, layer = loop.run(0, min_passes=2, tracer=tracer)
    untraced = run.Loop(pflab.cli.main, passes)
    untraced.run(0, min_passes=2)
    entries = workloads.WORKLOADS[name].entries
    pins = check.load_pins()
    for results in (loop.results, untraced.results):
        for op, rc, text, _, _ in results:
            assert check.check_op(name, entries[op.entry], op.path, rc, text, pins) == []
    return [{k: m[k] for k in tracing.DETERMINISTIC} for m in layer]


def test_deterministic_counts_repeat_exactly(tmp_path):
    for name in workloads.WORKLOADS:
        first = _traced_counts(name, 1, tmp_path / "a")
        assert _traced_counts(name, 1, tmp_path / "b") == first, name
        assert any(first[0].values()), name
        # Presentations change no count except superset_exists calls, whose
        # number depends on the hypothesis row order the enumeration visits.
        invariant = set(tracing.DETERMINISTIC)
        if any(e.permute_rows for e in workloads.WORKLOADS[name].entries.values()):
            invariant.discard("setsystems.superset_calls")
        for counts in first[1:] + _traced_counts(name, 2, tmp_path / "c"):
            assert {k: counts[k] for k in invariant} == {k: first[0][k] for k in invariant}


def _bindings():
    import pflab.cli
    from pflab import dimensions, engine, game
    from pflab.engine import CollectionEngine
    from pflab.setsystems import SetSystem

    return (
        pflab.cli.play_game,
        pflab.cli.load_spec_file,
        dimensions.build_admissible_collections,
        engine.measure_grid,
        CollectionEngine.value,
        SetSystem.superset_exists,
        game.copy,
        game.collection_of,
    )


def test_wrappers_are_removed_after_tracing():
    before = _bindings()
    with tracing.installed(tracing.Tracer()):
        assert all(a is not b for a, b in zip(before, _bindings()))
    assert all(a is b for a, b in zip(before, _bindings()))


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        BENCHMARK["command"] + ["--workload", "det-solve", "--seed", "1", "--seconds", "1"]
        + ["--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

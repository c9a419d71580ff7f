"""Layer tracing from outside the package.

``installed(tracer)`` rebinds pflab's public layer entry points to timing
wrappers for the duration of a ``with`` block and restores the originals on
exit. Names imported by other modules are wrapped in each importing module,
because rebinding the defining module alone would not reach them.

Spans are kept in memory as ``[op_id, name, parent, start, end]`` rows; all
spans of one op share its op id. A layer's self time is its span's duration
minus that of its direct children.
"""

from __future__ import annotations

import copy
import json
import statistics
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Span names whose summed duration is reported as "<metric>", in ms.
SPAN_MS = {
    "engine.label": "engine.label.ms",
    "engine.loss": "engine.loss.ms",
    "engine.measure": "engine.measure.ms",
    "measures.grid": "measures.grid_ms",
    "enum": "enum.ms",
    "play": "play.ms",
    "play.deepcopy": "play.deepcopy_ms",
    "validate": "validate.ms",
    "specfile": "specfile.load_ms",
}
COUNTS = (
    "engine.label.states",
    "engine.loss.states",
    "engine.measure.states",
    "engine.value_calls",
    "measures.grid_edges",
    "enum.calls",
    "enum.collections",
    "setsystems.superset_calls",
    "play.branches",
    "play.deepcopy_calls",
    "validate.calls",
    "specfile.loads",
    "ops.budget_rejected",
)
# Counts that depend only on the generated inputs, never on timing.
DETERMINISTIC = (
    "engine.label.states",
    "engine.loss.states",
    "engine.measure.states",
    "enum.collections",
    "setsystems.superset_calls",
    "play.branches",
    "play.deepcopy_calls",
    "validate.calls",
)
UNITS = {name: "ms" for name in SPAN_MS.values()}
UNITS.update({name: "count" for name in COUNTS})
UNITS.update(
    {
        "play.self_ms": "ms",
        "cli.self_ms": "ms",
        "engine.label.us_per_state": "us",
        "engine.loss.us_per_state": "us",
        "engine.expand_ratio": "1",
        "enum.yield_ratio": "1",
        "validate.distinct_ratio": "1",
        "trace.overhead_ratio": "1",
    }
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op_id = -1
        self.counts = Counter()
        self.superset_calls = 0
        self.value_calls = 0
        self._stack: list = []
        self._in_value = False
        self._in_play = 0
        self._in_validate = False
        self._validated: set = set()

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self.op_id, name, parent, perf_counter(), 0.0])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter()
        self._stack.pop()

    def take_counts(self) -> Counter:
        """Counts since the last call, with the hot-path counters folded in."""
        out = self.counts
        out["setsystems.superset_calls"] += self.superset_calls
        out["engine.value_calls"] += self.value_calls
        out["validate.distinct"] += len(self._validated)
        self.counts = Counter()
        self.superset_calls = self.value_calls = 0
        self._validated = set()
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result)
        return result

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap pflab's layer entry points while the block runs."""
    from pflab import adversaries, cli, dimensions, engine, game, learners, measure_dims
    from pflab.engine import CollectionEngine
    from pflab.setsystems import SetSystem

    saved = []

    def rebind(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def loaded(_):
        tracer.counts["specfile.loads"] += 1

    rebind(cli, "load_spec_file", _spanned(tracer, "specfile", cli.load_spec_file, loaded))

    def enumerated(result):
        tracer.counts["enum.calls"] += 1
        tracer.counts["enum.collections"] += len(result)

    for mod in (dimensions, measure_dims, learners, adversaries):
        rebind(
            mod,
            "build_admissible_collections",
            _spanned(tracer, "enum", game.build_admissible_collections, enumerated),
        )

    def gridded(result):
        tracer.counts["measures.grid_edges"] += len(result)

    rebind(engine, "measure_grid", _spanned(tracer, "measures.grid", engine.measure_grid, gridded))

    value = CollectionEngine.value

    def traced_value(self, alive, scores, rounds):
        tracer.value_calls += 1
        if tracer._in_value:
            return value(self, alive, scores, rounds)
        tracer._in_value = True
        before = self.nodes
        idx = tracer.open("engine." + self.kind)
        try:
            return value(self, alive, scores, rounds)
        finally:
            tracer.close(idx)
            tracer._in_value = False
            tracer.counts[f"engine.{self.kind}.states"] += self.nodes - before

    rebind(CollectionEngine, "value", traced_value)

    superset_exists = SetSystem.superset_exists

    def counted_superset_exists(self, mask):
        tracer.superset_calls += 1
        return superset_exists(self, mask)

    rebind(SetSystem, "superset_exists", counted_superset_exists)

    play_game = cli.play_game

    def traced_play(spec, learner, adversary):
        tracer._in_play += 1
        idx = tracer.open("play")
        try:
            result = play_game(spec, learner, adversary)
        finally:
            tracer.close(idx)
            tracer._in_play -= 1
        tracer.counts["play.branches"] += len(getattr(result, "branches", (None,)))
        return result

    rebind(cli, "play_game", traced_play)

    def traced_deepcopy(obj, memo=None):
        if not tracer._in_play:
            return copy.deepcopy(obj, memo)
        tracer.counts["play.deepcopy_calls"] += 1
        idx = tracer.open("play.deepcopy")
        try:
            return copy.deepcopy(obj, memo)
        finally:
            tracer.close(idx)

    rebind(game, "copy", types.SimpleNamespace(deepcopy=traced_deepcopy))

    def validating(fn, key):
        def wrapper(spec, *args, **kwargs):
            if tracer._in_validate:
                return fn(spec, *args, **kwargs)
            tracer._in_validate = True
            tracer.counts["validate.calls"] += 1
            tracer._validated.add((tracer.op_id,) + key(*args))
            idx = tracer.open("validate")
            try:
                return fn(spec, *args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._in_validate = False

        return wrapper

    rebind(
        game,
        "collection_of",
        validating(game.collection_of, lambda members: ("collection", tuple(members))),
    )
    rebind(
        game,
        "find_realizability_witness",
        validating(
            game.find_realizability_witness,
            lambda instances, sets, budget=None: ("search", tuple(instances), tuple(sets)),
        ),
    )
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def pass_metrics(spans: list, first: int, factors: dict, counts: Counter) -> dict:
    """Per-layer metrics of one pass from its spans and counts.

    ``spans`` is the tracer's span list from index ``first`` on, so a span's
    parent index minus ``first`` is its position in ``spans``. Durations are
    scaled by their op's speed factor (see ``calibrate.py``).
    """
    ms = Counter()
    dur = [(end - start) * 1000.0 * factors[op] for op, _, _, start, end in spans]
    child_ms = Counter()
    for (_, name, parent, _, _), d in zip(spans, dur):
        ms[name] += d
        if parent >= 0:
            child_ms[parent - first] += d
    self_ms = Counter()
    for idx, ((_, name, _, _, _), d) in enumerate(zip(spans, dur)):
        if name in ("play", "cli"):
            self_ms[name] += d - child_ms[idx]
    out = {metric: ms[name] for name, metric in SPAN_MS.items()}
    out.update({name: counts[name] for name in COUNTS})
    out["play.self_ms"] = self_ms["play"]
    out["cli.self_ms"] = self_ms["cli"]

    def ratio(a, b):
        return a / b if b else 0.0

    out["engine.label.us_per_state"] = ratio(
        1000.0 * out["engine.label.ms"], counts["engine.label.states"]
    )
    out["engine.loss.us_per_state"] = ratio(
        1000.0 * out["engine.loss.ms"], counts["engine.loss.states"]
    )
    states = sum(counts[f"engine.{k}.states"] for k in ("label", "loss", "measure"))
    out["engine.expand_ratio"] = ratio(states, counts["engine.value_calls"])
    out["enum.yield_ratio"] = ratio(counts["enum.collections"], counts["setsystems.superset_calls"])
    out["validate.distinct_ratio"] = ratio(counts["validate.distinct"], counts["validate.calls"])
    return out


def median_metrics(per_pass: list) -> dict:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}

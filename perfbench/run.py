"""pflab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload det-solve --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; pflab is imported from ``src/`` there. The
generator writes the workload's specs and op list for the seed into a
temporary directory inside the checkout, removed at exit. Set-up (importing
pflab and loading every generated spec) is timed three times, once in this
process and twice in fresh interpreters, and reported as the median.

Each workload is a closed loop: one process, one op at a time, no threads. An
op is one in-process ``pflab.cli.main([...])`` call with stdout captured. The
loop runs whole passes over the workload's fixed op set until ``--seconds``
have passed, and at least enough passes for the 90th-percentile latency to
have ten ops beyond it. Every op's output is checked after the timed loop
(see ``check.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one warm-up
pass, then three passes with layer wrappers installed (see ``tracing.py``),
then untraced passes for half of ``--seconds``. It prints the per-layer
metrics of the traced passes (median per pass) and the traced-to-untraced
pass-time ratio, and writes the spans to ``.perfbench_out/``.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import check
import tracing
import workloads
from calibrate import factor, loop_seconds
from setup_probe import timed_setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Enough ops that the 90th-percentile latency has at least ten beyond it:
# statistics.quantiles puts p90 at rank 0.9 * (n + 1), leaving n - 90 above.
MIN_OPS = 100
SETUP_PROBES = 2
TRACED_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def run_op(main, argv, tracer=None):
    """One CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        idx = tracer.open("cli") if tracer is not None else None
        t0 = perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that crashes counts as failed
            rc = -1
            err.write(f"uncaught {exc!r}\n")
        dt = perf_counter() - t0
        if idx is not None:
            tracer.close(idx)
    return rc, out.getvalue(), err.getvalue(), dt


def _calibration() -> float:
    gc.collect()  # start each op from a clean heap, as a fresh process would
    return loop_seconds()


class Loop:
    """Runs passes from a shared iterator and keeps every op's result."""

    def __init__(self, main, passes):
        self.main = main
        self.passes = iter(passes)
        self.results = []  # (Op, rc, stdout, stderr, scaled seconds)
        self.raw_pass_s = []

    def run(self, seconds, min_passes, tracer=None):
        """Scaled pass times, plus per-pass layer metrics when traced.

        Each op's time is scaled by the calibration loops run just before
        and just after it (see ``calibrate.py``).
        """
        pass_s, layer = [], []
        deadline = perf_counter() + seconds
        for ops in self.passes:
            first = len(tracer.spans) if tracer is not None else 0
            loops = [_calibration()]
            raw = []
            for op in ops:
                if tracer is not None:
                    tracer.op_id = op.op_id
                raw.append(run_op(self.main, op.argv, tracer))
                loops.append(_calibration())
                if tracer is not None and raw[-1][0] == 3:
                    tracer.counts["ops.budget_rejected"] += 1
            factors = {}
            for i, (op, (rc, text, err, dt)) in enumerate(zip(ops, raw)):
                factors[op.op_id] = factor(loops[i], loops[i + 1])
                self.results.append((op, rc, text, err, dt * factors[op.op_id]))
            pass_s.append(sum(r[4] for r in self.results[-len(ops):]))
            self.raw_pass_s.append(sum(r[3] for r in raw))
            if tracer is not None:
                spans = tracer.spans[first:]
                layer.append(tracing.pass_metrics(spans, first, factors, tracer.take_counts()))
            if len(pass_s) >= min_passes and perf_counter() >= deadline:
                break
        if not pass_s:
            raise RuntimeError("no passes left to run")
        return pass_s, layer

    def op_set_seconds(self) -> float:
        """Time of one pass of the fixed op set: per slot, the median over passes."""
        by_entry, per_pass = {}, {}
        for op, _, _, _, dt in self.results:
            by_entry.setdefault(op.entry, []).append(dt)
            if op.pass_no == self.results[0][0].pass_no:
                per_pass[op.entry] = per_pass.get(op.entry, 0) + 1
        return sum(statistics.median(by_entry[e]) * n for e, n in per_pass.items())


def _setup_seconds(spec_dir) -> list:
    samples = [timed_setup(spec_dir)]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec_dir)],
            capture_output=True,
            text=True,
            timeout=170,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pflab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no pflab sources under {SRC}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    pins = check.load_pins()

    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        passes = workloads.generate(args.workload, args.seed, Path(tmp))
        setup = _setup_seconds(tmp)
        import pflab
        import pflab.cli

        if not Path(pflab.__file__).resolve().is_relative_to(SRC):
            sys.stderr.write(f"perfbench: pflab imported from {pflab.__file__}, not {SRC}\n")
            return 2

        loop = Loop(pflab.cli.main, passes)
        if args.trace:
            # A fixed set of passes is traced, so a seed's counts repeat exactly.
            loop.run(0, min_passes=1)  # warm-up
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced_s, layer = loop.run(0, min_passes=TRACED_PASSES, tracer=tracer)
            untraced_s, _ = loop.run(args.seconds / 2, min_passes=2)
        else:
            min_passes = max(3, math.ceil(MIN_OPS / len(wl.slots)))
            pass_s, _ = loop.run(args.seconds, min_passes=min_passes)

        problems = []
        failed = 0
        for op, rc, text, err, _ in loop.results:
            found = check.check_op(args.workload, wl.entries[op.entry], op.path, rc, text, pins)
            failed += bool(found)
            problems += [f"op {op.op_id} ({op.entry}): {p} {err.strip()}".rstrip() for p in found]

    attempted = len(loop.results)
    if args.trace:
        per_layer = tracing.median_metrics(layer)
        per_layer["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(
            untraced_s
        )
        metrics = {n: {"value": v, "unit": tracing.UNITS[n]} for n, v in sorted(per_layer.items())}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        summary = f"{len(untraced_s)} untraced and {len(traced_s)} traced passes"
    else:
        op_ms = [r[4] * 1000.0 for r in loop.results]
        values = {
            "wall_s": loop.op_set_seconds(),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p90": statistics.quantiles(op_ms, n=10)[8],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
        raw = statistics.median(loop.raw_pass_s)
        summary = f"{len(pass_s)} passes of {len(wl.slots)} ops (unscaled median pass {raw:.3f} s)"

    print(f"workload {args.workload} seed {args.seed}: {summary}, {attempted} ops, {failed} failed")
    for line in problems[:20]:
        print(f"  FAIL {line}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

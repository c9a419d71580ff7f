"""Regenerate ``pinned.json``: each catalog entry's output at the current code.

    python3 perfbench/pin.py

Runs every entry under two presentations (seeds 0 and 1) and refuses to
write unless both give the same normalized output. Run it only on the commit
whose outputs are taken as correct; the checker compares later commits
against the file it writes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import pflab.cli

    pins = {}
    for name, wl in workloads.WORKLOADS.items():
        pins[name] = {}
        for seed in (0, 1):
            with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=run.ROOT) as tmp:
                (ops,) = workloads.generate(name, seed, Path(tmp), passes=1)
                for op in ops:
                    rc, text, err, _ = run.run_op(pflab.cli.main, op.argv)
                    if rc != 0:
                        sys.stderr.write(f"{name}/{op.entry}: exit {rc}: {err}")
                        return 1
                    lines = check.normalize(text, op.path)
                    if pins[name].setdefault(op.entry, lines) != lines:
                        sys.stderr.write(f"{name}/{op.entry}: output depends on presentation\n")
                        return 1
    check.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

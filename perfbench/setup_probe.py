"""Time one benchmark set-up: importing pflab and its CLI, then loading every spec.

Run as ``python3 perfbench/setup_probe.py SPEC_DIR`` in a fresh interpreter,
it prints the seconds taken, scaled to the reference machine speed (see
``calibrate.py``). ``run.py`` calls :func:`timed_setup` once in its own
process as well, before anything else imports pflab.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

from calibrate import factor, loop_seconds

SRC = Path(__file__).resolve().parent.parent / "src"


def timed_setup(spec_dir) -> float:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    before = loop_seconds()
    t0 = perf_counter()
    import pflab
    import pflab.cli  # noqa: F401  (the op entry point)

    for path in sorted(Path(spec_dir).glob("*.yaml")):
        pflab.load_spec_file(str(path))
    seconds = perf_counter() - t0
    return seconds * factor(before, loop_seconds())


if __name__ == "__main__":
    print(timed_setup(sys.argv[1]))

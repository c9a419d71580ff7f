"""Command line harness.

Subcommands:

- ``pflab dim SPEC --what pfl|ppfl|ml|sl|bl|regret --depth d`` exact
  label-prediction values and combinatorial dimensions. For ``pfl`` and
  ``regret``, ``--witness`` also prints the shattering tree read off the
  engine's search (:func:`pflab.dimensions.shattering_tree`), once it
  verifies, and the value is that tree's ``q``: one enumeration and one
  root solve give both. A tree of more than ``TREE_NODES`` internal nodes
  is a budget rejection.
- ``pflab rand SPEC --what pms|ppms|regret --gamma a/b --grid g`` exact
  measure-prediction values on a finite grid.
- ``pflab play SPEC [--learner NAME] [--adversary NAME]`` one full game.
- ``pflab sweep SPEC --task dim|rand --what W --horizon 1..4 ...`` CSV tables
  over cartesian parameter axes.
- ``pflab setsys SPEC`` structural report of the spec's set system.
- ``pflab replicate [--only SLUG]`` the built-in replication suite.

``dim``, ``rand`` and ``sweep`` build every row through one dispatch from
``(task, what)`` to a library call; a flag the chosen quantity does not read
is a spec error.

Exit codes: 0 success; 1 verification or replication failure; 2 spec or usage
problem; 3 budget rejection. Output is deterministic for a fixed config except
the ``runtime_ms`` column, which reports honest wall time.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from .adversaries import make_adversary
from .dimensions import (
    _require_set_realizable,
    minimax_det_regret,
    ml_sl_bl_dim,
    pfl_dim,
    ppfl_dim,
    shattering_tree,
    verify_shattering_tree,
)
from .errors import (
    BudgetExceeded,
    PflabError,
    ProtocolViolation,
    RealizabilityViolation,
    SpecError,
    is_decimal,
    is_rational,
)
from .game import play_game
from .learners import make_learner
from .measure_dims import minimax_rand_regret, pms_dim, ppms_dim
from .measures import Measure
from .replicate import CHECKS, format_table, run_checks
from .setsystems import inseparability_report, labels_of
from .specfile import load_spec_file

CSV_HEADER = "spec,task,horizon,gamma,grid,value_num,value_den,runtime_ms,truncated"


# -- output plumbing ---------------------------------------------------------------


def _fmt_fraction(value) -> str:
    f = Fraction(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _csv_text(rows) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        val = Fraction(r["value"])
        gamma = r.get("gamma")
        lines.append(
            ",".join(
                [
                    r["spec"],
                    r["task"],
                    "" if r.get("horizon") is None else str(r["horizon"]),
                    "" if gamma is None else f"{Fraction(gamma).numerator}/{Fraction(gamma).denominator}",
                    "" if r.get("grid") is None else str(r["grid"]),
                    str(val.numerator),
                    str(val.denominator),
                    str(r["runtime_ms"]),
                    "1" if r.get("truncated") else "0",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _record_text(fields) -> str:
    return "\n".join(f"{k}: {v}" for k, v in fields) + "\n"


def _row_text(row) -> str:
    """One value row as ``key: value`` lines; fields that are None are left out."""
    gamma = row["gamma"]
    fields = [
        ("spec", row["spec"]),
        ("task", row["task"]),
        ("depth", row["horizon"]),
        ("gamma", None if gamma is None else _fmt_fraction(gamma)),
        ("grid", row["grid"]),
        ("value", _fmt_fraction(row["value"])),
        ("runtime_ms", row["runtime_ms"]),
        ("truncated", "1" if row["truncated"] else None),
    ]
    return _record_text((k, v) for k, v in fields if v is not None)


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PflabError(f"cannot write {out_path}: {exc}") from exc


# -- small parsers -----------------------------------------------------------------


def _int(text: str, message: str) -> int:
    """``text`` as an int when it passes :func:`is_decimal` (signed), else :class:`SpecError`.

    A sign is read so that the library names a negative value's own error.
    """
    if not is_decimal(text, signed=True):
        raise SpecError(message)
    try:
        return int(text)
    except ValueError:  # past Python's int conversion digit limit
        raise SpecError(f"an integer of {len(text)} digits is too long") from None


def _int_flags(args, *flags) -> None:
    """Read each named flag's text as an int, in place; an absent flag stays ``None``."""
    for flag in flags:
        text = getattr(args, flag)
        if text is not None:
            setattr(args, flag, _int(text, f"--{flag} expects an integer, got {text!r}"))


def _ints(text: str) -> list:
    if not text:
        return []
    message = f"expected a comma-separated integer list, got {text!r}"
    return [_int(part, message) for part in text.split(",")]


def _fraction_arg(text: str) -> Fraction:
    """``text`` as a ``Fraction`` when it passes :func:`is_rational`, else :class:`SpecError`."""
    if is_rational(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):  # a zero denominator, or too many digits
            pass
    raise SpecError(f"expected a rational like 1/3, got {text!r}")


def _fraction_list(text: str) -> list:
    return [_fraction_arg(part) for part in text.split(",")]


def _int_axis(text: str) -> list:
    """Parse ``1..4`` or ``1,2,3`` into an integer list."""
    if ".." in text:
        lo, _, hi = text.partition("..")
        message = f"expected a range like 1..4, got {text!r}"
        lo_i, hi_i = _int(lo, message), _int(hi, message)
        if hi_i < lo_i:
            raise SpecError(f"empty range {text!r}")
        return list(range(lo_i, hi_i + 1))
    return _ints(text)


def _measure_list(text: str) -> list:
    if not text:
        return []
    return [Measure(tuple(_fraction_arg(w) for w in part.split(","))) for part in text.split(";")]


def _tree_text(tree) -> str:
    def path_key(path):
        return ".".join(str(p) for p in path) if path else "-"

    lines = [f"depth: {tree.depth}", f"q: {tree.q}"]
    for path in sorted(tree.nodes):
        lines.append(f"node {path_key(path)}: instance {tree.nodes[path]}")
    for path in sorted(tree.annotations):
        lines.append(f"reveal {path_key(path)}: label {tree.annotations[path]}")
    for path in sorted(tree.witnesses):
        members = ",".join(str(m) for m in tree.witnesses[path])
        lines.append(f"witness {path_key(path)}: members {members}")
    return "\n".join(lines) + "\n"


# -- subcommands -------------------------------------------------------------------


# Flags each quantity reads besides --budget: (required, optional).
_READS = {
    ("dim", "pfl"): (("depth",), ("witness",)),
    ("dim", "ppfl"): (("depth",), ("prefix_x", "prefix_y", "prefix_reveal")),
    ("dim", "regret"): (("depth",), ("witness",)),
    ("dim", "ml"): ((), ("depth",)),
    ("dim", "sl"): ((), ("depth",)),
    ("dim", "bl"): ((), ("depth",)),
    ("rand", "pms"): (("depth", "gamma"), ("grid",)),
    ("rand", "ppms"): (("depth", "gamma"), ("grid", "prefix_x", "prefix_measure", "prefix_reveal")),
    ("rand", "regret"): (("depth",), ("grid",)),
}
_FLAGS = ("depth", "gamma", "grid", "witness", "prefix_x", "prefix_y", "prefix_measure", "prefix_reveal")


def _check_flags(task: str, what: str, given) -> None:
    """Reject a flag the quantity ignores, then a missing required one."""
    required, optional = _READS[task, what]
    for flag in _FLAGS:
        if flag in given and flag not in required + optional:
            raise SpecError(f"{task}/{what} does not read --{flag.replace('_', '-')}")
    for flag in required:
        if flag not in given:
            raise SpecError(f"--{flag} is required for --what {what}")


def _value(spec, task, what, depth, gamma, grid, prefix, budget, witness=False):
    """The library call computing quantity ``what`` of ``task``.

    With ``witness`` (``pfl`` and ``regret`` only) the call is
    :func:`shattering_tree`, whose ``q`` is the value: one enumeration and
    one root solve give both, after the same realizability gate.
    """
    if task == "dim":
        if witness:
            if what == "regret":
                _require_set_realizable(spec)
            return shattering_tree(spec, depth, budget=budget)
        if what == "pfl":
            return pfl_dim(spec, depth, budget=budget)
        if what == "ppfl":
            return ppfl_dim(spec, *prefix, depth, budget=budget)
        if what == "regret":
            return minimax_det_regret(spec, depth, budget=budget)
        return ml_sl_bl_dim(spec, what, cap=depth, budget=budget)
    if what == "pms":
        return pms_dim(spec, depth, gamma, g=grid, budget=budget)
    if what == "ppms":
        return ppms_dim(spec, *prefix, depth, gamma, g=grid, budget=budget)
    return minimax_rand_regret(spec, depth, g=grid, budget=budget)


def _row(
    path, spec, task, what, depth, gamma=None, grid=None, prefix=(), budget=None, witness=False
) -> dict:
    """Time one value computation and return its output row.

    With ``witness`` the row's ``tree`` is the shattering tree its value was
    read from (see :func:`_value`); otherwise it is ``None``.
    """
    t0 = time.monotonic()
    result = _value(spec, task, what, depth, gamma, grid, prefix, budget, witness)
    return {
        "spec": path,
        "task": f"{task}/{what}",
        "horizon": depth,
        "gamma": gamma,
        "grid": grid,
        "value": result.q if witness else result,
        "runtime_ms": int((time.monotonic() - t0) * 1000),
        "truncated": True if task == "rand" else None,
        "tree": result if witness else None,
    }


def _cmd_value(args) -> int:
    """``dim`` and ``rand``: one quantity, as a text record or one CSV row."""
    _int_flags(args, "depth", "budget", "grid")
    spec = load_spec_file(args.spec).spec
    task, what = args.command, args.what
    if task == "rand":
        args.depth = spec.horizon if args.depth is None else args.depth
        args.grid = spec.measure_grid if args.grid is None else args.grid
    _check_flags(task, what, {f for f in _FLAGS if getattr(args, f) not in (None, "")})
    gamma = None if args.gamma is None else _fraction_arg(args.gamma)
    prefix = (
        _ints(args.prefix_x),
        _ints(args.prefix_y) if task == "dim" else _measure_list(args.prefix_measure),
        _ints(args.prefix_reveal),
    )
    # A CSV row has no place for a tree, so the tree is built for text only,
    # and printed only once it verifies.
    witness = bool(args.witness) and args.format == "text"
    row = _row(args.spec, spec, task, what, args.depth, gamma, args.grid, prefix, args.budget, witness)
    text = _csv_text([row]) if args.format == "csv" else _row_text(row)
    if witness:
        verify_shattering_tree(spec, row["tree"])
        text += _tree_text(row["tree"])
    _emit(text, args.out)
    return 0


def _strategy_choice(flag_name, block, kind):
    if flag_name is not None:
        if block is not None and block["name"] == flag_name:
            return flag_name, block.get("params", {})
        return flag_name, {}
    if block is not None:
        return block["name"], block.get("params", {})
    raise SpecError(
        f"play needs {kind}: add a `{kind}` block to the spec file or pass --{kind}"
    )


def _cmd_play(args) -> int:
    doc = load_spec_file(args.spec)
    spec = doc.spec
    lname, lparams = _strategy_choice(args.learner, doc.learner, "learner")
    aname, aparams = _strategy_choice(args.adversary, doc.adversary, "adversary")
    learner = make_learner(lname, dict(lparams))
    adversary = make_adversary(aname, dict(aparams))
    t0 = time.monotonic()
    result = play_game(spec, learner, adversary)
    ms = int((time.monotonic() - t0) * 1000)

    public = hasattr(result, "branches")
    if public:
        loss, comparator, regret = (
            result.expected_loss,
            result.expected_comparator,
            result.expected_regret,
        )
    else:
        loss, comparator, regret = result.loss, result.comparator, result.regret

    if args.format == "csv":
        text = _csv_text(
            [
                {
                    "spec": args.spec,
                    "task": "play",
                    "horizon": spec.horizon,
                    "value": regret,
                    "runtime_ms": ms,
                }
            ]
        )
    else:
        fields = [
            ("spec", args.spec),
            ("task", "play"),
            ("learner", lname),
            ("adversary", aname),
            ("horizon", spec.horizon),
        ]
        if public:
            fields.append(("branches", len(result.branches)))
        fields += [
            ("loss", _fmt_fraction(loss)),
            ("comparator", _fmt_fraction(comparator)),
            ("regret", _fmt_fraction(regret)),
            ("runtime_ms", ms),
        ]
        text = _record_text(fields)
        if not public:
            lines = []
            for t, (x, pred, y, m) in enumerate(
                zip(result.instances, result.predictions, result.reveals, result.sets)
            ):
                shown = (
                    _fmt_fraction(pred)
                    if isinstance(pred, int)
                    else "(" + ",".join(_fmt_fraction(w) for w in pred.weights) + ")"
                )
                reveal = "-" if y is None else str(y)
                lines.append(
                    f"round {t}: instance {x} predict {shown} reveal {reveal} "
                    f"set {{{','.join(str(b) for b in labels_of(m))}}}"
                )
            text += "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _cmd_sweep(args) -> int:
    _int_flags(args, "budget")
    spec = load_spec_file(args.spec).spec
    horizons = _int_axis(args.horizon)
    if not horizons:
        raise SpecError("sweep needs a nonempty --horizon axis")
    task, what = args.task, args.what
    supported = ("pfl", "regret") if task == "dim" else ("pms", "regret")
    if what not in supported:
        raise SpecError(f"sweep --task {task} supports --what {' or '.join(supported)}")
    _check_flags(task, what, {"depth"} | {f for f in ("gamma", "grid") if getattr(args, f)})
    gammas = _fraction_list(args.gamma) if args.gamma else [None]
    grids = _ints(args.grid) if args.grid else [None if task == "dim" else spec.measure_grid]
    rows = [
        _row(args.spec, spec, task, what, T, gamma, g, budget=args.budget)
        for T in horizons
        for gamma in gammas
        for g in grids
    ]
    _emit(_csv_text(rows), args.out)
    return 0


def _cmd_setsys(args) -> int:
    _int_flags(args, "p")
    system = load_spec_file(args.spec).spec.set_system
    report = inseparability_report(system, args.p, truncated=args.truncated)
    fields = [
        ("spec", args.spec),
        ("task", "setsys"),
        ("labels", system.n_labels),
        ("sets", system.size()),
        ("helly", report["helly"]),
        ("condition1_holds", report["condition1_holds"]),
        ("condition2_holds", f"{report['condition2_holds']} (witness p = {report['p']})"),
        ("truncated", report["truncated"]),
        ("union_closed", system.union_closed()),
        ("singletons_included", system.singletons_included()),
    ]
    _emit(_record_text(fields), args.out)
    return 0


def _cmd_replicate(args) -> int:
    known = {slug for slug, _ in CHECKS}
    only = None
    if args.only:
        unknown = [s for s in args.only if s not in known]
        if unknown:
            raise SpecError(
                f"unknown check(s) {', '.join(unknown)}; available: {', '.join(sorted(known))}"
            )
        only = set(args.only)
    results = run_checks(only=only)
    text = format_table(results) + "\n"
    _emit(text, args.out)
    failed = [r.slug for r in results if not r.passed]
    if failed:
        sys.stderr.write(f"failed: {', '.join(failed)}\n")
        return 1
    return 0


# -- wiring ------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``pflab`` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="pflab",
        description="Exact partial-feedback online learning games at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("spec", help="path to a YAML game spec")
        p.add_argument("-o", "--out", default=None, help="write output to a file")

    p = sub.add_parser("dim", help="label-prediction values and dimensions")
    common(p)
    p.add_argument("--what", required=True, choices=["pfl", "ppfl", "ml", "sl", "bl", "regret"])
    p.add_argument("--depth", default=None, help="game depth (search cap for ml/sl/bl)")
    p.add_argument("--budget", default=None, help="override the state budget")
    p.add_argument("--witness", action="store_true", default=None, help="also print a shattering tree")
    p.add_argument("--prefix-x", help="ppfl prefix instances, comma-separated")
    p.add_argument("--prefix-y", help="ppfl prefix predictions, comma-separated")
    p.add_argument("--prefix-reveal", help="ppfl prefix reveals, comma-separated")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_value, gamma=None, grid=None, prefix_measure=None)

    p = sub.add_parser("rand", help="measure-prediction values on a grid")
    common(p)
    p.add_argument("--what", required=True, choices=["pms", "ppms", "regret"])
    p.add_argument("--gamma", default=None, help="event threshold, a rational like 1/3")
    p.add_argument("--grid", default=None, help="grid denominator (default: spec grid)")
    p.add_argument("--depth", default=None, help="rounds (default: spec horizon)")
    p.add_argument("--budget", default=None, help="override the state budget")
    p.add_argument("--prefix-x", help="ppms prefix instances, comma-separated")
    p.add_argument(
        "--prefix-measure",
        help="ppms prefix measures; semicolon-separated, each a comma list of rationals",
    )
    p.add_argument("--prefix-reveal", help="ppms prefix reveals, comma-separated")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_value, witness=None, prefix_y=None)

    p = sub.add_parser("play", help="play one game between named strategies")
    common(p)
    p.add_argument("--learner", default=None, help="learner name (overrides the spec block)")
    p.add_argument("--adversary", default=None, help="adversary name (overrides the spec block)")
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("sweep", help="CSV table over parameter axes")
    common(p)
    p.add_argument("--task", required=True, choices=["dim", "rand"])
    p.add_argument("--what", required=True, help="pfl|regret (dim) or pms|regret (rand)")
    p.add_argument("--horizon", required=True, help="axis like 1..4 or 1,2,3")
    p.add_argument("--gamma", default=None, help="comma-separated rationals")
    p.add_argument("--grid", default=None, help="comma-separated grid denominators")
    p.add_argument("--budget", default=None, help="override the state budget")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("setsys", help="structural report of the spec's set system")
    common(p)
    p.add_argument("--p", default=None, help="overlap witness (default: the computed value)")
    p.add_argument(
        "--truncated",
        action="store_true",
        help="mark the system as a truncation of an infinite family in the report",
    )
    p.set_defaults(func=_cmd_setsys)

    p = sub.add_parser("replicate", help="run the built-in replication suite")
    common(p, spec=False)
    p.add_argument("--only", action="append", default=None, help="run one named check (repeatable)")
    p.set_defaults(func=_cmd_replicate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget rejected: {exc}\n")
        return 3
    except (ProtocolViolation, RealizabilityViolation) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 1
    except SpecError as exc:
        sys.stderr.write(f"spec error: {exc}\n")
        return 2
    except PflabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

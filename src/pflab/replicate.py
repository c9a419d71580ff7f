"""Built-in replication suite.

Twelve named checks, each verifying one headline quantitative claim on
enumerated desk-scale games. The CLI `replicate` command runs them and prints
a pass/fail table; the acceptance tests call the same functions, so there is
exactly one implementation of each check.

Every check recomputes its claim from scratch through the public library
API, computes each quantity it states once, and makes only comparisons that
can fail. An equality is certified from both sides, against independently
coded oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .adversaries import (
    CubeAdversary,
    OptimalAdversary,
    PrefixParityAdversary,
    SeededRandomAdversary,
    TwoConstantAgnosticAdversary,
)
from .dimensions import (
    minimax_det_regret,
    ml_sl_bl_dim,
    pfl_dim,
    shattering_tree,
    verify_shattering_tree,
)
from .errors import TreeSpecMismatch
from .families import (
    binary_full_system_family,
    mistake_bound_family,
    small_binary_family,
    ternary_slice,
)
from .game import (
    GameSpec,
    HypothesisClass,
    build_admissible_collections,
    collection_of,
    distinct_images,
    find_realizability_witness,
    images_at,
    play_game,
)
from .games import (
    HELLY_TRANSVERSAL,
    agnostic_game,
    cube_game,
    helly_game,
    pf_not_sv_game,
)
from .learners import (
    FirstSetReadingLearner,
    FixedScaleMeasureLearner,
    PotentialMinimizingLearner,
    ScriptedLearner,
    TransversalIntersectionLearner,
    UniformPrefixLearner,
    VersionSpacePruningLearner,
)
from .measure_dims import minimax_rand_regret, pms_dim
from .measures import Measure
from .setsystems import SetSystem, helly_number


@dataclass(frozen=True)
class CheckResult:
    slug: str
    passed: bool
    detail: str


def _result(slug: str, failures: list, detail: str) -> CheckResult:
    if failures:
        shown = "; ".join(failures[:4])
        more = f" (+{len(failures) - 4} more)" if len(failures) > 4 else ""
        return CheckResult(slug, False, f"{shown}{more}")
    return CheckResult(slug, True, detail)


# -- worst case against one learner -------------------------------------------------


def worst_case_vs_learner(spec: GameSpec, learner_factory) -> Fraction:
    """Exact sup over (oblivious) adversary play of the learner's expected loss.

    Exhausts instance and reveal trajectories; at the leaves takes the best
    surviving collection for the adversary. Only images are read, so one
    collection per image vector is tracked, and its images are read off the
    family's packed words, with no :class:`Collection` built. The learner
    may be randomized; per-round loss is the predicted measure's mass
    outside the final set.
    """
    words = distinct_images(build_admissible_collections(spec)).words
    # images[x][cid]: collection cid's image at instance x.
    images = [images_at(spec, words, x) for x in range(spec.n_instances)]

    def as_measure(pred):
        if isinstance(pred, Measure):
            return pred
        return Measure.delta(spec.n_labels, pred)

    def rec(learner, alive, charges, t):
        if t == spec.horizon:
            return max(charges[cid] for cid in alive)
        best = None
        for x in range(spec.n_instances):
            probe = learner.fork()
            pi = as_measure(probe.predict(x))
            for y in range(spec.n_labels):
                kept = [cid for cid in alive if (images[x][cid] >> y) & 1]
                if not kept:
                    continue
                nxt = probe.fork()
                nxt.observe(y)
                new_charges = dict(charges)
                for cid in kept:
                    new_charges[cid] = charges[cid] + pi.miss_mass(images[x][cid])
                v = rec(nxt, kept, new_charges, t + 1)
                if best is None or v > best:
                    best = v
        return best

    learner = learner_factory()
    learner.begin(spec)
    alive = list(range(len(words)))
    return rec(learner, alive, {cid: Fraction(0) for cid in alive}, 0)


# -- the twelve checks ---------------------------------------------------------------


def check_det_minimax_equals_dimension() -> CheckResult:
    """PFLdim equals the deterministic minimax regret, certified on both sides.

    The value is the shattering tree's ``q``, solved as :func:`pfl_dim`
    solves it. The lower bound is that tree, which must verify against the
    spec alone; the upper bound is the potential-minimizing learner's exact
    worst case, walked by :func:`worst_case_vs_learner`, which shares
    nothing with the engine, and which must equal ``q``.
    """
    failures = []
    n = 0
    for slug, spec in list(small_binary_family()) + list(ternary_slice()):
        n += 1
        d = spec.horizon
        tree = shattering_tree(spec, d)
        try:
            verify_shattering_tree(spec, tree)
        except TreeSpecMismatch as e:
            failures.append(f"{slug}: the depth-{d} tree fails verification: {e}")
        worst = worst_case_vs_learner(spec, PotentialMinimizingLearner)
        if worst != tree.q:
            failures.append(
                f"{slug}: the potential learner's worst case {worst} != the tree's {tree.q}"
            )
    return _result(
        "det-minimax-equals-dimension",
        failures,
        f"{n} specs equal; each certified by a verified tree and the learner's worst case",
    )


def check_version_space_mistake_bound() -> CheckResult:
    failures = []
    n = 0
    for slug, spec, bound in mistake_bound_family():
        n += 1
        t = play_game(spec, VersionSpacePruningLearner(), OptimalAdversary())
        if t.loss > bound:
            failures.append(f"{slug}: {t.loss} mistakes above bound {bound}")
    return _result(
        "version-space-mistake-bound", failures, f"{n} games within the subset-count bound"
    )


def check_full_system_linear_regret() -> CheckResult:
    failures = []
    n = 0
    for slug, spec in binary_full_system_family():
        n += 1
        r = minimax_det_regret(spec, spec.horizon)
        if r > spec.hypotheses.size:
            failures.append(f"{slug}: minimax {r} above class size {spec.hypotheses.size}")
    return _result(
        "full-system-linear-regret", failures, f"{n} classes with minimax at most n"
    )


def check_multiclass_dim_below_pfl() -> CheckResult:
    """On a system holding every singleton, the multiclass dimension is at most PFLdim.

    The game value is compared at depth ``max(ml, 1)``: below the multiclass
    dimension it is depth-starved and the comparison means nothing.
    """
    failures = []
    asserted = 0
    for slug, spec in list(small_binary_family(horizons=(1,))) + list(
        ternary_slice(horizons=(1,))
    ):
        if not spec.set_system.singletons_included():
            continue
        ml = ml_sl_bl_dim(spec, "ml", cap=spec.hypotheses.size + 1)
        if ml > pfl_dim(spec, max(ml, 1)):
            failures.append(f"{slug}: multiclass dim exceeded the label-feedback dim")
        else:
            asserted += 1
    if asserted == 0:
        failures.append("no spec asserted the comparison")
    return _result(
        "multiclass-dim-below-pfl", failures, f"comparison held on {asserted} specs"
    )


def check_pfl_union_closed_bound() -> CheckResult:
    """On a union-closed system, the depth-``d`` value is at most ``d - d // (sl + 1)``.

    ``sl`` is the spec's own-system dimension capped at ``d``.
    """
    failures = []
    checked = 0
    for slug, spec in list(small_binary_family(horizons=(1,))) + list(
        ternary_slice(horizons=(1,))
    ):
        if not spec.set_system.union_closed():
            continue
        for d in range(1, 5):
            sl = ml_sl_bl_dim(spec, "sl", cap=d)
            if pfl_dim(spec, d) > d - d // (sl + 1):
                failures.append(f"{slug}: depth-{d} value above the union-closed bound")
            else:
                checked += 1
    if checked == 0:
        failures.append("no union-closed spec was enumerated")
    return _result(
        "pfl-union-closed-bound", failures, f"bound held at {checked} (spec, depth) points"
    )


def check_helly_randomized_tightness() -> CheckResult:
    failures = []
    h = helly_number(helly_game(1).set_system)
    if h != 3:
        failures.append(f"overlap number {h} != 3")
    for T in (1, 2, 3):
        r = minimax_rand_regret(helly_game(T), T, g=6)
        if r != Fraction(1, 3):
            failures.append(f"T={T}: randomized minimax {r} != 1/3")
    worst = worst_case_vs_learner(
        helly_game(3), lambda: TransversalIntersectionLearner(HELLY_TRANSVERSAL)
    )
    if worst != Fraction(1, 3):
        failures.append(f"transversal learner worst case {worst} != 1/3")
    return _result(
        "helly-randomized-tightness",
        failures,
        "minimax 1/3 at T=1..3 and the transversal learner attains it",
    )


def _binary_singleton_game(T: int) -> GameSpec:
    system = SetSystem.explicit(2, [0b01, 0b10])
    hyps = HypothesisClass.explicit(1, 2, [[0], [1]])
    return GameSpec(
        n_instances=1, n_labels=2, set_system=system, hypotheses=hyps, horizon=T
    )


def check_binary_singleton_half_dimension() -> CheckResult:
    failures = []
    for T in (1, 2, 3):
        spec = _binary_singleton_game(T)
        v = pfl_dim(spec, T)
        for g in (2, 4):
            r = minimax_rand_regret(spec, T, g=g)
            if r != Fraction(v, 2):
                failures.append(f"T={T}, g={g}: {r} != half of {v}")
    return _result(
        "binary-singleton-half-dimension",
        failures,
        "randomized minimax is half the deterministic dimension at even grids",
    )


def check_small_helly_measure_equals_label() -> CheckResult:
    failures = []
    points = 0
    for slug, spec in list(small_binary_family()) + list(ternary_slice()):
        p = helly_number(spec.set_system)
        T = spec.horizon
        v = pfl_dim(spec, T)
        for gamma in (Fraction(0), Fraction(1, 2 * p), Fraction(1, p)):
            for g in (1, 4):
                m = pms_dim(spec, T, gamma, g=g)
                if m != v:
                    failures.append(f"{slug}: gamma={gamma}, g={g}: measure dim {m} != {v}")
                else:
                    points += 1
    return _result(
        "small-helly-measure-equals-label",
        failures,
        f"measure and label dimensions agreed at {points} (gamma, grid) points",
    )


def check_fixed_scale_event_bound() -> CheckResult:
    failures = []
    runs = 0
    specs = [("helly", helly_game(3)), ("two-constant", _binary_singleton_game(3))]
    gammas = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
    for name, spec in specs:
        for gamma in gammas:
            cap = pms_dim(spec, spec.horizon, gamma, g=6)
            adversaries = [
                ("optimal", OptimalAdversary),
                ("random0", lambda: SeededRandomAdversary(0)),
                ("random1", lambda: SeededRandomAdversary(1)),
                ("random2", lambda: SeededRandomAdversary(2)),
            ]
            for adv_name, factory in adversaries:
                t = play_game(spec, FixedScaleMeasureLearner(gamma, g=6), factory())
                events = sum(
                    1
                    for pred, m in zip(t.predictions, t.sets)
                    if pred.miss_mass(m) >= gamma
                )
                runs += 1
                if events > cap:
                    failures.append(
                        f"{name} vs {adv_name} at gamma={gamma}: {events} heavy rounds, cap {cap}"
                    )
    return _result(
        "fixed-scale-event-bound", failures, f"{runs} transcripts within the event cap"
    )


def check_visibility_separation_cube() -> CheckResult:
    failures = []
    T, M = 3, 6
    spec = cube_game(T, M)
    uniform = Measure.uniform_over(M, range(T))

    # Exhaustive oblivious adversaries: the final sets are images of one
    # collection, so they are determined by one excluded label per distinct
    # instance; every assignment is realizable (witnessed below), and reveals
    # are irrelevant against this nonadaptive learner.
    best = Fraction(0)
    full = (1 << M) - 1
    for xs in product(range(T), repeat=T):
        distinct = sorted(set(xs))
        for excl in product(range(M), repeat=len(distinct)):
            assign = {x: 0 for x in range(T)}
            assign.update(zip(distinct, excl))
            sets = [full ^ (1 << e) for e in assign.values()]
            col = collection_of(spec, find_realizability_witness(spec, list(assign), sets))
            for x, e in assign.items():
                if col.images[x] != full ^ (1 << e):
                    failures.append(f"witness image wrong at instance {x}")
            loss = sum((uniform.weights[assign[x]] for x in xs), Fraction(0))
            if loss > best:
                best = loss
    if best != 1:
        failures.append(f"oblivious worst case {best} != 1")

    public = cube_game(6, 8, visibility="public")
    res = play_game(public, UniformPrefixLearner(6), CubeAdversary(Fraction(1, 2)))
    if res.expected_loss < Fraction(6, 2):
        failures.append(f"public forced loss {res.expected_loss} below 3")
    if res.expected_loss != 5:
        failures.append(f"public forced loss {res.expected_loss} != 5 vs uniform play")
    return _result(
        "visibility-separation-cube",
        failures,
        "oblivious worst case exactly 1; public play forces 5 >= 3",
    )


def check_two_constant_agnostic_floor() -> CheckResult:
    failures = []
    for T in range(1, 7):
        spec = agnostic_game(T)
        floor = Fraction(T, 2)
        for name, factory in [
            ("cvsp", VersionSpacePruningLearner),
            ("dpfla", PotentialMinimizingLearner),
        ]:
            t = play_game(spec, factory(), TwoConstantAgnosticAdversary())
            if t.regret < floor:
                failures.append(f"T={T} {name}: regret {t.regret} below {floor}")
        t = play_game(spec, UniformPrefixLearner(2), TwoConstantAgnosticAdversary())
        if t.regret != floor:
            failures.append(f"T={T} uniform coin: regret {t.regret} != {floor}")
        # Reveals depend only on the learner's own predictions here, so every
        # deterministic adaptive learner traces one scripted label sequence.
        best = None
        for labels in product((0, 1), repeat=T):
            t = play_game(spec, ScriptedLearner(list(labels)), TwoConstantAgnosticAdversary())
            if best is None or t.regret < best:
                best = t.regret
        if best < floor:
            failures.append(f"T={T}: a deterministic script got regret {best} < {floor}")
    return _result(
        "two-constant-agnostic-floor",
        failures,
        "every tested strategy paid at least half the horizon",
    )


def check_label_vs_set_feedback_gap() -> CheckResult:
    failures = []
    spec = pf_not_sv_game()
    T = spec.horizon
    for name, factory in [
        ("cvsp", VersionSpacePruningLearner),
        ("dpfla", lambda: PotentialMinimizingLearner(potential_budget=0)),
    ]:
        t = play_game(spec, factory(), PrefixParityAdversary())
        if t.regret != T or t.comparator != 0:
            failures.append(
                f"{name}: regret {t.regret} (comparator {t.comparator}), expected {T} and 0"
            )
    sv = pf_not_sv_game(set_valued=True)
    t = play_game(sv, FirstSetReadingLearner(), PrefixParityAdversary())
    if t.loss > 1:
        failures.append(f"set-valued reader lost {t.loss} > 1")
    return _result(
        "label-vs-set-feedback-gap",
        failures,
        f"label feedback forces {T} mistakes; set feedback is solved with at most 1",
    )


CHECKS = [
    ("det-minimax-equals-dimension", check_det_minimax_equals_dimension),
    ("version-space-mistake-bound", check_version_space_mistake_bound),
    ("full-system-linear-regret", check_full_system_linear_regret),
    ("multiclass-dim-below-pfl", check_multiclass_dim_below_pfl),
    ("pfl-union-closed-bound", check_pfl_union_closed_bound),
    ("helly-randomized-tightness", check_helly_randomized_tightness),
    ("binary-singleton-half-dimension", check_binary_singleton_half_dimension),
    ("small-helly-measure-equals-label", check_small_helly_measure_equals_label),
    ("fixed-scale-event-bound", check_fixed_scale_event_bound),
    ("visibility-separation-cube", check_visibility_separation_cube),
    ("two-constant-agnostic-floor", check_two_constant_agnostic_floor),
    ("label-vs-set-feedback-gap", check_label_vs_set_feedback_gap),
]


def run_checks(only=None) -> list:
    """Run the suite (optionally a named subset) and return the results."""
    results = []
    for slug, fn in CHECKS:
        if only and slug not in only:
            continue
        results.append(fn())
    return results


def format_table(results) -> str:
    width = max(len(r.slug) for r in results) if results else 10
    lines = [f"{'check'.ljust(width)}  result  detail"]
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        lines.append(f"{r.slug.ljust(width)}  {mark:6}  {r.detail}")
    return "\n".join(lines)

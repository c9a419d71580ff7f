"""Built-in replication suite.

Thirteen named checks, each verifying one headline quantitative claim on
enumerated desk-scale games. The CLI `replicate` command runs them and prints
a pass/fail table; the acceptance tests call the same functions, so there is
exactly one implementation of each check.

Every check recomputes its claim from scratch through the public library
API against independently coded oracles where the claim is an equality.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .adversaries import (
    CollisionAdversary,
    CollisionFamily,
    CubeAdversary,
    OptimalAdversary,
    PrefixParityAdversary,
    SeededRandomAdversary,
    TwoConstantAgnosticAdversary,
)
from .dimensions import (
    dimension_relations_report,
    minimax_det_regret,
    ml_sl_bl_dim,
    naive_tree_oracle,
    pfl_dim,
    verify_shattering_tree,
)
from .errors import BudgetExceeded
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
    play_game,
)
from .games import (
    HELLY_TRANSVERSAL,
    agnostic_game,
    collision_game,
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
from .measure_dims import minimax_rand_regret, msp, pms_dim
from .measures import Measure
from .setsystems import SetSystem, helly_number, inseparability_report


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


# -- oracles used by several checks -------------------------------------------------


def worst_case_vs_learner(spec: GameSpec, learner_factory) -> Fraction:
    """Exact sup over (oblivious) adversary play of the learner's expected loss.

    Exhausts instance and reveal trajectories; at the leaves takes the best
    surviving collection for the adversary. Only images are read, so one
    collection per image vector is tracked. The learner may be randomized;
    per-round loss is the predicted measure's mass outside the final set.
    """
    images = [col.images for col in distinct_images(build_admissible_collections(spec))]

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
                kept = [cid for cid in alive if (images[cid][x] >> y) & 1]
                if not kept:
                    continue
                nxt = probe.fork()
                nxt.observe(y)
                new_charges = dict(charges)
                for cid in kept:
                    new_charges[cid] = charges[cid] + pi.miss_mass(images[cid][x])
                v = rec(nxt, kept, new_charges, t + 1)
                if best is None or v > best:
                    best = v
        return best

    learner = learner_factory()
    learner.begin(spec)
    alive = list(range(len(images)))
    return rec(learner, alive, {cid: Fraction(0) for cid in alive}, 0)


def msp_reference(N, measures, thresholds, system):
    """Literal two-condition scan of the selection rule, written independently."""
    sets = list(system.members())
    miss = [[pi.miss_mass(s) for s in sets] for pi in measures]
    for m in range(1, N):
        ok = True
        for i in range(2, m + 1):
            biggest = max(
                abs(miss[i - 1][j] - miss[i - 2][j]) for j in range(len(sets))
            )
            if biggest > 2 * thresholds[i - 2]:
                ok = False
                break
        if ok:
            smallest = min(
                abs(miss[m - 1][j] - miss[m][j]) for j in range(len(sets))
            )
            if smallest >= 2 * thresholds[m - 1]:
                return m
    return N


# -- the thirteen checks -------------------------------------------------------------


def check_det_minimax_equals_dimension() -> CheckResult:
    failures = []
    oracle_ok = 0
    oracle_skipped = 0
    n = 0
    for slug, spec in list(small_binary_family()) + list(ternary_slice()):
        n += 1
        d = spec.horizon
        v = pfl_dim(spec, d)
        r = minimax_det_regret(spec, d)
        if v != r:
            failures.append(f"{slug}: dimension {v} != minimax {r}")
            continue
        try:
            tree = naive_tree_oracle(spec, d, v, budget=10_000)
            if tree is None:
                failures.append(f"{slug}: no depth-{d} tree at certified value {v}")
            else:
                verify_shattering_tree(spec, tree)
            over = naive_tree_oracle(spec, d, v + 1, budget=10_000)
            if over is not None:
                failures.append(f"{slug}: oracle built a tree above the value, q={v + 1}")
            oracle_ok += 1
        except BudgetExceeded:
            oracle_skipped += 1
    return _result(
        "det-minimax-equals-dimension",
        failures,
        f"{n} specs equal; oracle cross-checked {oracle_ok}, budget-skipped {oracle_skipped}",
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
    failures = []
    asserted = 0
    for slug, spec in list(small_binary_family(horizons=(1,))) + list(
        ternary_slice(horizons=(1,))
    ):
        if not spec.set_system.singletons_included():
            continue
        ml = ml_sl_bl_dim(spec, "ml", cap=spec.hypotheses.size + 1)
        rep = dimension_relations_report(spec, max(ml, 1))
        if rep["ml_le_pfl"] == "fails":
            failures.append(f"{slug}: multiclass dim exceeded the label-feedback dim")
        elif rep["ml_le_pfl"] == "holds":
            asserted += 1
    if asserted == 0:
        failures.append("no spec asserted the comparison")
    return _result(
        "multiclass-dim-below-pfl", failures, f"comparison held on {asserted} specs"
    )


def check_pfl_union_closed_bound() -> CheckResult:
    failures = []
    checked = 0
    for slug, spec in list(small_binary_family(horizons=(1,))) + list(
        ternary_slice(horizons=(1,))
    ):
        if not spec.set_system.union_closed():
            continue
        for d in range(1, 5):
            rep = dimension_relations_report(spec, d)
            if rep["pfl_le_bound"] == "fails":
                failures.append(f"{slug}: depth-{d} value above the union-closed bound")
            elif rep["pfl_le_bound"] == "holds":
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
        rep = inseparability_report(spec.set_system, p)
        if not rep["condition2_holds"]:
            failures.append(f"{slug}: report rejected its own overlap witness")
            continue
        T = spec.horizon
        v = pfl_dim(spec, T)
        for gamma in (Fraction(0), Fraction(1, 2 * p), Fraction(1, p)):
            for g in (1, 4):
                m = pms_dim(spec, T, gamma, g=g)
                if int(m) != v:
                    failures.append(
                        f"{slug}: gamma={gamma}, g={g}: measure dim {int(m)} != {v}"
                    )
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


def check_property_suites() -> CheckResult:
    failures = []

    # dimension monotone in depth
    sample = [s for i, (slug, s) in enumerate(small_binary_family(horizons=(1,))) if i % 10 == 0]
    sample.append(helly_game(1))
    for spec in sample:
        vals = [pfl_dim(spec, d) for d in (1, 2, 3)]
        if not (vals[0] <= vals[1] <= vals[2]):
            failures.append(f"depth monotonicity broke: {vals}")

    # measure dimension monotone in gamma, and under grid refinement
    for spec in sample[:6]:
        gs = [
            pms_dim(spec, 2, gam, g=4)
            for gam in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1))
        ]
        if not all(a >= b for a, b in zip(gs, gs[1:])):
            failures.append(f"gamma monotonicity broke: {gs}")
        grids = [pms_dim(spec, 2, Fraction(1, 4), g=g) for g in (1, 2, 4)]
        if not all(a >= b for a, b in zip(grids, grids[1:])):
            failures.append(f"grid refinement raised the value: {grids}")

    # version-space mistake teams: small, pairwise distinct
    cvsp_games = [spec for _, spec, _ in list(mistake_bound_family())[::7]]
    cvsp_games.append(collision_game())
    for spec in cvsp_games:
        adv = CollisionAdversary(CollisionFamily()) if spec.n_labels == 64 else OptimalAdversary()
        t = play_game(spec, VersionSpacePruningLearner(), adv)
        teams = []
        H = spec.hypotheses
        for x, pred, y, m in zip(t.instances, t.predictions, t.reveals, t.sets):
            if (m >> pred) & 1:
                continue
            team = frozenset(h for h in range(H.size) if H.value(h, x) == y)
            teams.append(team)
            if len(team) > H.size // 2:
                failures.append(f"mistake team of size {len(team)} on n={H.size}")
        if len(set(teams)) != len(teams):
            failures.append("repeated mistake team in one transcript")

    # potential never exceeds the game value
    for spec in sample[:8]:
        cap = pfl_dim(spec, spec.horizon)
        lrn = PotentialMinimizingLearner()
        adv = OptimalAdversary()
        lrn.begin(spec)
        adv.begin(spec)
        for _ in range(spec.horizon):
            if lrn.current_potential() > cap:
                failures.append(f"potential above the game value {cap}")
            x = adv.choose_instance()
            y = adv.reveal(x, lrn.predict(x))
            lrn.observe(y)

    # selection procedure agrees with an independently written scan
    rng = random.Random(0)
    for trial in range(1000):
        n_labels = rng.randint(2, 4)
        all_masks = list(range(1, 1 << n_labels))
        rng.shuffle(all_masks)
        system = SetSystem.explicit(n_labels, sorted(all_masks[: rng.randint(1, len(all_masks))]))
        N = rng.randint(1, 5)
        measures = []
        for _ in range(N):
            cuts = sorted(rng.randint(0, 6) for _ in range(n_labels - 1))
            parts = [a - b for a, b in zip(cuts + [6], [0] + cuts)]
            measures.append(Measure(tuple(Fraction(p, 6) for p in parts)))
        thresholds = [Fraction(rng.randint(1, 11), 12) for _ in range(N)]
        got = msp(N, measures, thresholds, system)
        want = msp_reference(N, measures, thresholds, system)
        if got != want:
            failures.append(f"trial {trial}: selection {got} != reference {want}")
            break
    return _result(
        "property-suites",
        failures,
        "monotonicity, mistake-team, potential, and selection-scan properties held",
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
    ("property-suites", check_property_suites),
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

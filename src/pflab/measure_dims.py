"""Measure-valued analogues of the mistake dimensions, and the randomized value.

Here the learner's per-round move is an exact rational probability measure
drawn from the denominator-``g`` simplex grid rather than a single label.
Two payoffs share one recursion: the thresholded event count (a round counts
against a collection when the measure puts mass at most ``1 - gamma`` on the
collection's image, with a strict version at ``gamma = 0``) and the exact
expected miss mass. Values are exact for the grid, and an upper bound on
the unrestricted ones: restricting the learner to grid measures shrinks its
minimization, never the adversary's maximization.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import CollectionEngine
from .errors import SpecError, nonnegative
from .game import (
    GameSpec,
    Realizability,
    Visibility,
    build_admissible_collections,
    distinct_images,
)
from .measures import as_gamma
from .setsystems import SetSystem


def pms_dim(
    spec: GameSpec, T: int, gamma, g: int | None = None, budget: int | None = None
) -> int:
    """Largest thresholded-event count forceable in ``T`` rounds on the grid.

    Same game tree as the label-prediction value, but the learner's edges are
    the grid measures and a round counts against a surviving collection when
    the played measure gives its image mass at most ``1 - gamma`` (mass
    strictly below one when ``gamma`` is zero). The result is exact for the
    grid and an upper bound on the unrestricted value. This is
    :func:`ppms_dim` at the empty prefix.
    """
    return ppms_dim(spec, (), (), (), T, gamma, g=g, budget=budget)


def ppms_dim(
    spec: GameSpec,
    prefix_x,
    prefix_measures,
    prefix_reveals,
    d: int,
    gamma,
    g: int | None = None,
    budget: int | None = None,
) -> int:
    """Prefix-seeded variant of :func:`pms_dim`.

    Collections inconsistent with a prefix reveal are dropped; the survivors
    start charged with the prefix rounds whose played measure already
    triggered the ``gamma`` event against them. Prefix measures are taken as
    given exact measures and need not lie on the continuation grid. Partial
    feedback only, as for :func:`pflab.dimensions.ppfl_dim`.
    """
    gamma = as_gamma(gamma)
    nonnegative(d, "depth")
    spec.require_partial_feedback("the thresholded-event value")
    collections = distinct_images(build_admissible_collections(spec))
    engine = CollectionEngine(
        spec, collections, kind="measure", gamma=gamma, grid=g, budget=budget
    )
    return engine.value(*engine.prefix_state(prefix_x, prefix_measures, prefix_reveals), d)


def msp(N: int, measures, thresholds, system: SetSystem) -> int:
    """Measure selection: first stable index whose successor jumps, else ``N``.

    Scans ``m = 1 .. N-1`` (one-based) and returns the first ``m`` where the
    adjacent miss-mass deviations up through ``m`` all stay within twice
    their thresholds (vacuous at ``m = 1``) while the step from ``m`` to
    ``m + 1`` moves by at least twice ``thresholds[m-1]`` uniformly over the
    whole set system. Returns ``N`` when no index qualifies, in particular
    whenever all measures coincide. One pass: step ``m`` either qualifies,
    keeps stability for the next index, or breaks it for all later ones.
    """
    nonnegative(N, "N")
    if len(measures) != N or len(thresholds) != N:
        raise SpecError("msp needs exactly N measures and N thresholds")
    thr = [Fraction(t) for t in thresholds]
    for t in thr:
        if not 0 < t < 1:
            raise SpecError(f"thresholds must lie strictly in (0, 1), got {t}")
    members = system.members()
    miss = [[pi.miss_mass(s) for s in members] for pi in measures]
    for m in range(1, N):
        step = [abs(a - b) for a, b in zip(miss[m - 1], miss[m])]
        if min(step) >= 2 * thr[m - 1]:
            return m
        if max(step) > 2 * thr[m - 1]:
            # stability now fails for every later index
            return N
    return N


def minimax_rand_regret(
    spec: GameSpec, T: int, g: int | None = None, budget: int | None = None
) -> Fraction:
    """Exact minimax expected regret with grid-measure predictions.

    The learner announces a grid measure each round, the adversary answers
    with an instance and a feasible reveal, and the terminal payoff is the
    largest total miss mass accumulated by any surviving collection. Fully
    realizable oblivious games with partial feedback only, where that payoff
    is the regret itself.

    The engine scores loss in integer units of ``1/g``, where ``g`` is the
    grid resolution, so its value is ``g`` times the regret; the result is
    that value divided by ``g``, an exact ``Fraction``. States are memoized
    on (surviving collections, translation-normalized scores, rounds left);
    the reachable scores are finite at fixed ``g``, so this changes nothing
    about the value and is guarded by a node budget rather than an a-priori
    size formula.
    """
    if spec.realizability is not Realizability.SET_REALIZABLE:
        raise SpecError("the randomized minimax value requires full realizability")
    if spec.visibility is not Visibility.OBLIVIOUS:
        raise SpecError("the randomized minimax value is defined for oblivious games")
    nonnegative(T, "horizon")
    spec.require_partial_feedback("the randomized minimax value")
    collections = distinct_images(build_admissible_collections(spec))
    engine = CollectionEngine(spec, collections, kind="loss", grid=g, budget=budget)
    return Fraction(engine.value(*engine.initial_state(), T)) / engine.scale

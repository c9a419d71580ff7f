"""Learner strategies.

Every learner here is a pure function of the observation stream it has been
fed (plus fixed construction-time configuration), which the test suite checks
by replay. Deterministic learners answer labels; randomized learners answer
exact rational measures.
"""

from __future__ import annotations

from fractions import Fraction

from .engine import CollectionEngine
from .errors import EmptyConsistentSet, SpecError, plain_int, plain_ints
from .game import (
    Feedback,
    GameSpec,
    Learner,
    build_admissible_collections,
    build_strategy,
    distinct_images,
    fraction,
    int_list,
    integer,
)
from .measure_dims import msp
from .measures import Measure, as_gamma
from .setsystems import iter_bits, mask_of


def _halvings(N: int) -> list:
    """The thresholds 1/2, 1/4, ..., 1/2^N."""
    return [Fraction(1, 2 ** i) for i in range(1, N + 1)]


def _plurality_label(spec: GameSpec, x: int) -> int:
    """Label output by the most hypotheses at ``x``, lowest on ties."""
    H = spec.hypotheses
    if H.kind == "all_functions":
        # Every label is taken by exactly |Y|^(n-1) functions: all tied.
        return 0
    counts = [hs.bit_count() for hs in H.label_masks(x)]
    return counts.index(max(counts))


class _VersionSpaceLearner(Learner):
    """Plays from the collection version space through one or more engines.

    ``begin`` enumerates the admissible collections once, keeps one per image
    vector, and builds the engines from :meth:`_engines_for`. Each engine
    holds one ``(base, levels)`` state in ``_states``: the same alive
    collections (those consistent with the reveals so far), with that
    engine's scores. ``predict`` must store ``(x, edge index)`` in
    ``_pending``.
    """

    def begin(self, spec: GameSpec) -> None:
        self._spec = spec
        self._engines = self._engines_for(
            spec, distinct_images(build_admissible_collections(spec))
        )
        self._states = [eng.initial_state() for eng in self._engines]
        self._round = 0
        self._pending = None

    def _engines_for(self, spec: GameSpec, collections) -> list:
        raise NotImplementedError

    def _child_depth(self) -> int:
        return max(self._spec.horizon - self._round - 1, 0)

    def observe(self, y: int) -> None:
        self._advance(CollectionEngine.update, y)

    def observe_set(self, mask: int) -> None:
        raise SpecError("this strategy consumes label reveals, not revealed sets")

    def _advance(self, rule, revealed) -> None:
        """Move every engine's state by ``rule`` (an engine update method).

        ``rule`` raises :class:`EmptyConsistentSet` when no collection survives.
        """
        x, edge = self._pending
        self._states = [
            rule(eng, *state, x, edge, revealed)
            for eng, state in zip(self._engines, self._states)
        ]
        self._round += 1


class VersionSpacePruningLearner(_VersionSpaceLearner):
    """Keeps the surviving admissible collections; predicts commonly-valid labels.

    Predicts a label lying in every surviving collection's image at the shown
    instance when one exists (lowest such label), else the plurality label
    over the whole hypothesis class. Each reveal prunes the survivors to the
    collections whose image contains it; a revealed set, to the collections
    whose image is exactly that set.

    Two interchangeable representations: the explicit mode plays on one label
    engine's version space (:class:`_VersionSpaceLearner`); the implicit
    mode, used when the set system is the bounded family of all nonempty
    sets up to size K with K at least the horizon, never materializes the
    collections, as that family can be too large to enumerate. In that
    regime a collection survives iff it covers every reveal so far, so the
    commonly-valid labels at x are exactly the values forced by some reveal
    whose entire realizer set (a :meth:`HypothesisClass.label_masks` entry)
    agrees at x. The realizer tuple starts with the whole class, whose
    agreement at x is forced before any reveal.
    """

    def _engines_for(self, spec: GameSpec, collections) -> list:
        return [CollectionEngine(spec, collections, kind="label")]

    def begin(self, spec: GameSpec) -> None:
        system = spec.set_system
        # The covering characterization behind the implicit mode is sound for
        # label reveals only; full-set reveals pin images exactly, which the
        # implicit state cannot express, so set-valued games enumerate.
        self._implicit = (
            system.kind == "bounded"
            and system.max_size >= spec.horizon
            and spec.feedback is not Feedback.SET_VALUED
        )
        if not self._implicit:
            super().begin(spec)
            return
        self._spec = spec
        self._pending = None
        self._reveals = ()
        if spec.hypotheses.kind == "explicit":
            self._realizers = ((1 << spec.hypotheses.size) - 1,)

    # -- prediction -------------------------------------------------------

    def predict(self, x: int):
        common = self._common(x)
        label = min(iter_bits(common)) if common else _plurality_label(self._spec, x)
        self._pending = (x, label)
        return label

    def _common(self, x: int) -> int:
        """Mask of the labels every surviving collection has at ``x``."""
        if not self._implicit:
            return self._engines[0].common(*self._states[0], x)
        if self._spec.hypotheses.kind == "all_functions":
            return mask_of(yk for xk, yk in self._reveals if xk == x)
        masks = self._spec.hypotheses.label_masks(x)
        return mask_of(y for r in self._realizers for y, hs in enumerate(masks) if r & hs == r)

    # -- observations -----------------------------------------------------

    def observe(self, y: int) -> None:
        if not self._implicit:
            super().observe(y)
            return
        x = self._pending[0]
        H = self._spec.hypotheses
        if H.kind == "all_functions":
            self._reveals += ((x, y),)
            return
        realizers = H.label_masks(x)[y]
        if not realizers:
            raise EmptyConsistentSet(
                f"no hypothesis outputs the revealed label {y} at instance {x}"
            )
        self._realizers += (realizers,)

    def observe_set(self, mask: int) -> None:
        # Only set-valued play reveals sets, and it always enumerates.
        self._advance(CollectionEngine.update_set, mask)


class PotentialMinimizingLearner(_VersionSpaceLearner):
    """Predicts the label minimizing the worst continuation value.

    At each round, for every candidate label, takes the worst over feasible
    reveals of the exact game value from the updated state, and predicts the
    argmin (lowest label on ties). Guarantees at most the depth-T game value
    in total mistakes. The values come from the engine's one search, which
    :meth:`current_potential` shares, so a prediction reads the bounds the
    potential stored. A positive budget (by default ``PFLAB_BUDGET_STATES``)
    bounds that search: past it the prediction raises
    :class:`BudgetExceeded`, so no budget changes play. A budget of zero
    plays the bound-guided rule instead: the argmin of
    :meth:`CollectionEngine.edge_worst_bounds` (max surviving score plus
    remaining depth), which runs no search and keeps large games affordable.
    """

    def __init__(self, potential_budget: int | None = None):
        self._budget = potential_budget

    def _engines_for(self, spec: GameSpec, collections) -> list:
        return [CollectionEngine(spec, collections, kind="label", budget=self._budget)]

    def predict(self, x: int) -> int:
        eng = self._engines[0]
        table = eng.edge_worst_bounds if self._budget == 0 else eng.edge_worst_values
        values = table(*self._states[0], x, self._child_depth())
        yhat = values.index(min(values))
        self._pending = (x, yhat)
        return yhat

    def current_potential(self) -> int:
        """Exact game value of the current state over the remaining rounds."""
        depth = max(self._spec.horizon - self._round, 0)
        return self._engines[0].value(*self._states[0], depth)


class MultiScaleMeasureLearner(_VersionSpaceLearner):
    """Runs one fixed-scale scorer per threshold and arbitrates with msp.

    Scale i uses threshold 1/2^i for i = 1..N, where N defaults to the bit
    length of T - 1 plus one at the spec's horizon T. All scales share one
    version space and the history of actually-played measures; they differ
    only in how rounds are thresholded into events. Each round every scale
    proposes its measure and the selection procedure picks which proposal is
    played.
    """

    mode = "randomized"

    def __init__(self, N: int | None = None, g: int | None = None):
        if N is not None:
            plain_int(N, 1, None, SpecError, "scale count must be positive, got {value!r}")
        self._thresholds = None if N is None else _halvings(N)
        self._grid = g

    def _engines_for(self, spec: GameSpec, collections) -> list:
        self._gammas = self._thresholds or _halvings((spec.horizon - 1).bit_length() + 1)
        return [
            CollectionEngine(spec, collections, kind="measure", gamma=gm, grid=self._grid)
            for gm in self._gammas
        ]

    def predict(self, x: int) -> Measure:
        child_depth = self._child_depth()
        proposals = [
            eng.best_edge(*state, x, child_depth)
            for eng, state in zip(self._engines, self._states)
        ]
        edges = self._engines[0].edges
        N = len(proposals)
        # msp needs two scales to compare, and rejects the thresholds 0 and 1
        # that a single fixed scale may use.
        m = 1 if N == 1 else msp(N, [edges[e] for e in proposals], self._gammas,
                                 self._spec.set_system)
        edge = proposals[m - 1]
        self._pending = (x, edge)
        return edges[edge]


class FixedScaleMeasureLearner(MultiScaleMeasureLearner):
    """Plays the grid measure minimizing the worst thresholded continuation.

    The candidate measures are scanned in the grid's canonical order and the
    first minimizer wins. Event counts accumulate against the measures this
    learner actually played, at the configured threshold: this is the
    multi-scale learner with the single scale ``gamma``.
    """

    def __init__(self, gamma, g: int | None = None):
        super().__init__(g=g)
        self._thresholds = [as_gamma(gamma)]


class TransversalIntersectionLearner(Learner):
    """Round one: uniform over a transversal; then commit to an intersection label.

    After the first reveal, intersects every system set containing it, meets
    that with the transversal, and plays the delta on the lowest surviving
    label forever. An empty meet is reported on the ``empty_intersection``
    attribute and the strategy falls back to the uniform transversal measure.
    """

    mode = "randomized"

    def __init__(self, transversal):
        labels = sorted(set(transversal))
        if not labels:
            raise SpecError("transversal must be nonempty")
        self._transversal = labels

    def begin(self, spec: GameSpec) -> None:
        self._spec = spec
        plain_ints(
            self._transversal, 0, spec.n_labels, SpecError, "transversal label {value} out of range"
        )
        self._committed = None
        self._seen_first = False
        self.empty_intersection = False

    def predict(self, x: int) -> Measure:
        if self._committed is not None:
            return Measure.delta(self._spec.n_labels, self._committed)
        return Measure.uniform_over(self._spec.n_labels, self._transversal)

    def observe(self, y: int) -> None:
        if self._seen_first:
            return
        self._seen_first = True
        system = self._spec.set_system
        meet = (1 << self._spec.n_labels) - 1
        for smask in system.members():
            if (smask >> y) & 1:
                meet &= smask
        pool = [v for v in self._transversal if (meet >> v) & 1]
        if pool:
            self._committed = pool[0]
        else:
            self.empty_intersection = True


class UniformPrefixLearner(Learner):
    """Always plays the uniform measure over the first ``T`` labels.

    ``T`` defaults to the spec's horizon.
    """

    mode = "randomized"

    def __init__(self, T: int | None = None):
        if T is not None:
            plain_int(T, 1, None, SpecError, "label count must be positive, got {value!r}")
        self._T = T

    def begin(self, spec: GameSpec) -> None:
        T = spec.horizon if self._T is None else self._T
        if T > spec.n_labels:
            raise SpecError(
                f"uniform learner over {T} labels does not fit a "
                f"{spec.n_labels}-label spec"
            )
        self._measure = Measure.uniform_over(spec.n_labels, range(T))

    def predict(self, x: int) -> Measure:
        return self._measure

    def fork(self) -> "UniformPrefixLearner":
        # Nothing changes after ``begin``, so a fork may share this object.
        return self


class ConstantLearner(Learner):
    """Predicts one fixed label every round."""

    def __init__(self, label: int):
        self._label = label

    def begin(self, spec: GameSpec) -> None:
        plain_int(self._label, 0, spec.n_labels, SpecError, "constant label {value} out of range")

    def predict(self, x: int) -> int:
        return self._label


class ScriptedLearner(Learner):
    """Plays a fixed prediction sequence, one entry per round."""

    def __init__(self, labels):
        self._labels = list(labels)

    def begin(self, spec: GameSpec) -> None:
        self._i = 0

    def predict(self, x: int) -> int:
        if self._i == len(self._labels):
            raise SpecError(f"scripted learner ran out of its {len(self._labels)} labels")
        y = self._labels[self._i]
        self._i += 1
        return y


class FirstSetReadingLearner(Learner):
    """Under set-valued feedback: echo the lowest label of the first revealed set.

    Predicts a fixed fallback label until the first set arrives, then locks
    onto that set's lowest label for every later round.
    """

    def __init__(self, fallback: int = 0):
        self._fallback = fallback

    def begin(self, spec: GameSpec) -> None:
        self._locked = None

    def predict(self, x: int) -> int:
        if self._locked is not None:
            return self._locked
        return self._fallback

    def observe_set(self, mask: int) -> None:
        if self._locked is None:
            self._locked = min(iter_bits(mask))


# Each learner's builder, by registry name: it reads its parameters with ``param``.
BUILDERS = {
    "cvsp": lambda param: VersionSpacePruningLearner(),
    "dpfla": lambda param: PotentialMinimizingLearner(
        potential_budget=param("budget", integer, None)
    ),
    "frpfl": lambda param: FixedScaleMeasureLearner(
        param("gamma", fraction), g=param("g", integer, None)
    ),
    "mrpfl": lambda param: MultiScaleMeasureLearner(
        N=param("N", integer, None), g=param("g", integer, None)
    ),
    "helly_intersection": lambda param: TransversalIntersectionLearner(
        param("transversal", int_list)
    ),
    "uniform_cube": lambda param: UniformPrefixLearner(param("T", integer, None)),
    "constant": lambda param: ConstantLearner(param("label", integer, 0)),
    "scripted": lambda param: ScriptedLearner(param("labels", int_list)),
    "first_round_read": lambda param: FirstSetReadingLearner(param("fallback", integer, 0)),
}


def make_learner(name: str, params: dict) -> Learner:
    """Instantiate a learner by registry name with config-file parameters."""
    return build_strategy("learner", BUILDERS, name, params)

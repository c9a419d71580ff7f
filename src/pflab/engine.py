"""Memoized backward induction over collection states.

One engine serves every minimax quantity in the package. A state is a set of
still-alive collections together with a per-collection score, plus a number of
rounds remaining. Each round the adversary picks an instance, the learner
picks an edge (a label, or a measure from a fixed grid), and the adversary
reveals a feasible label: feasible means some alive collection contains it in
its image at that instance. The reveal kills every collection whose image
misses it, the edge adds each surviving collection's increment to its score,
and at the end of play the adversary collects the maximum score among
survivors. The engine computes the exact minimax value of that game, and can
also report argmax/argmin choices so strategies can play optimally.

The engine is the one owner of these states, the collection version space:
no strategy scans the alive collections' images itself. Strategies that play
from the version space hold an ``(alive, scores)`` state, read it through
:meth:`CollectionEngine.feasible` and :meth:`CollectionEngine.common` (the
labels some, or every, alive image holds at an instance) and move it with
:meth:`CollectionEngine.update` on a revealed label or
:meth:`CollectionEngine.update_set` on a revealed set.

Three scoring kinds:

* ``label``: edges are labels, a collection's increment is 1 when the
  predicted label is outside its image (the deterministic mistake game);
* ``measure``: edges are grid measures, the increment is 1 when the measure
  puts at most ``1 - gamma`` mass on the image (strictly below 1 when
  ``gamma`` is 0), else 0;
* ``loss``: edges are grid measures, the increment is the exact mass placed
  outside the image.

Scores are integers on the grid. A grid measure is kept as its count tuple
``c`` (weights ``c[y] / g``, see :func:`pflab.measures.grid_counts`), so
every increment is an integer: with ``c(image)`` the counts on the image and
``gamma = p/q``, the measure kind's event test ``c(image) / g <= 1 - p/q``
reads ``c(image) * q <= g * (q - p)`` (``c(image) < g`` when ``gamma`` is 0),
and the loss kind counts in units of ``1/g``, so a collection's loss
increment is ``g - c(image)``. The engine's
``scale`` is the size of one round's full charge in these units: ``g`` for
the loss kind and 1 for the others. Scores, values and value tables of the
loss kind are therefore ``g`` times the true expected loss; callers divide
by ``scale`` at the API boundary (:func:`pflab.measure_dims.minimax_rand_regret`).
A prefix measure off the grid (:meth:`CollectionEngine.prefix_state`) charges
an exact ``Fraction`` in the same units; the recursion adds, compares and
subtracts it like an integer, so such states are solved exactly too.

States live in two forms. At the API boundary a state is the pair
``(alive, scores)``: the ids of the alive collections in ascending order and
one score per id. Strategies hold this form, and the version-space methods
(``feasible``, ``common``, ``update``, ``update_set``) read and move it
directly, in one pass over the alive ids. Inside the recursion a state is a
sorted tuple of *levels* ``(relative score, mask)``: ``mask`` has bit ``cid``
set for every alive collection at that score, the first level's score is 0
and no mask is empty. Each entry point of the recursion (``value``,
``best_instance``, ``edge_worst_values``, ``best_edge``, ``best_reveal``)
converts its boundary state to levels once. The levels are sparse, so they
hold the loss kind's charges and off-grid ``Fraction`` scores as they hold
the label kind's 0/1 counts.

On its first visit to an instance ``x`` the recursion groups the
collections by their image at ``x``: one ``(image, mask)`` pair per distinct
image. For each distinct image the engine caches an increment table: one
integer per edge, in edge order. A step of the recursion then works on
masks:

* the reveal classes at ``x`` are the distinct nonzero survivor masks, one
  per label ``y`` in ascending order: the OR of the alive parts of the
  groups whose image holds ``y``;
* the edge classes at ``x`` are the edges with distinct increments over the
  alive groups, lowest edge first, each with one ``(increment, mask)`` pair
  per increment value; they are cached per instance and set of alive
  groups;
* a child ORs ``mask & survivors & increment mask`` of each level into the
  level at ``score + increment``, then subtracts the lowest score.

``Measure`` objects for the edges are built only when a caller reads
:attr:`CollectionEngine.edges`.

Soundness of the speedups, all of which preserve exact values:

* the value is at least the top level's score (the adversary can always
  reveal inside the image of a collection on that level, keeping it alive)
  and at most that plus ``scale`` per round remaining (no round adds more to
  any score), so the min loop can stop at the lower bound and the max loops
  at the upper;
* if at every instance the images of the alive groups share a label, the
  learner can play that label (or its point mass) forever at zero
  increment, so the value equals the lower bound exactly; this test is
  cached per alive mask, and a child that passes it, or has no rounds left,
  is valued by its top score without building its levels;
* edges with equal increments over the alive groups induce identical
  subtrees, as do reveals with equal survivor masks, so only one
  representative of each class is explored; both class lists depend only
  on the instance and the alive mask, so they are cached per pair and
  shared by every state with that alive set;
* scores translate: adding a constant to every score adds it to the value, so
  levels hold scores relative to their minimum, and the memo is keyed on
  ``(rounds, levels)``, which determines the alive set with its relative
  scores and is determined by them;
* collections with equal image vectors are interchangeable: they start with
  equal scores, survive every reveal together and take the same increment on
  every edge, so dropping all but one of them changes no value, choice or
  expanded-state count. Callers may therefore pass one collection per image
  vector (``game.distinct_images``); the engine itself keeps every
  collection it is given, so alive ids index the caller's list.

Each round nests three Python frames of the recursion. A horizon deep
enough to exhaust Python's recursion limit is reported by every entry point
of the recursion as :class:`BudgetExceeded` naming the depth.
"""

from __future__ import annotations

import functools
import operator
from contextlib import contextmanager
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceeded, EmptyConsistentSet, SpecError, env_budget
from .game import Collection, GameSpec
from .measures import Measure, grid_counts, measure_grid
from .setsystems import iter_bits

_INF = float("inf")


def states_budget() -> int:
    return env_budget("PFLAB_BUDGET_STATES", 50_000_000)


def rand_budget() -> int:
    return env_budget("PFLAB_BUDGET_RAND", 10_000_000)


@contextmanager
def _depth_guard(rounds: int):
    """Report a recursion deeper than Python's stack allows as a budget rejection."""
    try:
        yield
    except RecursionError:
        raise BudgetExceeded(
            f"minimax recursion over {rounds} rounds exceeds Python's recursion limit"
        ) from None


class CollectionEngine:
    """Exact minimax over collection states for one (spec, kind, gamma, grid)."""

    def __init__(
        self,
        spec: GameSpec,
        collections: Sequence[Collection],
        kind: str = "label",
        gamma: Fraction | None = None,
        grid: int | None = None,
        budget: int | None = None,
    ):
        if kind not in ("label", "measure", "loss"):
            raise ValueError(f"unknown engine kind {kind!r}")
        self.spec = spec
        self.collections = list(collections)
        self.kind = kind
        self.gamma = Fraction(gamma) if gamma is not None else None
        if kind == "measure" and self.gamma is None:
            raise ValueError("measure kind needs gamma")
        self.images = [c.images for c in self.collections]
        if kind == "label":
            self.g = None
            self._edges: list | None = list(range(spec.n_labels))
            self.n_edges = spec.n_labels
        else:
            self.g = grid if grid is not None else spec.measure_grid
            self._edges = None
            counts = grid_counts(spec.n_labels, self.g)
            self.n_edges = len(counts)
            # The grid's count tuples, transposed: one column of counts per label.
            self._columns = tuple(zip(*counts))
        self.scale = self.g if kind == "loss" else 1
        if budget is None:
            budget = rand_budget() if kind == "loss" else states_budget()
        if budget < 0:
            raise SpecError(f"budget must be nonnegative, got {budget}")
        self.budget = budget
        self.nodes = 0
        self._memo: dict = {}
        self._tables: dict = {}
        self._settled_cache: dict = {}
        self._moves_cache: dict = {}
        self._edge_cache: dict = {}
        self._group_cache: list = [None] * spec.n_instances

    @property
    def edges(self) -> list:
        """The learner's moves in edge order: labels, or grid measures.

        Grid measures are built on the first read; the recursion itself
        works on their count tuples only.
        """
        if self._edges is None:
            self._edges = measure_grid(self.spec.n_labels, self.g)
        return self._edges

    # -- increments ---------------------------------------------------------

    def _table(self, image_mask: int) -> tuple:
        """Increments of a collection with this image under every edge, in edge order."""
        hit = self._tables.get(image_mask)
        if hit is not None:
            return hit
        if self.kind == "label":
            hit = tuple(1 - ((image_mask >> y) & 1) for y in range(self.spec.n_labels))
        else:
            # Grid mass on the image, in counts, for every edge at once.
            inside = map(sum, zip(*(self._columns[y] for y in iter_bits(image_mask))))
            g = self.g
            if self.kind == "loss":
                hit = tuple(g - c for c in inside)
            elif self.gamma == 0:
                hit = tuple(int(c < g) for c in inside)
            else:
                p, q = self.gamma.numerator, self.gamma.denominator
                hit = tuple(int(c * q <= g * (q - p)) for c in inside)
        self._tables[image_mask] = hit
        return hit

    def _charge(self, move, image_mask: int):
        """Increment, in engine units, for a prefix label or exact prefix measure."""
        if self.kind == "label":
            return 0 if (image_mask >> move) & 1 else 1
        mass = move.mass(image_mask)
        if self.kind == "loss":
            loss = (1 - mass) * self.g
            return loss.numerator if loss.denominator == 1 else loss
        if self.gamma == 0:
            return 1 if mass < 1 else 0
        return 1 if mass <= 1 - self.gamma else 0

    def _groups(self, x: int) -> tuple:
        """One ``(image, mask)`` pair per distinct image at ``x``, built on first use.

        ``mask`` has bit ``cid`` set for every collection with that image at ``x``.
        """
        hit = self._group_cache[x]
        if hit is None:
            by_image: dict = {}
            for cid, images in enumerate(self.images):
                by_image[images[x]] = by_image.get(images[x], 0) | (1 << cid)
            hit = self._group_cache[x] = tuple(by_image.items())
        return hit

    # -- state helpers ------------------------------------------------------

    def initial_state(self):
        """All collections alive with zero scores: the state of an empty prefix."""
        return self.prefix_state((), (), ())

    def prefix_state(self, prefix_x, prefix_moves, prefix_reveals):
        """State after a played prefix of instances, moves and reveals.

        Only collections whose image contains every prefix reveal stay alive;
        each starts charged with its prefix rounds, by the per-kind rule the
        increment tables apply, in engine units. Moves are labels for the
        label kind and exact measures otherwise; prefix measures need not lie
        on the grid, and a loss-kind charge off the grid stays a ``Fraction``.
        Raises :class:`SpecError` on ragged lists or out-of-range instances,
        labels or measures, and :class:`EmptyConsistentSet` when no
        collection survives the reveals.
        """
        if not len(prefix_x) == len(prefix_moves) == len(prefix_reveals):
            raise SpecError("prefix lists must have equal length")
        spec = self.spec
        for x in prefix_x:
            if not isinstance(x, int) or not 0 <= x < spec.n_instances:
                raise SpecError(f"prefix instance {x!r} outside range({spec.n_instances})")
        labels = tuple(prefix_reveals)
        if self.kind == "label":
            labels = tuple(prefix_moves) + labels
        else:
            for pi in prefix_moves:
                if not isinstance(pi, Measure):
                    raise SpecError("prefix measures must be Measure objects")
                if pi.n_labels != spec.n_labels:
                    raise SpecError(
                        f"prefix measure over {pi.n_labels} labels does not fit a "
                        f"{spec.n_labels}-label spec"
                    )
        for y in labels:
            if not isinstance(y, int) or not 0 <= y < spec.n_labels:
                raise SpecError(f"prefix label {y!r} outside range({spec.n_labels})")
        alive = []
        scores = []
        for cid, images in enumerate(self.images):
            if all((images[x] >> y) & 1 for x, y in zip(prefix_x, prefix_reveals)):
                score = 0
                for x, move in zip(prefix_x, prefix_moves):
                    score += self._charge(move, images[x])
                alive.append(cid)
                scores.append(score)
        if not alive:
            raise EmptyConsistentSet("no collection is consistent with the prefix reveals")
        return tuple(alive), tuple(scores)

    def feasible(self, alive: tuple, x: int) -> int:
        """Labels some alive collection's image at ``x`` contains: the OR of the images."""
        mask = 0
        for cid in alive:
            mask |= self.images[cid][x]
        return mask

    def common(self, alive: tuple, x: int) -> int:
        """Labels every alive collection's image at ``x`` contains: the AND of the images."""
        mask = (1 << self.spec.n_labels) - 1
        for cid in alive:
            mask &= self.images[cid][x]
            if not mask:
                break
        return mask

    def update(self, alive: tuple, scores: tuple, x: int, edge_index: int, y: int):
        """Survivors of revealing ``y`` after playing edge ``edge_index`` at ``x``."""
        new_alive = []
        new_scores = []
        for cid, s in zip(alive, scores):
            img = self.images[cid][x]
            if (img >> y) & 1:
                new_alive.append(cid)
                new_scores.append(s + self._table(img)[edge_index])
        return tuple(new_alive), tuple(new_scores)

    def update_set(self, alive: tuple, scores: tuple, x: int, edge_index: int, mask: int):
        """Survivors of revealing the whole set ``mask`` after edge ``edge_index`` at ``x``.

        A revealed set pins the image: only collections whose image at ``x``
        is exactly ``mask`` survive, charged as :meth:`update` charges them.
        """
        new_alive = []
        new_scores = []
        for cid, s in zip(alive, scores):
            if self.images[cid][x] == mask:
                new_alive.append(cid)
                new_scores.append(s + self._table(mask)[edge_index])
        return tuple(new_alive), tuple(new_scores)

    # -- the recursion on levels ------------------------------------------------

    def _alive_groups(self, alive: int, x: int) -> list:
        """``(increment table, mask)`` of every image group at ``x`` with an alive member."""
        return [(self._table(image), mask) for image, mask in self._groups(x) if mask & alive]

    def _reveals(self, alive: int, x: int) -> list:
        """One ``(lowest y, survivor mask)`` pair per distinct survivor set at ``x``.

        Every feasible reveal whose survivors coincide induces the same child
        under every edge, so the classes are listed once, in ascending ``y``.
        """
        holds = [0] * self.spec.n_labels
        for image, mask in self._groups(x):
            mask &= alive
            if mask:
                for y in iter_bits(image):
                    holds[y] |= mask
        out = []
        for y, keep in enumerate(holds):
            if keep and all(keep != k for _, k in out):
                out.append((y, keep))
        return out

    def _edge_classes(self, alive: int, x: int) -> list:
        """The ``(increment, mask)`` pairs of one edge per distinct increment vector.

        Increment vectors are taken over the alive image groups at ``x``, and
        the classes are listed by their lowest edge, in edge order. Cached per
        instance and set of alive groups.
        """
        groups = self._groups(x)
        key = (x, tuple(i for i, (_, mask) in enumerate(groups) if mask & alive))
        hit = self._edge_cache.get(key)
        if hit is None:
            alive_groups = self._alive_groups(alive, x)
            seen = set()
            hit = []
            for edge, inc in enumerate(zip(*(table for table, _ in alive_groups))):
                if inc not in seen:
                    seen.add(inc)
                    hit.append(_by_value(alive_groups, edge))
            self._edge_cache[key] = hit
        return hit

    def _moves(self, alive: int, x: int) -> tuple:
        """``(reveal classes, edge classes)`` at ``x``, cached per instance and alive mask."""
        hit = self._moves_cache.get((x, alive))
        if hit is None:
            hit = self._moves_cache[(x, alive)] = (
                self._reveals(alive, x),
                self._edge_classes(alive, x),
            )
        return hit

    def _settled(self, alive: int) -> bool:
        """True when at every instance some label lies in every alive image."""
        hit = self._settled_cache.get(alive)
        if hit is None:
            hit = all(
                functools.reduce(
                    operator.and_, (image for image, mask in self._groups(x) if mask & alive)
                )
                for x in range(self.spec.n_instances)
            )
            self._settled_cache[alive] = hit
        return hit

    def _value(self, levels: tuple, alive: int, rounds: int):
        """Value of a levels state with alive mask ``alive``, relative to its lowest score."""
        lb = levels[-1][0]
        if rounds == 0 or self._settled(alive):
            return lb
        key = (rounds, levels)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(
                f"minimax recursion exceeded {self.budget} expanded states",
                spent=self.nodes,
                budget=self.budget,
            )
        ub = lb + rounds * self.scale
        best = lb
        for x in range(self.spec.n_instances):
            v = self._instance_value(levels, alive, x, rounds - 1, cutoff=best)
            if v > best:
                best = v
                if best >= ub:
                    break
        self._memo[key] = best
        return best

    def _instance_value(self, levels, alive, x, child_depth, cutoff=None):
        """min over edges of (max over feasible reveals) of the child value.

        ``cutoff`` is purely an optimization contract with ``_value``: the
        caller only needs the result when it exceeds the cutoff, so edge
        evaluation may stop early once an edge is proven no better than it.
        The returned value is exact whenever it exceeds the cutoff.
        """
        lb = levels[-1][0]
        reveals, edges = self._moves(alive, x)
        best_edge = None
        for inc in edges:
            worst, _ = self._edge_worst(
                levels, inc, reveals, child_depth,
                stop_at=best_edge if best_edge is not None else _INF,
            )
            if best_edge is None or worst < best_edge:
                best_edge = worst
                if best_edge <= lb:
                    break
                if cutoff is not None and best_edge <= cutoff:
                    break
        return best_edge

    def _edge_worst(self, levels, inc, reveals, child_depth, stop_at=_INF, on_budget=None):
        """``(max child value, lowest y reaching it)`` over reveal classes, for one edge.

        ``inc`` holds the edge's ``(increment, mask)`` pairs. The scan stops
        once the max reaches ``stop_at``. With ``on_budget="bound"`` a child
        whose recursion exceeds the budget is scored by its top score plus
        ``child_depth * scale`` and the other children stay exact; otherwise
        :class:`BudgetExceeded` propagates.
        """
        worst, worst_y = None, None
        for y, keep in reveals:
            if child_depth == 0 or self._settled(keep):
                # The child's value is its top score: no need to build it.
                v = _top(levels, keep, inc)
            else:
                base, child = _child(levels, keep, inc)
                try:
                    v = base + self._value(child, keep, child_depth)
                except BudgetExceeded:
                    if on_budget != "bound":
                        raise
                    v = base + child[-1][0] + child_depth * self.scale
            if worst is None or v > worst:
                worst, worst_y = v, y
                if worst >= stop_at:
                    break
        return worst, worst_y

    # -- entry points on boundary states -----------------------------------------

    def value(self, alive: tuple, scores: tuple, rounds: int):
        """Exact minimax value of ``(alive, scores)`` over ``rounds`` more rounds."""
        base, levels, mask = _levels(alive, scores)
        with _depth_guard(rounds):
            return base + self._value(levels, mask, rounds)

    def best_instance(self, alive: tuple, scores: tuple, rounds: int) -> int:
        """Lowest instance achieving the state's value (adversary's move)."""
        _, levels, mask = _levels(alive, scores)
        best_x, best_v = 0, None
        with _depth_guard(rounds):
            for x in range(self.spec.n_instances):
                v = self._instance_value(levels, mask, x, rounds - 1)
                if best_v is None or v > best_v:
                    best_x, best_v = x, v
        return best_x

    def edge_worst_values(self, alive, scores, x, child_depth, on_budget=None):
        """Worst-case child value for every edge, in edge order.

        The table is exact unless ``on_budget="bound"``, which plays one of
        two deterministic rules:

        - per child, while the engine budget is not spent on entry: settled
          and memoized children are scored exactly, and a child whose
          recursion blows the budget gets the trivial upper bound (its top
          score plus ``scale`` per remaining round);
        - the no-recursion bound scan, once the budget is spent on entry. It
          charges every reveal class the full ``child_depth * scale``, so its
          table is looser than the per-child one, not the same table found
          faster.

        dpfla with ``budget: 0`` plays the bound scan every round; with a
        positive budget it plays the per-child rule until the budget is spent
        and the bound scan from then on.
        """
        base, levels, mask = _levels(alive, scores)
        reveals = self._reveals(mask, x)
        if on_budget == "bound" and self.nodes >= self.budget:
            return self._edge_worst_bounds(base, levels, x, reveals, child_depth)
        groups = self._alive_groups(mask, x)
        with _depth_guard(child_depth):
            return [
                base + self._edge_worst(
                    levels, _by_value(groups, edge), reveals, child_depth, on_budget=on_budget
                )[0]
                for edge in range(self.n_edges)
            ]

    def _edge_worst_bounds(self, base, levels, x, reveals, child_depth):
        """Upper-bound table for every edge without any value recursion.

        For each reveal class only the top surviving score per image matters
        for the bound, so survivors are collapsed to one ``(increment table,
        top score)`` pair per image once and every edge is scored against
        those pairs.
        """
        classes = [
            [
                (table, max(s for s, level in levels if level & group & keep))
                for table, group in self._alive_groups(keep, x)
            ]
            for _, keep in reveals
        ]
        return [
            base
            + max(
                (max(s + table[edge] for table, s in pairs) for pairs in classes),
                default=levels[-1][0],
            )
            + child_depth * self.scale
            for edge in range(self.n_edges)
        ]

    def best_edge(self, alive, scores, x, child_depth, on_budget=None):
        """Lowest-index edge minimizing the worst-case child value.

        ``on_budget`` is passed to :meth:`edge_worst_values`.
        """
        values = self.edge_worst_values(alive, scores, x, child_depth, on_budget=on_budget)
        return values.index(min(values))

    def best_reveal(self, alive, scores, x, edge_index, child_depth) -> int:
        """Lowest feasible reveal maximizing the child value (adversary's move).

        Every reveal in a class yields the same child, so the lowest ``y`` of
        the first best class is the lowest maximizing reveal.
        """
        _, levels, mask = _levels(alive, scores)
        inc = _by_value(self._alive_groups(mask, x), edge_index)
        with _depth_guard(child_depth):
            return self._edge_worst(levels, inc, self._reveals(mask, x), child_depth)[1]


def _levels(alive, scores):
    """``(lowest score, levels, alive mask)`` of a boundary ``(alive, scores)`` state."""
    by_score: dict = {}
    for cid, s in zip(alive, scores):
        by_score[s] = by_score.get(s, 0) | (1 << cid)
    base = min(by_score)
    levels = tuple(sorted((s - base, mask) for s, mask in by_score.items()))
    return base, levels, sum(by_score.values())


def _by_value(groups, edge: int) -> tuple:
    """``(increment, mask)`` pairs of one edge over ``(increment table, mask)`` groups."""
    out: dict = {}
    for table, mask in groups:
        v = table[edge]
        out[v] = out.get(v, 0) | mask
    return tuple(out.items())


def _top(levels, keep: int, inc):
    """Top score of the child :func:`_child` would build, without building it."""
    top = None
    for s, mask in levels:
        mask &= keep
        if mask:
            for v, group in inc:
                if mask & group and (top is None or s + v > top):
                    top = s + v
    return top


def _child(levels, keep: int, inc) -> tuple:
    """``(lowest score, levels)`` of the survivors ``keep`` after charging ``inc``.

    Scores are relative to the parent's levels; ``keep`` must meet them.
    """
    out: dict = {}
    for s, mask in levels:
        mask &= keep
        if mask:
            for v, group in inc:
                hit = mask & group
                if hit:
                    t = s + v
                    out[t] = out.get(t, 0) | hit
    base = min(out)
    if base:
        return base, tuple(sorted((t - base, mask) for t, mask in out.items()))
    return base, tuple(sorted(out.items()))

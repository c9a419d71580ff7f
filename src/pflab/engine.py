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
from the version space hold a ``(base, levels)`` state, read it through
:meth:`CollectionEngine.feasible` and :meth:`CollectionEngine.common` (the
labels some, or every, alive image holds at an instance) and move it with
:meth:`CollectionEngine.update` on a revealed label or
:meth:`CollectionEngine.update_set` on a revealed set.

Every edge is a measure on a grid of resolution ``g``, given by its counts
``c`` (weights ``c[y] / g``, see :func:`pflab.measures.grid_words`), and
a collection's increment depends only on the count ``c(image)`` the edge
puts on its image. Two charge rules give it:

* ``loss``: the mass placed outside the image, in units of ``1/g``, so the
  increment is ``g - c(image)``;
* ``measure``: 1 when the measure puts at most ``1 - gamma`` mass on the
  image (strictly below 1 when ``gamma`` is 0), else 0. With ``gamma =
  p/q`` the test ``c(image) / g <= 1 - p/q`` reads ``c(image) * q <= g *
  (q - p)``, and ``c(image) < g`` when ``gamma`` is 0.

The ``label`` kind (the deterministic mistake game) is the loss kind on
the grid of point masses, ``g = 1``: its edges are the labels, in label
order, and the increment is 1 exactly when the predicted label is outside
the image. That grid has one point per label, so no grid budget applies to
it and no ``Measure`` is built for it.

Scores are integers on the grid. The engine's ``scale`` is the size of one
round's full charge in engine units: ``g`` for the loss kind (1 for the
label kind) and 1 for the measure kind. Scores, values and value tables of
the loss kind are therefore ``g`` times the true expected loss; callers
divide by ``scale`` at the API boundary
(:func:`pflab.measure_dims.minimax_rand_regret`). The one rule that fills
the grid edges' increment tables also charges an exact prefix measure
(:meth:`CollectionEngine.prefix_state`), on its exact mass times ``g``: off
the grid a loss charge is a ``Fraction`` in the same units, which the
search adds, compares and subtracts like an integer, so such states are
solved exactly too.

A state has one form, in the search and at every entry point alike: the
pair ``(base, levels)``. ``levels`` is a sorted tuple of ``(relative score,
mask)``: ``mask`` has bit ``cid`` set for every alive collection at that
score, the first level's score is 0 and no mask is empty; ``base`` is the
lowest score, so a collection's score is ``base`` plus its level's score.
Every method takes the pair as two positional arguments, and
:func:`alive_mask` reads the alive ids off the levels. The levels are
sparse, so they hold the loss kind's charges and off-grid ``Fraction``
scores as they hold the label kind's 0/1 counts.

The engine keeps each collection's image vector as one packed int, its
image word, in the layout :mod:`pflab.game` defines
(:func:`pflab.game.image_words`): an
:class:`pflab.game.AdmissibleFamily` hands over the words its walk built
(or, in :func:`pflab.dimensions.ml_sl_bl_dim`, each hypothesis's row word),
and any other sequence of collections is copied and packed once in the
constructor. No image tuple is kept. On its first visit to an instance
``x`` the search groups the collections by their word's field at ``x``
(:func:`pflab.game.images_at`): one ``(image, mask)`` pair per distinct
image, each mask the OR of its collections' bits ``1 << cid``, read from
a shared table for the first 1,024 ids. For each distinct image the engine
caches an increment table: one integer per edge, in edge order.
The engine keeps its grid as one packed int per label, edge ``i``'s count
in the 64-bit field at bit ``64 * i``,
as :func:`pflab.measures.grid_words` builds it, with no tuple of counts
made first, so a table is integer arithmetic on whole words, with no loop
over edges in Python: ``C``, the sum of the image's own packed columns, holds ``c(image)``
for every edge, and no field carries because ``c <= g < 2**63``. With
``ONES`` the word of 1s, the loss table is ``g * ONES - C``; the measure
table tests ``c <= K`` in every field at once, with ``K = floor(g * (q -
p) / q)`` (``g - 1`` at ``gamma = 0``): the top bit of each field of ``(K
+ 2**63) * ONES - C`` is set exactly when ``c <= K``, which for an integer
count is the test above. :meth:`CollectionEngine._charge` reads one field.
An off-grid prefix measure's ``Fraction`` mass times ``g`` takes the same
rule exactly, with no rounded threshold (:meth:`CollectionEngine._increment`).
A step of the search then works on masks:

* the move table at ``x`` gives every edge class its own list of reveal
  classes. An edge class holds one ``(increment, mask)`` pair per
  increment value; a reveal class is a ``(tag, survivor mask)`` pair, one
  per distinct nonzero survivor mask. Edge classes that face the same
  reveal list share one ``(reveal classes, edge classes)`` entry, so the
  table is a list of such entries, lowest edge first. It depends only on
  the instance and the alive mask, so it is cached per pair and shared by
  every state with that alive set;
* a child ORs ``mask & survivors & increment mask`` of each level into the
  level at ``score + increment``, then subtracts the lowest score. This one
  step also moves played states: :meth:`CollectionEngine.update` and
  :meth:`CollectionEngine.update_set` apply it to a reveal's survivor mask
  and raise :class:`EmptyConsistentSet` when nothing survives, and
  :meth:`CollectionEngine.prefix_state` applies it once per prefix round.

Two rules fill the move table:

* partial feedback (:class:`CollectionEngine`): the edge classes are the
  edges with distinct increments over the alive groups, and every edge
  class faces the same reveal list, so the table has one entry. One scan
  of the alive groups gives, per label ``y``, the survivor mask
  ``holds[y]``: the OR of the alive parts of the groups whose image holds
  ``y`` (:meth:`CollectionEngine._holds`). The reveal list has one class
  per distinct nonzero ``holds[y]``, in ascending ``y``, tagged by its
  lowest ``y``. A label edge ``y`` charges 0 on ``holds[y]`` and 1 on the
  other alive collections, so the label edge classes are read off the
  same scan: one per distinct ``holds[y]``, the zero mask included, in
  label order. On a grid an edge's key lays the alive groups' increments
  side by side in 64-bit words, built from whole tables at once and
  deduplicated as ints (:meth:`CollectionEngine._edge_keys`);
* the version-space game of :func:`pflab.dimensions.ml_sl_bl_dim`
  (:class:`_VersionSpaceEngine`): each collection is one hypothesis, so
  every image is a single label. An edge (a label) carries the reveal
  classes of the maximal family sets that exclude it, tagged by the set,
  and every survivor is charged 1; edges with equal reveal lists form one
  class, which is one entry of the table. An edge may carry no reveal
  class at all.

Each rule meets the three shortcuts the search takes without looking at
the children:

* the value is at least the top score. Under partial feedback the
  adversary can reveal inside the image of a collection on the top level,
  which keeps it alive at a nonnegative increment. In the version-space
  game every reveal charges each survivor the same 1, and a state with no
  charging reveal keeps its score;
* the value is at most the top score plus ``scale`` per round remaining:
  no partial-feedback increment exceeds ``scale``, and the version-space
  charge is 1, its ``scale``;
* a label common to every alive image is free. Under partial feedback it
  costs no increment. In the version-space game a label that every alive
  hypothesis outputs at ``x`` lies in every set that keeps one of them, so
  naming it leaves the adversary no reveal.

``Measure`` objects for grid edges are built only when a caller reads
:attr:`CollectionEngine.edges`.

The search is Pearl's null-window test of ``value >= v`` (SCOUT, AAAI
1980), run for ascending ``v`` as in Plaat et al.'s MTD(f) (AI 1996). Its
soundness, and that of its speedups, all of which preserve exact values:

* the value is at least the top level's score and at most that plus
  ``scale`` per round remaining, so a test at or below the lower bound
  passes, and one above the upper bound fails, without a search;
* if at every instance the images of the alive groups share a label, the
  learner can play that label (or its point mass) forever and the score
  never rises, so the value equals the lower bound exactly; this test is
  cached per alive mask, and a child that passes it, or has no rounds left,
  is valued by its top score without building its levels;
* edges with equal increments and reveal lists induce identical subtrees,
  as do reveals with equal survivor masks, so only one representative of
  each class is explored;
* a state's value never falls when a collection joins the alive set, or
  when an alive collection's score rises: the adversary's strategy for the
  smaller state stays legal, and the final maximum is taken over more, or
  higher, scores. So the search reads a copy of the move table without
  dominated classes, cached per instance and alive mask
  (:meth:`CollectionEngine._search_moves`):

  - the max side drops a reveal class whose survivor mask is a strict
    subset of another class's in the same entry. A collection's increment
    depends only on the edge and its own image, so the larger class's
    child is the smaller class's child with more collections added, and
    its value is never lower. Every table and kind takes this rule;
  - the min side drops a label edge class that charges every alive
    collection at least as much as another class does: both face the same
    reveal classes, and each child of the dominated class holds the same
    collections at scores no lower. A label class charges 1 exactly
    outside its survivor mask, so it is dominated exactly when that mask
    is a strict subset of another class's, the max side's own test. The
    label edge classes kept are therefore those of the maximal reveal
    classes, in their order, and the search reads them off the survivor
    scan without building the full table. Grid tables skip this rule,
    because theirs can hold hundreds of edge classes; the version-space
    table has one edge class per entry, so it drops none there;

* scores translate: adding a constant to every score adds it to the value, so
  levels hold scores relative to their minimum, and the memo is keyed on
  ``(rounds, levels)``, which determines the alive set with its relative
  scores and is determined by them;
* collections with equal image vectors are interchangeable: they start with
  equal scores, survive every reveal together and take the same increment on
  every edge, so dropping all but one of them changes no value, choice or
  expanded-state count. Callers may therefore pass one collection per image
  vector (``game.distinct_images``); the engine itself keeps every
  collection it is given, so alive ids index the caller's sequence;
* a test passes at a state when some instance has, for every edge class, a
  reveal class whose child passes: the max side stops at the first such
  instance, the min side at an instance's first edge class with no passing
  reveal. A child that is settled or has no rounds left is scored by its
  top score, without being built;
* every test result is stored in a bound memo: one ``(lo, hi)`` pair on the
  relative value per ``(rounds, levels)`` key, tightened to ``lo = v`` by a
  passing test and to the highest value below ``v`` by a failing one. A
  later test inside the bounds is answered without a search, so the tests
  of one call, and of later calls to any entry point, share their work;
* a state whose children are all leaves (one round left, or every reveal
  class at every instance settled) is solved by one exact scan, which sees
  every child at once, and stored as ``(v, v)``. The leaf test reads only
  the maximal reveal classes, cached per instance and alive mask and shared
  with the search's table, so it builds no edge class: every reveal class
  lies inside a maximal one, and every subset of a settled alive set is
  settled. The scan scores an edge by the top score when no reveal class
  charges above it;
* a single-level state, one whose alive collections all have the same
  score ``s``, is scanned on whole tables; every root is one. Under partial
  feedback the reveals drop out: every alive image is a nonempty set, so
  the survivors of the reveal classes cover the alive set, and an edge's
  worst case is ``s`` plus its largest increment over the alive groups.
  The fieldwise max of the groups' packed tables holds that for every edge
  at once, and an instance's value is ``s`` plus its least field, so a
  grid-kind leaf root builds no edge class. In the version-space game every
  survivor is charged 1, so an instance's value is ``s + 1`` when every
  entry of its table has a reveal class, else ``s``. Other states scan the
  search's table, which stops an edge's reveals once the edge is no better
  than the instance's best edge so far, and an instance's edges once it
  cannot beat the best instance so far;
* the value is the final score of a collection alive at the state: its
  level score plus integer increments, so it has the form level score +
  integer. The tests run from the top score through each next value of
  that form (``v + 1`` on integer levels, and the same rule covers off-grid
  ``Fraction`` scores); the last passing threshold is the value.

Every entry point runs this one search. ``value`` is the ascending tests'
last pass. The choice methods read the full move table, not the search's
pruned copy: a dominated class can tie with the class that dominates it and
still have the lower index, and each method returns the lowest-index tie.
On the label kind only they build the full table; ``value`` never does,
and on a grid kind ``value`` builds no table at a single-level leaf root.
On the choice path only, each edge gets its ``(entry, class)`` position in
the table at ``x``, cached per instance and alive mask, so the search
itself does no per-edge work. They take the value of each child they
compare from the same tests, which prune beneath them:

* an edge's worst case is the largest of its reveal classes' child values,
  and never below the top score, the rule :meth:`CollectionEngine._scan`
  applies: an edge with no reveal class keeps the state's score. It is
  computed once per edge class and spread over the class's edges;
* ``best_reveal`` is the tag of the first reveal class reaching it: the
  class's lowest label under partial feedback, its family set in the
  version-space game, and ``None`` for an edge with no reveal class;
* ``reaching`` is the lowest instance where every edge class has a reveal
  class whose child reaches a given value, with each edge's first such
  tag; an edge with no reveal class reaches only values at most the top
  score, tagged ``None``. Each child takes one test of ``value >= v``,
  not its exact value;
* ``best_instance`` is ``reaching``'s instance at the state's value, or
  the first instance when the value is the top score.

A choice method therefore reads the bounds that earlier calls of any entry
point stored, and each method answers on both tables.

The budget counts the states the test search expands, an all-leaf scan
counting as one, for all three kinds alike; it defaults to
``PFLAB_BUDGET_STATES``. Past the budget every entry point raises
:class:`BudgetExceeded` with the same message, so a budget bounds work and
never changes an answer: a call returns its exact result or raises.
:meth:`CollectionEngine.edge_worst_bounds` is the one table that runs no
search: an upper bound on every entry of ``edge_worst_values``, read from
the children's top scores. A child's value is at most its top score plus
``scale`` per round remaining, and the largest top score over an edge
class's reveal classes is the largest score, plus increment, among the
union of their survivors: a max over reveals of a max over survivors is a
max over the OR of the survivor masks. So each edge class takes one
:func:`_top` on that OR, and the bound keeps the top-score rule.

Each round nests one Python frame of a test, so every entry point reaches
the same horizons. A horizon deep enough to exhaust Python's recursion
limit is reported by every entry point as :class:`BudgetExceeded` naming
the depth.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExceeded, EmptyConsistentSet, SpecError, env_budget
from .errors import nonnegative, plain_int
from .game import AdmissibleFamily, Collection, GameSpec, image_words, images_at
from .measures import (
    _FIELD,
    _ONE,
    _TOP,
    _WIDTH,
    Measure,
    _unpack,
    as_gamma,
    grid_size,
    grid_words,
    measure_grid,
)
from .setsystems import iter_bits, mask_of


def states_budget() -> int:
    return env_budget("PFLAB_BUDGET_STATES", 50_000_000)


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
        # An AdmissibleFamily is read-only; anything else is copied, so a
        # caller's later change does not reach the engine.
        self.collections = (
            collections if isinstance(collections, AdmissibleFamily) else list(collections)
        )
        self.kind = kind
        self.gamma = as_gamma(gamma) if gamma is not None else None
        if kind == "measure" and self.gamma is None:
            raise ValueError("measure kind needs gamma")
        self.image_words = image_words(spec, self.collections)
        if kind == "label":
            # The loss kind on the grid of point masses, whose edges are the labels.
            self.g = 1
        else:
            self.g = grid if grid is not None else spec.measure_grid
        # The grid as one packed word per label: edge i's count in the
        # 64-bit field at bit 64 * i. The label kind's grid has one point per
        # label, so the grid budget never rejects it.
        self._words = grid_words(spec.n_labels, self.g, spec.n_labels if kind == "label" else None)
        self.n_edges = grid_size(spec.n_labels, self.g)
        self._ones = int.from_bytes(_ONE * self.n_edges, "little")
        self._tops = _TOP * self._ones
        self.scale = 1 if kind == "measure" else self.g
        if kind == "measure":
            # For an integer count c, c * q <= g * (q - p) with gamma = p/q,
            # or c < g at gamma 0, is c <= K; K lies in [0, g], as gamma lies
            # in [0, 1].
            p, q = self.gamma.numerator, self.gamma.denominator
            K = self.g - 1 if p == 0 else self.g * (q - p) // q
            self._minuend = (K + _TOP) * self._ones
        else:
            self._minuend = self.g * self._ones
        # An edge key's field width: a loss increment is at most g, a measure
        # increment 0 or 1.
        self._bits = 1 if kind == "measure" else self.g.bit_length()
        self.budget = nonnegative(states_budget() if budget is None else budget, "budget")
        self.nodes = 0
        self._bounds: dict = {}
        self._tables: dict = {}
        self._settled_cache: dict = {}
        self._leaf_cache: dict = {}
        self._reveal_cache: dict = {}
        self._moves_cache: dict = {}
        self._search_cache: dict = {}
        self._positions_cache: dict = {}
        self._edge_cache: dict = {}
        self._group_cache: list = [None] * spec.n_instances

    @functools.cached_property
    def edges(self) -> list:
        """The learner's moves in edge order: labels, or grid measures.

        Both are built on the first read; the search itself works on edge
        indices and increment masks only.
        """
        if self.kind == "label":
            return list(range(self.spec.n_labels))
        return measure_grid(self.spec.n_labels, self.g)

    # -- increments ---------------------------------------------------------

    def _increment(self, inside):
        """The charge rule on one exact mass ``inside`` an image, in units of ``1/g``.

        The mass is an off-grid prefix measure's ``Fraction`` times ``g``;
        the rule compares it exactly, with no rounded threshold.
        """
        g = self.g
        if self.kind != "measure":
            return g - inside
        if self.gamma == 0:
            return int(inside < g)
        p, q = self.gamma.numerator, self.gamma.denominator
        return int(inside * q <= g * (q - p))

    def _table(self, image_mask: int) -> int:
        """Increments of a collection with this image under every edge, packed like a column."""
        hit = self._tables.get(image_mask)
        if hit is None:
            # Grid counts on the image for every edge at once: the sum of the
            # image's packed columns. A count is at most g < 2**63, so no
            # field borrows from the next.
            hit = self._minuend - sum(map(self._words.__getitem__, iter_bits(image_mask)))
            if self.kind == "measure":
                # A field K + 2**63 - c keeps its top bit exactly when c <= K.
                hit = hit >> (_WIDTH - 1) & self._ones
            self._tables[image_mask] = hit
        return hit

    def _charge(self, move, image_mask: int):
        """Increment, in engine units, for an edge index in range or an exact prefix measure."""
        if not isinstance(move, Measure):
            return self._table(image_mask) >> (_WIDTH * move) & _FIELD
        inc = self._increment(move.mass(image_mask) * self.g)
        return inc.numerator if inc.denominator == 1 else inc

    def _groups(self, x: int) -> tuple:
        """One ``(image, mask)`` pair per distinct image at ``x``, built on first use.

        ``mask`` has bit ``cid`` set for every collection with that image at ``x``.
        """
        hit = self._group_cache[x]
        if hit is None:
            by_image: dict = {}
            for cid, image in enumerate(images_at(self.spec, self.image_words, x)):
                by_image[image] = by_image.get(image, 0) | 1 << cid
            hit = self._group_cache[x] = tuple(by_image.items())
        return hit

    # -- the collection version space ------------------------------------------

    def initial_state(self):
        """All collections alive with zero scores: the state of an empty prefix."""
        return self.prefix_state((), (), ())

    def prefix_state(self, prefix_x, prefix_moves, prefix_reveals):
        """State after a played prefix of instances, moves and reveals.

        Only collections whose image contains every prefix reveal stay alive;
        each starts charged with its prefix rounds, by the charge rule the
        increment tables apply, in engine units. Moves are labels for the
        label kind and exact measures otherwise; prefix measures need not lie
        on the grid, and a loss-kind charge off the grid stays a ``Fraction``.
        Raises :class:`SpecError` on ragged lists, on instances or labels
        that are not plain ints in range, or on out-of-range measures, and
        :class:`EmptyConsistentSet` when no collection survives the reveals.
        """
        if not len(prefix_x) == len(prefix_moves) == len(prefix_reveals):
            raise SpecError("prefix lists must have equal length")
        spec = self.spec
        for x in prefix_x:
            plain_int(
                x, 0, spec.n_instances, SpecError, "prefix instance {value!r} outside range({hi})"
            )
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
            plain_int(y, 0, spec.n_labels, SpecError, "prefix label {value!r} outside range({hi})")
        empty = "no collection is consistent with the prefix reveals"
        if not self.image_words:
            raise EmptyConsistentSet(empty)
        state = (0, ((0, (1 << len(self.image_words)) - 1),))
        for x, move, y in zip(prefix_x, prefix_moves, prefix_reveals):
            state = self._step(*state, x, self._holding(x, y), move, empty)
        return state

    def feasible(self, base, levels, x: int) -> int:
        """Labels some alive collection's image at ``x`` contains: the OR of the images."""
        self._check_indices(x)
        return functools.reduce(operator.or_, self._images(alive_mask(levels), x))

    def common(self, base, levels, x: int) -> int:
        """Labels every alive collection's image at ``x`` contains: the AND of the images."""
        self._check_indices(x)
        return functools.reduce(operator.and_, self._images(alive_mask(levels), x))

    def update(self, base, levels, x: int, edge_index: int, y: int):
        """State after revealing ``y`` once edge ``edge_index`` was played at ``x``.

        Raises :class:`EmptyConsistentSet` when no alive image holds ``y``.
        """
        self._check_indices(x, edge_index)
        plain_int(y, 0, self.spec.n_labels, SpecError, "label {value!r} outside range({hi})")
        return self._step(
            base, levels, x, self._holding(x, y), edge_index,
            "every admissible collection is inconsistent with the reveals",
        )

    def update_set(self, base, levels, x: int, edge_index: int, mask: int):
        """State after revealing the set ``mask`` once edge ``edge_index`` was played at ``x``.

        A revealed set pins the image: only collections whose image at ``x``
        is exactly ``mask`` survive, charged as :meth:`update` charges them.
        Raises :class:`EmptyConsistentSet` when none is alive.
        """
        self._check_indices(x, edge_index)
        return self._step(
            base, levels, x, dict(self._groups(x)).get(mask, 0), edge_index,
            "every admissible collection is inconsistent with the revealed sets",
        )

    def _check_indices(self, x, edge_index=0) -> None:
        """Raise :class:`SpecError` unless ``x`` is an instance index and ``edge_index`` an edge index.

        Each must be a plain int in range: a ``bool`` or a negative index is
        neither. The default, edge 0, exists in every engine.
        """
        plain_int(x, 0, self.spec.n_instances, SpecError, "instance {value!r} outside range({hi})")
        plain_int(edge_index, 0, self.n_edges, SpecError, "edge {value!r} outside range({hi})")

    def _holding(self, x: int, y: int) -> int:
        """Mask of the collections whose image at ``x`` holds ``y``."""
        return sum(mask for image, mask in self._groups(x) if (image >> y) & 1)

    def _step(self, base, levels, x: int, keep: int, move, empty: str):
        """The search's child step: the alive collections in ``keep`` survive, charged for ``move``.

        ``move`` is an edge index or an exact prefix measure, played at
        ``x``. Raises :class:`EmptyConsistentSet` with message ``empty``
        when no alive collection is in ``keep``.
        """
        keep &= alive_mask(levels)
        if not keep:
            raise EmptyConsistentSet(empty)
        inc: dict = {}
        for image, mask in self._groups(x):
            if mask & keep:
                v = self._charge(move, image)
                inc[v] = inc.get(v, 0) | mask
        shift, levels = _child(levels, keep, tuple(inc.items()))
        return base + shift, levels

    # -- the search on levels ---------------------------------------------------

    def _images(self, alive: int, x: int) -> list:
        """The distinct images at ``x`` of the alive collections."""
        return [image for image, mask in self._groups(x) if mask & alive]

    def _holds(self, alive: int, x: int) -> list:
        """Per label ``y``, the mask of the alive collections whose image at ``x`` holds ``y``.

        Each alive group's image is walked one low bit at a time, so a wide
        alphabet costs only the image's own labels.
        """
        holds = [0] * self.spec.n_labels
        for image, mask in self._groups(x):
            mask &= alive
            if mask:
                while image:
                    low = image & -image
                    image ^= low
                    holds[low.bit_length() - 1] |= mask
        return holds

    def _reveals(self, alive: int, x: int) -> list:
        """One ``(lowest y, survivor mask)`` pair per distinct survivor set at ``x``: :func:`_reveal_classes`."""
        return _reveal_classes(self._holds(alive, x))

    def _edge_keys(self, alive: int, x: int) -> tuple:
        """Every edge's key over the alive image groups at ``x``, in edge order, and their masks.

        Grid kinds only. Two edges have equal keys exactly when their
        increment vectors over the groups are equal. A key lays the groups'
        increments side by side, ``_bits`` bits each: as many groups as fill
        64 bits are shifted into place in whole tables at once and read out
        as one ``array('Q')``, and more groups take more such arrays, zipped
        into tuple keys.
        """
        images, masks = zip(*(group for group in self._groups(x) if group[1] & alive))
        tables = list(map(self._table, images))
        shifts = range(0, _WIDTH - self._bits + 1, self._bits)
        chunks = [
            _unpack(sum(map(operator.lshift, tables[i:i + len(shifts)], shifts)), self.n_edges)
            for i in range(0, len(tables), len(shifts))
        ]
        return (chunks[0] if len(chunks) == 1 else list(zip(*chunks))), masks

    def _edge_classes(self, alive: int, x: int) -> list:
        """The ``(increment, mask)`` pairs of one grid edge per distinct increment vector.

        The classes are listed by their lowest edge, in edge order: the
        first occurrence of each distinct key. Cached per instance and set
        of alive groups.
        """
        groups = self._groups(x)
        key = (x, tuple(i for i, (_, mask) in enumerate(groups) if mask & alive))
        hit = self._edge_cache.get(key)
        if hit is None:
            keys, masks = self._edge_keys(alive, x)
            vectors = self._decode(list(dict.fromkeys(keys)), len(masks))
            hit = self._edge_cache[key] = [_by_value(inc, masks) for inc in vectors]
        return hit

    def _decode(self, keys: list, n_groups: int):
        """The increment vectors of grid keys over ``n_groups`` groups, in key order.

        Each group's field is read out of every key at once.
        """
        chunks = list(zip(*keys)) if type(keys[0]) is tuple else [keys]
        b = self._bits
        per, fill = _WIDTH // b, itertools.repeat((1 << b) - 1)
        fields = (
            map(operator.rshift, chunks[i // per], itertools.repeat(b * (i % per)))
            for i in range(n_groups)
        )
        return zip(*(map(operator.and_, field, fill) for field in fields))

    def _positions(self, alive: int, x: int) -> list:
        """The ``(entry, class)`` position of every edge in the move table at ``x``, in edge order.

        Read on the choice path only, and cached per instance and alive mask.
        """
        hit = self._positions_cache.get((x, alive))
        if hit is None:
            hit = self._positions_cache[(x, alive)] = self._edge_positions(alive, x)
        return hit

    def _edge_positions(self, alive: int, x: int) -> list:
        """The positions :meth:`_positions` caches, built on a miss.

        Partial feedback has one entry, whose classes are the distinct edge
        keys in the order :meth:`_moves` lists them: a label edge's key is
        its survivor mask, a grid edge's its :meth:`_edge_keys` key.
        """
        keys = self._holds(alive, x) if self.kind == "label" else self._edge_keys(alive, x)[0]
        index = {key: cls for cls, key in enumerate(dict.fromkeys(keys))}
        return [(0, index[key]) for key in keys]

    def _per_edge(self, alive: int, x: int, per_entry) -> list:
        """A value for every edge, in edge order, computed once per edge class.

        ``per_entry(reveals, edges)`` lists the values of one table entry's edge classes.
        Raises :class:`SpecError` unless ``x`` is an instance index.
        """
        self._check_indices(x)
        table = [per_entry(reveals, edges) for reveals, edges in self._moves(alive, x)]
        return [table[entry][cls] for entry, cls in self._positions(alive, x)]

    def _moves(self, alive: int, x: int) -> list:
        """The move table at ``x``: ``(reveal classes, edge classes)`` pairs.

        Every edge class of a pair faces that pair's reveal classes. Partial
        feedback has one pair: every edge class faces the reveal classes of
        :meth:`_holds`. A label edge's class is read off the same scan: one
        class per distinct survivor mask ``holds[y]``, the zero mask
        included, in label order (:func:`_label_class`). Cached per
        instance and alive mask.
        """
        hit = self._moves_cache.get((x, alive))
        if hit is None:
            holds = self._holds(alive, x)
            if self.kind == "label":
                edges = [_label_class(keep, alive) for keep in dict.fromkeys(holds)]
            else:
                edges = self._edge_classes(alive, x)
            hit = self._moves_cache[(x, alive)] = [(_reveal_classes(holds), edges)]
        return hit

    def _search_moves(self, alive: int, x: int) -> list:
        """The move table the test search reads: :meth:`_pruned`, cached per instance and alive mask."""
        hit = self._search_cache.get((x, alive))
        if hit is None:
            hit = self._search_cache[(x, alive)] = self._pruned(alive, x)
        return hit

    def _maximal_reveals(self, alive: int, x: int) -> list:
        """The reveal classes at ``x`` whose survivor mask is no strict subset of another's.

        Cached per instance and alive mask; the leaf test and the search's
        table both read them, so neither builds edge classes for the other.
        """
        hit = self._reveal_cache.get((x, alive))
        if hit is None:
            hit = self._reveal_cache[(x, alive)] = _maximal(self._reveals(alive, x))
        return hit

    def _pruned(self, alive: int, x: int) -> list:
        """The move table without dominated classes.

        Its one entry keeps the maximal reveal classes. A label edge class
        charges 1 exactly outside its survivor mask, so it is at least
        another class on every group exactly when its mask is a strict
        subset of the other's: the label edge classes left are those of the
        maximal reveal classes, in their order, read off :meth:`_holds`
        without building the full table. When no alive image at ``x`` holds
        a label there is no reveal class, and the one edge class charges
        every alive collection. Grid kinds keep all their edge classes,
        which can number in the hundreds.
        """
        reveals = self._maximal_reveals(alive, x)
        if self.kind != "label":
            return [(reveals, self._moves(alive, x)[0][1])]
        return [(reveals, [_label_class(keep, alive) for _, keep in reveals] or [((1, alive),)])]

    def _settled(self, alive: int) -> bool:
        """True when at every instance some label lies in every alive image."""
        hit = self._settled_cache.get(alive)
        if hit is None:
            hit = all(
                functools.reduce(operator.and_, self._images(alive, x))
                for x in range(self.spec.n_instances)
            )
            self._settled_cache[alive] = hit
        return hit

    def _leaf_children(self, alive: int) -> bool:
        """True when every reveal class at every instance is settled.

        Reads the maximal reveal classes only, with no edge class: every
        reveal class lies inside a maximal one, and every subset of a
        settled alive set is settled.
        """
        hit = self._leaf_cache.get(alive)
        if hit is None:
            hit = self._leaf_cache[alive] = all(
                self._settled(keep)
                for x in range(self.spec.n_instances)
                for _, keep in self._maximal_reveals(alive, x)
            )
        return hit

    def _expand(self):
        """Count one expanded state against the budget."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(
                f"minimax recursion exceeded {self.budget} expanded states",
                spent=self.nodes,
                budget=self.budget,
            )

    def _test(self, levels: tuple, alive: int, rounds: int, v) -> bool:
        """Null-window test: is the value of a levels state at least ``v``?

        Values and ``v`` are relative to the state's lowest score. Each
        result tightens the state's ``(lo, hi)`` entry in the bound memo; a
        state whose children are all leaves is solved by one :meth:`_scan`
        and stored as ``(v, v)``.
        """
        lb = levels[-1][0]
        if v <= lb:
            return True
        ub = lb + rounds * self.scale
        if v > ub or self._settled(alive):
            return False
        key = (rounds, levels)
        lo, hi = self._bounds.get(key, (lb, ub))
        if v <= lo:
            return True
        if v > hi:
            return False
        if rounds == 1 or self._leaf_children(alive):
            exact = self._scan(levels, alive, ub)
            self._bounds[key] = (exact, exact)
            return exact >= v
        self._expand()
        child_depth = rounds - 1
        reach = child_depth * self.scale
        for x in range(self.spec.n_instances):
            for reveals, edges in self._search_moves(alive, x):
                for inc in edges:
                    # The learner's edge fails the test unless some reveal passes it.
                    for _, keep in reveals:
                        top = _top(levels, keep, inc)
                        if top >= v:
                            break
                        if top + reach >= v and not self._settled(keep):
                            base, child = _child(levels, keep, inc)
                            if self._test(child, keep, child_depth, v - base):
                                break
                    else:
                        break
                else:
                    continue
                # An edge class with no passing reveal fails the instance.
                break
            else:
                self._bounds[key] = (v, hi)
                return True
        self._bounds[key] = (lo, _below(levels, v))
        return False

    def _scan(self, levels: tuple, alive: int, ub):
        """Exact value of a levels state whose children are all leaves, scored by top score.

        A single-level state takes :meth:`_single_level`. Otherwise a reveal
        scan stops once its edge is no better for the learner than the
        instance's best edge so far, and an edge scan once its instance
        cannot beat the best instance so far; ``ub`` stops the instance scan.
        """
        self._expand()
        best = lb = levels[-1][0]
        if len(levels) == 1:
            return lb + self._single_level(alive)
        for x in range(self.spec.n_instances):
            least = None
            for reveals, edges in self._search_moves(alive, x):
                for inc in edges:
                    # No reveal class, or none charging above it, leaves the top score.
                    worst = lb
                    for _, keep in reveals:
                        top = _top(levels, keep, inc)
                        if top > worst:
                            worst = top
                            if least is not None and worst >= least:
                                break
                    if least is None or worst < least:
                        least = worst
                        if least <= best:
                            break
                else:
                    continue
                # The instance cannot beat the best so far.
                break
            if least > best:
                best = least
                if best >= ub:
                    break
        return best

    def _single_level(self, alive: int):
        """Value, above its one score, of a single-level state whose children are all leaves.

        Every alive image is a nonempty set, so the maximal reveal classes'
        survivors cover the alive set, and an edge's worst case is its
        largest increment over the alive groups at ``x``. For every edge at
        once that is the fieldwise max of the groups' packed tables
        (:meth:`_field_max`), the instance's value is its least field, and
        the state's value is the largest over instances. A value of
        ``scale``, the largest increment, stops the scan.
        """
        best = 0
        for x in range(self.spec.n_instances):
            tables = [self._table(image) for image, mask in self._groups(x) if mask & alive]
            least = min(_unpack(functools.reduce(self._field_max, tables), self.n_edges))
            if least > best:
                best = least
                if best >= self.scale:
                    break
        return best

    def _field_max(self, a: int, b: int) -> int:
        """The fieldwise max of two packed tables.

        A field of ``(a | tops) - b`` keeps its top bit exactly when ``a``'s
        field is at least ``b``'s, as no increment reaches ``2**63`` and so
        no field borrows from the next; that bit, spread over its field,
        picks ``a``'s field.
        """
        ge = (((a | self._tops) - b) & self._tops) >> (_WIDTH - 1)
        return b ^ ((a ^ b) & ((ge << _WIDTH) - ge))

    def _solve(self, levels: tuple, alive: int, rounds: int):
        """Exact value of a levels state, relative to its lowest score.

        Null-window tests of ``value >= w`` ascend from the top score through
        every value of the form level score + integer; the last passing ``w``
        is the value. Every entry point searches through here, so a search
        deeper than Python's stack allows leaves as a budget rejection.
        """
        v = levels[-1][0]
        w = _above(levels, v)
        try:
            while self._test(levels, alive, rounds, w):
                v, w = w, _above(levels, w)
        except RecursionError:
            raise _too_deep(rounds) from None
        return v

    def _child_value(self, levels: tuple, keep: int, inc, child_depth: int):
        """Exact value of the child of survivors ``keep`` under ``inc``, on the parent's scale."""
        if child_depth == 0 or self._settled(keep):
            # The child's value is its top score: no need to build it.
            return _top(levels, keep, inc)
        base, child = _child(levels, keep, inc)
        return base + self._solve(child, keep, child_depth)

    def _child_reaches(self, levels: tuple, keep: int, inc, child_depth: int, v) -> bool:
        """Does the child of survivors ``keep`` under ``inc`` reach ``v``, on the parent's scale?

        One null-window test, or the child's top score when it is settled or
        has no rounds left. A test deeper than Python's stack allows leaves
        as a budget rejection, as in :meth:`_solve`.
        """
        if child_depth == 0 or self._settled(keep):
            return _top(levels, keep, inc) >= v
        base, child = _child(levels, keep, inc)
        try:
            return self._test(child, keep, child_depth, v - base)
        except RecursionError:
            raise _too_deep(child_depth) from None

    def _edge_worst(self, levels, inc, reveals, child_depth):
        """``(worst case, tag of the first reveal class reaching it)`` for one edge class.

        ``inc`` holds the class's ``(increment, mask)`` pairs. The worst case
        is the largest child value over the reveal classes, and never below
        the top score, as in :meth:`_scan`; the tag is ``None`` when no
        reveal class reaches it.
        """
        worst, worst_y = levels[-1][0], None
        for y, keep in reveals:
            v = self._child_value(levels, keep, inc, child_depth)
            if v > worst or v == worst and worst_y is None:
                worst, worst_y = v, y
        return worst, worst_y

    # -- entry points ------------------------------------------------------------

    def value(self, base, levels, rounds: int):
        """Exact minimax value of the state ``(base, levels)`` over ``rounds`` more rounds.

        ``rounds`` must be a plain int ``>= 0``, else :class:`SpecError`.
        """
        nonnegative(rounds, "rounds")
        return base + self._solve(levels, alive_mask(levels), rounds)

    def best_instance(self, base, levels, rounds: int) -> int:
        """Lowest instance achieving the state's value (adversary's move).

        That is the lowest instance where every edge class has a reveal class
        whose child reaches the value, and the first instance when the value
        is the top score, which every edge's worst case reaches.
        """
        v = self._solve(levels, alive_mask(levels), rounds)
        if v <= levels[-1][0]:
            return 0
        return self.reaching(base, levels, rounds, base + v)[0]

    def reaching(self, base, levels, rounds: int, v):
        """``(x, tags)``: the lowest instance where every edge has a reveal reaching ``v``.

        A reveal reaches ``v`` when its child's exact value is at least
        ``v``, which one null-window test of the child decides
        (:meth:`_child_reaches`); ``tags`` holds each edge's lowest such
        reveal tag, in edge order, as :meth:`best_reveal` names it. An
        edge with no reveal class reaches ``v``, tagged ``None``, when
        ``v`` is at most the top score. Returns ``None`` when no instance qualifies. The full move
        table is read in table order, and the tags are spread over the
        edges only once an instance qualifies.
        """
        alive = alive_mask(levels)
        v -= base
        top = levels[-1][0]
        for x in range(self.spec.n_instances):
            table = []
            for reveals, edges in self._moves(alive, x):
                tags = []
                for inc in edges:
                    for y, keep in reveals:
                        if self._child_reaches(levels, keep, inc, rounds - 1, v):
                            tags.append(y)
                            break
                    else:
                        if reveals or v > top:
                            # No reveal reaches v: the edge fails the instance.
                            break
                        tags.append(None)
                else:
                    table.append(tags)
                    continue
                break
            else:
                return x, [table[entry][cls] for entry, cls in self._positions(alive, x)]
        return None

    def edge_worst_values(self, base, levels, x, child_depth):
        """Exact worst-case child value for every edge, in edge order."""
        return self._per_edge(alive_mask(levels), x, lambda reveals, edges: [
            base + self._edge_worst(levels, inc, reveals, child_depth)[0] for inc in edges
        ])

    def edge_worst_bounds(self, base, levels, x, child_depth):
        """Upper bound on every entry of :meth:`edge_worst_values`, without any search.

        An edge's entry is the top score of its children, and never below
        the state's top score, plus ``scale`` per remaining round. The top
        score over its reveal classes is the top score of the OR of their
        survivors, so each edge class takes one :func:`_top`.
        """
        lb = levels[-1][0]
        reach = base + child_depth * self.scale

        def bounds(reveals, edges):
            keep = functools.reduce(operator.or_, (keep for _, keep in reveals), 0)
            return [reach + (max(lb, _top(levels, keep, inc)) if keep else lb) for inc in edges]

        return self._per_edge(alive_mask(levels), x, bounds)

    def best_edge(self, base, levels, x, child_depth):
        """Lowest-index edge minimizing the worst-case child value."""
        values = self.edge_worst_values(base, levels, x, child_depth)
        return values.index(min(values))

    def best_reveal(self, base, levels, x, edge_index, child_depth) -> int | None:
        """Lowest feasible reveal maximizing the child value (adversary's move).

        Every reveal in a class yields the same child, so the lowest ``y`` of
        the first best class is the lowest maximizing reveal. It is ``None``
        when the edge has no reveal class.
        """
        self._check_indices(x, edge_index)
        alive = alive_mask(levels)
        entry, cls = self._positions(alive, x)[edge_index]
        reveals, edges = self._moves(alive, x)[entry]
        return self._edge_worst(levels, edges[cls], reveals, child_depth)[1]


class _VersionSpaceEngine(CollectionEngine):
    """The version-space game of :func:`pflab.dimensions.ml_sl_bl_dim`.

    Each collection is one hypothesis, and the spec's set system is the
    family the adversary reveals from. Against a predicted label the
    adversary reveals a family set without it, keeping the alive hypotheses
    whose label lies in the set, and every survivor is charged 1. Every
    entry point reads this table; ``best_reveal`` names the revealed set.
    """

    def _maximal_without(self, y: int) -> list:
        """The maximal sets of an explicit family that exclude label ``y``."""
        sets = [s for s in self.spec.set_system.masks if not (s >> y) & 1]
        return [s for s in sets if not any(s != t and s & t == s for t in sets)]

    @functools.cached_property
    def _without(self) -> tuple:
        """:meth:`_maximal_without` of every label, built once per engine.

        The sets depend on the family and the label only.
        """
        return tuple(map(self._maximal_without, range(self.spec.n_labels)))

    def _label_reveals(self, alive: int, x: int) -> list:
        """Per label, its reveal classes as a ``{survivor mask: set}`` dict.

        The sets are the maximal family sets that exclude the label
        (:attr:`_without`, built once per label and engine), and
        each nonzero survivor mask keeps the first set giving it. Under
        ``all_nonempty_up_to: K`` those sets are the remaining alive labels
        when at most ``K`` remain, and otherwise their ``K``-subsets.
        """
        system = self.spec.set_system
        holders = [(image, mask & alive) for image, mask in self._groups(x) if mask & alive]
        labels = functools.reduce(operator.or_, (image for image, _ in holders))
        out = []
        for y in range(self.spec.n_labels):
            if system.kind == "explicit":
                sets = self._without[y]
            else:
                rest = labels & ~(1 << y)
                sets = (
                    [rest]
                    if rest.bit_count() <= system.max_size
                    else map(mask_of, itertools.combinations(iter_bits(rest), system.max_size))
                )
            reveals: dict = {}
            for s in sets:
                keep = sum(mask for image, mask in holders if image & s)
                if keep:
                    reveals.setdefault(keep, s)
            out.append(reveals)
        return out

    def _moves(self, alive: int, x: int) -> list:
        """One ``(reveal classes, [charge])`` entry per edge class: labels with equal reveal lists.

        A reveal class is a ``(set, survivor mask)`` pair, and the entries
        are listed by their lowest label.
        """
        hit = self._moves_cache.get((x, alive))
        if hit is None:
            entries: dict = {}
            for reveals in self._label_reveals(alive, x):
                entries.setdefault(tuple(reveals), reveals)
            charge = ((1, alive),)
            hit = self._moves_cache[(x, alive)] = [
                ([(s, keep) for keep, s in reveals.items()], [charge])
                for reveals in entries.values()
            ]
        return hit

    def _pruned(self, alive: int, x: int) -> list:
        """Every entry of :meth:`_moves` without its dominated reveal classes; its one edge class stays."""
        return [(_maximal(reveals), edges) for reveals, edges in self._moves(alive, x)]

    def _maximal_reveals(self, alive: int, x: int) -> list:
        """The reveal classes the search's table keeps at ``x``, over all its entries."""
        return [reveal for reveals, _ in self._search_moves(alive, x) for reveal in reveals]

    def _single_level(self, alive: int) -> int:
        """1 when at some instance every entry of the search's table has a reveal class, else 0.

        Every survivor of a reveal is charged 1, and an entry with no reveal
        class leaves its edges the state's score.
        """
        return int(any(
            all(reveals for reveals, _ in self._search_moves(alive, x))
            for x in range(self.spec.n_instances)
        ))

    def _edge_positions(self, alive: int, x: int) -> list:
        """The ``(entry, 0)`` position of every label in the move table at ``x``."""
        index: dict = {}
        return [
            (index.setdefault(tuple(reveals), len(index)), 0)
            for reveals in self._label_reveals(alive, x)
        ]


def alive_mask(levels) -> int:
    """Mask of the alive collections of a state's levels: bit ``cid`` per alive id."""
    return sum(mask for _, mask in levels)


def _too_deep(rounds: int) -> BudgetExceeded:
    """The budget rejection of a search deeper than Python's recursion limit."""
    return BudgetExceeded(
        f"minimax recursion over {rounds} rounds exceeds Python's recursion limit"
    )


def _above(levels, v):
    """The lowest value above ``v`` of the form level score + integer."""
    return min(s + math.floor(v - s) + 1 for s, _ in levels)


def _below(levels, v):
    """The highest value below ``v`` of the form level score + integer."""
    return max(s + math.ceil(v - s) - 1 for s, _ in levels)


def _by_value(inc, masks) -> tuple:
    """``(increment, mask)`` pairs of an increment vector: the OR of the group masks per value."""
    out: dict = {}
    for v, mask in zip(inc, masks):
        out[v] = out.get(v, 0) | mask
    return tuple(out.items())


def _maximal(reveals: list) -> list:
    """The reveal classes whose survivor mask is no strict subset of another class's."""
    return [
        (tag, keep) for tag, keep in reveals
        if not any(keep != other and keep & other == keep for _, other in reveals)
    ]


def _reveal_classes(holds: list) -> list:
    """One ``(lowest y, survivor mask)`` pair per distinct nonzero mask of :meth:`CollectionEngine._holds`.

    Every feasible reveal whose survivors coincide induces the same child
    under every edge, so the classes are listed once, in ascending ``y``: a
    dict keeps the first ``y`` of each survivor mask, so the listing is
    linear in the labels.
    """
    first: dict = {}
    for y, keep in enumerate(holds):
        if keep:
            first.setdefault(keep, y)
    return [(y, keep) for keep, y in first.items()]


def _label_class(keep: int, alive: int) -> tuple:
    """The ``(increment, mask)`` pairs of a label edge whose alive holders are ``keep``.

    The edge charges 0 to the collections whose image holds it and 1 to the
    other alive ones; an empty part is dropped.
    """
    return tuple((v, mask) for v, mask in ((0, keep), (1, alive ^ keep)) if mask)


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

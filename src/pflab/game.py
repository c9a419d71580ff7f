"""Game specifications, admissible collections, and the play engine.

A game runs for a fixed number of rounds. Each round the adversary picks an
instance, the learner answers with a label (or an exact distribution over
labels), and the adversary reveals one label. Only after the last round does
the adversary commit to the per-round feasible sets; every revealed label must
belong to its round's set, and the learner's loss charges each round by the
probability mass placed outside that set. The comparator is the best fixed
hypothesis in hindsight, measured by how many rounds its output falls outside
the feasible set.

Two visibility modes exist. Under ``oblivious`` visibility a randomized
learner's distribution is never sampled: the engine scores its exact expected
mass outside each set, and the game is a single deterministic trajectory.
Under ``public`` visibility the learner's draw is realized each round and
becomes part of the adversary-visible history, so a game is a finite tree of
trajectories; the engine enumerates every branch with its exact probability
rather than sampling.
"""

from __future__ import annotations

import copy  # unused; bound for perfbench/tracing.py and tests/test_fork.py, which rebind it
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, reduce
from operator import lshift, lt, or_
from typing import Optional, Union

from .errors import (
    AdmissibleEmpty,
    BudgetExceeded,
    ProtocolViolation,
    RealizabilityViolation,
    SpecError,
    env_budget,
    exact_number,
    is_decimal,
    is_rational,
    label_mask,
    plain_int,
    plain_ints,
)
from .measures import Measure, ONE, ZERO
from .setsystems import SetSystem, iter_bits, labels_of

Prediction = Union[int, Measure]


class Feedback(str, Enum):
    PARTIAL = "partial"
    SET_VALUED = "set_valued"
    MULTICLASS = "multiclass"
    BANDIT = "bandit"


class Visibility(str, Enum):
    OBLIVIOUS = "oblivious"
    PUBLIC = "public"


class Realizability(str, Enum):
    SET_REALIZABLE = "set_realizable"
    EXISTENCE_REALIZABLE = "existence_realizable"
    AGNOSTIC = "agnostic"


def _collections_budget() -> int:
    return env_budget("PFLAB_BUDGET_COLLECTIONS", 5_000_000)


# -- hypothesis classes ---------------------------------------------------------


@dataclass(frozen=True)
class HypothesisClass:
    """A finite class of functions from instances to labels.

    ``explicit`` classes store their rows. The ``all_functions`` kind stands
    for every function from the instance space to the label alphabet; rows are
    never materialized, a hypothesis index is read as its base-``n_labels``
    digit string (most significant digit at instance 0).
    """

    n_instances: int
    n_labels: int
    kind: str  # "explicit" or "all_functions"
    rows: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def explicit(cls, n_instances: int, n_labels: int, rows) -> "HypothesisClass":
        table = tuple(tuple(r) for r in rows)
        if not table:
            raise SpecError("a hypothesis class must be nonempty")
        for r in table:
            if len(r) != n_instances:
                raise SpecError(f"hypothesis row {r} does not have {n_instances} entries")
            plain_ints(r, 0, n_labels, SpecError, "hypothesis output {value!r} outside range({hi})")
        if len(set(table)) != len(table):
            raise SpecError("hypothesis classes must list distinct functions; duplicates are rejected")
        return cls(n_instances=n_instances, n_labels=n_labels, kind="explicit", rows=table)

    @classmethod
    def all_functions(cls, n_instances: int, n_labels: int) -> "HypothesisClass":
        return cls(n_instances=n_instances, n_labels=n_labels, kind="all_functions")

    @property
    def size(self) -> int:
        if self.kind == "explicit":
            return len(self.rows)
        return self.n_labels ** self.n_instances

    def value(self, h: int, x: int) -> int:
        if self.kind == "explicit":
            return self.rows[h][x]
        return h // self.n_labels ** (self.n_instances - 1 - x) % self.n_labels

    def row(self, h: int) -> tuple[int, ...]:
        if self.kind == "explicit":
            return self.rows[h]
        digits = [0] * self.n_instances
        for x in range(self.n_instances - 1, -1, -1):
            h, digits[x] = divmod(h, self.n_labels)
        return tuple(digits)

    def label_masks(self, x: int) -> tuple[int, ...]:
        """One bitmask per label ``y``: the hypotheses that output ``y`` at ``x``.

        Bit ``h`` of entry ``y`` is set iff ``value(h, x) == y``. The masks at
        one instance are disjoint and cover the class, so the hypotheses whose
        output at ``x`` lies in a label set ``S`` are the sum (equally, the
        OR) of the entries of ``S``. The enumeration, the version-space
        dimensions, cvsp's implicit mode, the comparator and the witness
        search all read their hypothesis sets from this one table, which is
        built for all instances on first use and cached. An all-functions
        class has no table, and its callers use closed forms instead.
        """
        return self._label_masks[x]

    @cached_property
    def _label_masks(self) -> tuple[tuple[int, ...], ...]:
        """The :meth:`label_masks` table of every instance.

        An all-functions class raises :class:`SpecError` on every read, since
        a raised exception is not cached.
        """
        if self.kind != "explicit":
            raise SpecError("label masks need an explicit hypothesis class")
        table = [[0] * self.n_labels for _ in range(self.n_instances)]
        for h, row in enumerate(self.rows):
            for col, y in enumerate(row):
                table[col][y] |= 1 << h
        return tuple(map(tuple, table))

    @cached_property
    def _row_words(self) -> "_RowWords":
        """This class's row-word memo (see :class:`_RowWords`)."""
        return _RowWords(self)

    @cached_property
    def _pool_pieces(self) -> "_PoolPieces":
        """This class's product-witness memo (see :class:`_PoolPieces`)."""
        return _PoolPieces(self)


class _RowWords(dict):
    """Hypothesis index ``h`` -> its row packed as one int, filled on first use.

    Bit ``x * n_labels + y`` of ``h``'s word is set iff ``value(h, x) == y``,
    so the OR of some hypotheses' words holds their image at instance ``x``
    as its ``n_labels``-bit field from bit ``x * n_labels`` on. Both kinds
    fill an entry by one rule, from :meth:`HypothesisClass.row`, and only
    for the indices asked for: an all-functions class is never tabulated.
    The class caches this memo, so the memo reads rows from an uncached copy
    of the class: a reference to the class itself would be a cycle that
    only the cyclic collector frees.
    """

    def __init__(self, hypotheses: HypothesisClass):
        super().__init__()
        self._n_labels = hypotheses.n_labels
        self._row = replace(hypotheses).row

    def __missing__(self, h: int) -> int:
        L = self._n_labels
        word = 0
        for x, y in enumerate(self._row(h)):
            word |= 1 << (x * L + y)
        self[h] = word
        return word


class _PoolPieces(dict):
    """``(x, pool)`` -> an all-functions class's witness pieces, filled on first use.

    The pieces are the place value of the pool's lowest label at instance
    ``x`` (the label times ``n_labels ** (n_instances - 1 - x)``) and the
    ascending offsets that move that digit to each other label of the pool.
    :func:`find_realizability_witness` adds them up into its product witness.
    It keeps the class's two sizes, not the class, which caches it.
    """

    def __init__(self, hypotheses: HypothesisClass):
        super().__init__()
        self._n_labels = hypotheses.n_labels
        self._n_instances = hypotheses.n_instances

    def __missing__(self, key: tuple[int, int]) -> tuple[int, tuple[int, ...]]:
        x, pool = key
        place = self._n_labels ** (self._n_instances - 1 - x)
        low, *others = iter_bits(pool)
        pieces = self[key] = (low * place, tuple((y - low) * place for y in others))
        return pieces


# -- game specification ---------------------------------------------------------


@dataclass(frozen=True)
class GameSpec:
    """Everything that defines one game, independent of the strategies playing it."""

    n_instances: int
    n_labels: int
    set_system: SetSystem
    hypotheses: HypothesisClass
    horizon: int
    feedback: Feedback = Feedback.PARTIAL
    visibility: Visibility = Visibility.OBLIVIOUS
    realizability: Realizability = Realizability.SET_REALIZABLE
    measure_grid: int = 12

    def __post_init__(self):
        not_int = "a game size must be a plain int, got {value!r}"
        plain_int(self.n_instances, 1, None, SpecError, "need at least one instance", not_int)
        plain_int(self.n_labels, 2, None, SpecError, "need at least two labels", not_int)
        plain_int(self.horizon, 1, None, SpecError, "horizon must be at least 1", not_int)
        plain_int(self.measure_grid, 1, None, SpecError, "measure_grid must be a positive integer")
        if self.set_system.n_labels != self.n_labels:
            raise SpecError("set system and game disagree on the number of labels")
        if (
            self.hypotheses.n_instances != self.n_instances
            or self.hypotheses.n_labels != self.n_labels
        ):
            raise SpecError("hypothesis class and game disagree on dimensions")
        # Accept plain strings for the three enums.
        object.__setattr__(self, "feedback", Feedback(self.feedback))
        object.__setattr__(self, "visibility", Visibility(self.visibility))
        object.__setattr__(self, "realizability", Realizability(self.realizability))

    def require_partial_feedback(self, what: str) -> None:
        """Raise :class:`SpecError` naming the mode unless the feedback is partial."""
        if self.feedback is not Feedback.PARTIAL:
            raise SpecError(
                f"{what} is solved for partial feedback only, not {self.feedback.value}"
            )


# -- admissible collections ------------------------------------------------------


@dataclass(frozen=True)
class Collection:
    """A set of hypotheses whose image at every instance is a feasible set."""

    members: tuple[int, ...]
    images: tuple[int, ...]  # one bitmask per instance

    def __len__(self) -> int:
        return len(self.members)


def _images(spec: GameSpec, word: int) -> tuple[int, ...]:
    """The image vector packed in ``word``: one ``n_labels``-bit field per instance.

    This is the layout of :class:`_RowWords`: the image at instance ``x``
    is the field from bit ``x * n_labels`` on.
    """
    L = spec.n_labels
    field = (1 << L) - 1
    return tuple(word >> shift & field for shift in range(0, spec.n_instances * L, L))


def images_at(spec: GameSpec, words: Iterable[int], x: int) -> list[int]:
    """The image at instance ``x`` of each packed image vector in ``words``."""
    L = spec.n_labels
    shift, field = x * L, (1 << L) - 1
    return [word >> shift & field for word in words]


def image_words(spec: GameSpec, collections: Sequence[Collection]) -> list[int]:
    """Each collection's image vector packed as one int, in the layout of :func:`_images`.

    An :class:`AdmissibleFamily` holds its words already; anything else is
    packed here, one collection at a time.
    """
    if isinstance(collections, AdmissibleFamily):
        return collections.words
    L = spec.n_labels
    shifts = range(0, spec.n_instances * L, L)
    return [sum(map(lshift, col.images, shifts)) for col in collections]


def collection_of(spec: GameSpec, members) -> Collection:
    """Build a :class:`Collection` from hypothesis indices, validating feasibility.

    ``members`` must be an iterable of plain ints (a ``bool`` is not one);
    anything else raises :class:`SpecError`, as an infeasible image does.
    The members are kept sorted and without repeats: a strictly ascending
    tuple, as every witness play finds or an adversary claims in id order,
    is kept as it is, and anything else is sorted and deduplicated. The
    images are rebuilt from the members alone, for both kinds of class by
    one rule: the OR of the members' row words (:class:`_RowWords`, memoized
    per class) holds each instance's image as one ``n_labels``-bit field.
    """
    ms = plain_ints(
        members, None, None, SpecError, "collection member {value!r} is not a hypothesis index"
    )
    if not all(map(lt, ms, ms[1:])):
        ms = tuple(sorted(set(ms)))
    H = spec.hypotheses
    if not ms:
        raise SpecError("a collection must contain at least one hypothesis")
    if ms[0] < 0 or ms[-1] >= H.size:
        raise SpecError(f"collection members {ms} lie outside range({H.size})")
    images = _images(spec, reduce(or_, map(H._row_words.__getitem__, ms)))
    for x, img in enumerate(images):
        if not spec.set_system.contains(img):
            raise SpecError(
                f"collection image {labels_of(img)} at instance {x} is not a feasible set"
            )
    return _record(Collection, {"members": ms, "images": images})


class AdmissibleFamily(Sequence):
    """A spec's admissible collections in id order, held as two lists of ints.

    ``keys[i]`` is collection ``i``'s member bitmask (``sum(1 << h)``), and
    the keys ascend strictly; ``words[i]`` is its image vector packed in the
    layout of :class:`_RowWords`. Reading an item builds its
    :class:`Collection`, equal to ``collection_of(spec, members)``, and
    nothing else builds one. The family is read-only, and the engine reads
    the words themselves (:func:`image_words`).
    """

    __slots__ = ("spec", "keys", "words")

    def __init__(self, spec: GameSpec, keys: list[int], words: list[int]):
        self.spec = spec
        self.keys = keys
        self.words = words

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self.keys)))]
        return self._collection(self.keys[i], self.words[i])

    def __iter__(self):
        return map(self._collection, self.keys, self.words)

    def subset(self, ids) -> AdmissibleFamily:
        """The family of the collections with these ids, in the order given."""
        return AdmissibleFamily(
            self.spec, [self.keys[i] for i in ids], [self.words[i] for i in ids]
        )

    def _collection(self, key: int, word: int) -> Collection:
        return _record(
            Collection, {"members": tuple(iter_bits(key)), "images": _images(self.spec, word)}
        )


def build_admissible_collections(
    spec: GameSpec, budget: int | None = None
) -> AdmissibleFamily:
    """Every nonempty hypothesis subset whose image at each instance is feasible.

    Collections come back as an :class:`AdmissibleFamily`, a read-only
    sequence ordered by member bitmask (``sum(1 << h)``), and that order is
    the canonical collection id used everywhere else (minimax states,
    tie-breaking, witnesses). The search is :func:`_admissible_walk` over
    the whole class with no targets, the same walk the realizability
    witness search runs. The walk keys each collection's packed image word
    by that bitmask, carried down from prefix to extension, so the id order
    is one sort of ints, and no :class:`Collection` is built until an item
    of the family is read. Each call of the walk charges one node for every
    index from its start index on, so the node count and every
    :class:`BudgetExceeded` outcome are those of the per-candidate search
    that preceded the bitmask one. The walk asks the set system once per
    partial image (:meth:`SetSystem.span_fill`, one scan) both which labels
    can still join it and which complete it to a feasible set, rather than
    once per label and once per candidate.

    Collections with equal image vectors are interchangeable wherever only
    images are read: they survive every reveal together and take the same
    increment on every edge. So the consumers that read only images pass
    this family through :func:`distinct_images` and keep one collection per
    image word: the engine entry points (``ppfl_dim``, ``ppms_dim``,
    ``minimax_rand_regret``), the engine-driven learners and the optimal
    adversary, ``cvsp``, the echo adversary, ``shattering_tree`` and
    ``replicate.worst_case_vs_learner``. The kept collection is the lowest
    id of its image class, so witness members do not change. The seeded
    random adversary keeps the full family, because its final pick is
    uniform over collections, not over image vectors.

    Raises :class:`AdmissibleEmpty` when no collection qualifies,
    :class:`BudgetExceeded` when the pruned search still visits too many nodes
    and :class:`SpecError` for an all-functions class, whose subsets are
    astronomically many and whose label masks are not tabulated.
    """
    limit = _collections_budget() if budget is None else budget
    H = spec.hypotheses
    if H.kind != "explicit":
        raise SpecError("admissible collections need an explicit hypothesis class")
    found = _admissible_walk(spec, (1 << H.size) - 1, (), "admissible-collection search", limit)
    if not found:
        raise AdmissibleEmpty("no admissible collection exists for this specification")
    keys = sorted(found)
    return AdmissibleFamily(spec, keys, list(map(found.__getitem__, keys)))


def _admissible_walk(
    spec: GameSpec, pool: int, targets: tuple, what: str, limit: int
) -> dict[int, int]:
    """The admissible collections drawn from the hypotheses in bitmask ``pool``.

    The walk visits subsets depth-first in preorder: ascending index, each
    prefix before its extensions, so collections come out in lexicographic
    order of their member tuples. It prunes any prefix whose partial image
    at some instance is not contained in any feasible set, since unions only
    grow. Which candidates may join a prefix, and which of them complete an
    admissible collection, are both read from hypothesis bitmasks rather
    than by testing each candidate. For each instance ``x`` and
    partial image ``img`` one :meth:`SetSystem.span_fill` call (memoized per
    walk) gives two label sets: ``span``, the labels ``y`` that keep
    ``img | 1 << y`` inside some feasible set, and ``fill``, the labels for
    which ``img | 1 << y`` is a feasible set. ORing the class's
    :meth:`HypothesisClass.label_masks` entries at ``x`` over each gives
    the pair ``(inside, exact)`` of hypothesis masks. A call's candidates
    are the AND of ``inside`` over all instances, restricted to ``pool``
    from its start index on, and a candidate's collection is admissible iff
    it is also in the AND of ``exact``. So the visiting order, the
    collections and the node charges are those of the per-label,
    per-candidate form, with no membership test per candidate.

    A prefix carries its images as one packed word, in the layout of
    :class:`_RowWords`, so the extension by ``h`` is the prefix's word ORed
    with ``h``'s row word, and no member list or image tuple is built.

    ``targets`` holds ``(instance, set)`` pairs. With none, the walk returns
    every admissible collection. With some, it also prunes a prefix once its
    candidates miss a label some target still lacks, and it stops at the
    first collection whose image at each target instance equals that
    target, one masked compare of its word: it returns that one collection,
    or none. Every call charges one node for each member of ``pool`` from
    its start index on, and past ``limit`` nodes it raises
    :class:`BudgetExceeded` naming ``what``. The
    walk takes one Python frame per member, so a walk deeper than Python's
    recursion limit raises :class:`BudgetExceeded` naming ``what`` too, with
    the nodes spent so far.

    Most calls are leaves that find no candidate, so a call is skipped
    when it provably finds none, with its node charge and budget test kept
    where the call would have made them. ``inside`` only shrinks as an
    image grows, so the candidates of the extension by ``h`` lie inside
    the prefix's remaining candidates (those above ``h``) ANDed with the
    ``inside`` masks of ``h``'s one-label images, read from the same memos
    once per ``h``. When that AND is empty the call is skipped; with
    targets it would have returned before its target test.

    The collections come back as a dict ``{member bitmask: image word}`` in
    visiting order; each call passes its bitmask down to its extensions.
    """
    H = spec.hypotheses
    L = spec.n_labels
    field = (1 << L) - 1
    span_fill = spec.set_system.span_fill
    masks = [H.label_masks(x) for x in range(spec.n_instances)]
    # The label masks by bit position of a packed word: bit x * L + y.
    flat = [hs for table in masks for hs in table]
    shifts = tuple(enumerate(range(0, spec.n_instances * L, L)))
    memos: list[dict[int, tuple[int, int]]] = [{} for _ in range(spec.n_instances)]
    row_words = H._row_words
    pieces: dict[int, tuple[int, int]] = {}
    # The target test: the word's fields at the target instances equal the targets.
    target_mask = target_word = 0
    for x, m in targets:
        target_mask |= field << x * L
        target_word |= m << x * L

    def answer(x: int, img: int) -> tuple[int, int]:
        span, fill = span_fill(img)
        table = masks[x]
        inside = exact = 0
        while span:
            low = span & -span
            span ^= low
            hs = table[low.bit_length() - 1]
            inside |= hs
            if low & fill:
                exact |= hs
        hit = memos[x][img] = (inside, exact)
        return hit

    def piece(h: int) -> tuple[int, int]:
        row = row_words[h]
        alone = -1
        for x, shift in shifts:
            img = row >> shift & field
            alone &= (memos[x].get(img) or answer(x, img))[0]
        hit = pieces[h] = (row, alone)
        return hit

    charge = [(pool >> start).bit_count() for start in range(H.size + 1)]
    out: dict[int, int] = {}
    nodes = 0
    exceeded = f"{what} exceeded {limit} nodes"

    def rec(start: int, word: int, key: int) -> bool:
        nonlocal nodes
        nodes += charge[start]
        if nodes > limit:
            raise BudgetExceeded(exceeded, spent=nodes, budget=limit)
        cand = admissible = pool >> start << start
        for x, shift in shifts:
            img = word >> shift & field
            inside, exact = memos[x].get(img) or answer(x, img)
            cand &= inside
            if not cand:
                return False
            admissible &= exact
        lacking = target_word & ~word
        while lacking:
            low = lacking & -lacking
            lacking ^= low
            if not cand & flat[low.bit_length() - 1]:
                return False
        while cand:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            row, alone = pieces.get(h) or piece(h)
            new_word = word | row
            if low & admissible and new_word & target_mask == target_word:
                out[key | low] = new_word
                if targets:
                    return True
            if cand & alone:
                if rec(h + 1, new_word, key | low):
                    return True
            else:
                # The child call would find no candidate: charge it and skip it.
                nodes += charge[h + 1]
                if nodes > limit:
                    raise BudgetExceeded(exceeded, spent=nodes, budget=limit)
        return False

    try:
        rec(0, 0, 0)
    except RecursionError:
        raise BudgetExceeded(
            f"{what} exceeds Python's recursion limit", spent=nodes, budget=limit
        ) from None
    finally:
        del rec  # its closure holds rec itself: a cycle only the cyclic collector frees
    return out


def distinct_images(family: AdmissibleFamily) -> AdmissibleFamily:
    """The lowest-id collection of each image vector, in id order.

    Any walk that reads only images and takes the first consistent
    collection in id order picks the same collection from this family as
    from the full one: the first consistent collection is always the lowest
    id of its image class. The kept family holds the lowest key of each
    word, and no :class:`Collection` is built.
    """
    words = family.words
    # Filled from the highest id down, so each word keeps its lowest id.
    lowest = dict(zip(reversed(words), range(len(words) - 1, -1, -1)))
    return family.subset(sorted(lowest.values()))


# -- transcripts -----------------------------------------------------------------


@dataclass(frozen=True)
class Transcript:
    """One completed trajectory of a game."""

    instances: tuple[int, ...]
    predictions: tuple[Prediction, ...]
    reveals: tuple[Optional[int], ...]
    sets: tuple[int, ...]
    loss: Fraction
    comparator: Fraction
    regret: Fraction
    draws: Optional[tuple[int, ...]] = None
    witness: Optional[Collection] = None


@dataclass(frozen=True)
class PublicBranch:
    probability: Fraction
    transcript: Transcript


@dataclass(frozen=True)
class PublicGameResult:
    """A public-visibility game: every draw trajectory with its probability."""

    branches: tuple[PublicBranch, ...]
    expected_loss: Fraction
    expected_comparator: Fraction
    expected_regret: Fraction


@dataclass(frozen=True)
class GameView:
    """What the adversary gets to see when committing to its sets.

    ``draws`` is ``None`` unless the game is public.
    """

    spec: GameSpec
    instances: tuple[int, ...]
    predictions: tuple[Prediction, ...]
    reveals: tuple[Optional[int], ...]
    draws: Optional[tuple[int, ...]] = None


def _record(cls, fields: dict):
    """The instance of frozen dataclass ``cls`` that ``cls(**fields)`` makes.

    ``fields`` names every field of ``cls`` in declaration order. The
    instance compares, hashes, prints, pickles and refuses assignment as a
    constructed one does, but is made without the generated ``__init__``'s
    one ``object.__setattr__`` call per field. Play builds every leaf's
    :class:`GameView`, :class:`Transcript` and :class:`PublicBranch` this way,
    and :class:`AdmissibleFamily` and :func:`collection_of` every
    :class:`Collection`.
    """
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


# -- strategy interfaces ----------------------------------------------------------


def _fork(strategy):
    """A twin of ``strategy`` that continues exactly as a deep copy would.

    Public play forks the strategies at every draw with a later sibling.
    The twin holds the same attribute values, not copies of them, so this
    is the fork of every strategy that, after ``begin``, rebinds its
    attributes and never mutates what they hold: an engine, a pure memo,
    is then shared by a strategy and its forks. A strategy holding a
    mutable object overrides ``fork`` to copy it.
    """
    twin = object.__new__(type(strategy))
    twin.__dict__.update(strategy.__dict__)
    return twin


class Learner:
    """Base class for learners. Subclasses override what they need.

    ``mode`` declares the prediction type: ``"deterministic"`` learners return
    label ints from :meth:`predict`, ``"randomized"`` learners return
    :class:`Measure` objects. A learner must behave as a pure function of the
    observation sequence it has been fed; the engine and the test suite check
    this by replay.
    """

    mode = "deterministic"

    def begin(self, spec: GameSpec) -> None:
        pass

    def predict(self, x: int) -> Prediction:
        raise NotImplementedError

    def observe(self, y: int) -> None:
        pass

    def observe_set(self, mask: int) -> None:
        pass

    def observe_loss_bit(self, bit: int) -> None:
        pass

    def observe_draw(self, z: int) -> None:
        pass

    fork = _fork


class Adversary:
    """Base class for adversaries.

    An adversary sees the learner's prediction (the distribution itself for a
    randomized learner) when revealing, and in public games additionally sees
    each realized draw through ``observe_draw``. ``finalize_sets`` commits to
    the per-round feasible sets once the last round has been played; its
    :class:`GameView` holds the whole record (instances, predictions, reveals
    and, in public games, draws), so an adversary needs no copy of its own.
    Under set-valued feedback play takes the revealed sets as the game's sets
    and never calls ``finalize_sets``. ``witness_collection`` may return
    hypothesis indices certifying those sets when the game claims full
    realizability, or ``None`` to leave the witness search to play.
    """

    def begin(self, spec: GameSpec) -> None:
        pass

    def choose_instance(self) -> int:
        raise NotImplementedError

    def reveal(self, x: int, prediction: Prediction) -> int:
        raise NotImplementedError

    def reveal_set(self, x: int, prediction: Prediction) -> int:
        raise SpecError(
            f"adversary {type(self).__name__} does not support "
            f"{Feedback.SET_VALUED.value} feedback"
        )

    def loss_bit(self, x: int, prediction: Prediction) -> int:
        raise SpecError(
            f"adversary {type(self).__name__} does not support {Feedback.BANDIT.value} feedback"
        )

    def observe_draw(self, z: int) -> None:
        pass

    def finalize_sets(self, view: GameView) -> Sequence[int]:
        raise NotImplementedError

    def witness_collection(self) -> Optional[Sequence[int]]:
        return None

    fork = _fork


REQUIRED = object()


def integer(value) -> int:
    """Strategy parameter kind: a plain int, or its ASCII decimal text (:func:`is_decimal`).

    Floats and bools are rejected rather than truncated or read as 0 and 1.
    """
    if type(value) is str and is_decimal(value, signed=True):
        return int(value)
    return plain_int(value, None, None, TypeError, "{value!r}")


def fraction(value) -> Fraction:
    """Strategy parameter kind: an exact number (a ``Fraction`` or a plain int) or its text.

    Text must pass :func:`is_rational` and is read exactly, so ``"1/10"``
    and ``"0.1"`` are both 1/10. A float is a rounded binary value and a
    bool is no number: both are rejected.
    """
    if type(value) is str:
        if not is_rational(value):
            raise ValueError(value)
        return Fraction(value)
    return Fraction(exact_number(value, None, None, TypeError, "{value!r}"))


def int_list(value) -> list:
    """Strategy parameter kind: a list of plain ints."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(value)
    return list(plain_ints(value, None, None, TypeError, "{value!r}"))


def strategy_param(params: dict, strategy: str, key: str, kind, default=REQUIRED):
    """Pop parameter ``key`` of the named strategy from its config ``params``.

    ``kind`` is :func:`integer`, :func:`fraction` or :func:`int_list` to convert
    or check the value with. A missing key returns ``default``. Raises
    :class:`SpecError` when a required key is missing or the value does not
    convert.
    """
    if key not in params:
        if default is REQUIRED:
            raise SpecError(f"strategy {strategy!r} requires parameter {key!r}")
        return default
    value = params.pop(key)
    try:
        return kind(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise SpecError(
            f"parameter {key!r} of {strategy!r} is not a valid {kind.__name__}: {value!r}"
        ) from None


# -- loss and comparator ----------------------------------------------------------


def _round_loss(move: Prediction, mask: int) -> Union[Fraction, int]:
    """Loss of one round: the mass a measure puts outside ``mask``, or 0/1 for a label."""
    if isinstance(move, Measure):
        return move.miss_mass(mask)
    return 0 if (mask >> move) & 1 else 1


def comparator_loss(transcript: Transcript, spec: GameSpec) -> Fraction:
    """Loss of the best fixed hypothesis in hindsight on this transcript.

    Charges one per round where the hypothesis's output at that round's
    instance falls outside the finalized feasible set, minimized over the
    class. For the every-function class the minimum decomposes per instance:
    pick, for each instance, the label excluded from the fewest of its rounds'
    sets.

    Under full set-realizability the value is zero, but only after
    :func:`_outcome` has checked the invariant: an admissible collection must
    match every finalized set (the transcript's own witness if present,
    otherwise one found by search), else RealizabilityViolation.
    """
    if spec.realizability is Realizability.SET_REALIZABLE:
        witness = transcript.witness
        claimed = None if witness is None else witness.members
        return _outcome(spec, transcript.instances, transcript.sets, claimed)[0]
    return _comparator(spec, transcript.instances, transcript.sets)


def _comparator(spec: GameSpec, instances, sets) -> Fraction:
    H = spec.hypotheses
    if H.kind == "all_functions":
        # misses[x][y]: rounds at instance x whose set excludes label y.
        full = (1 << spec.n_labels) - 1
        misses: dict[int, list[int]] = {}
        for x, m in zip(instances, sets):
            row = misses.setdefault(x, [0] * spec.n_labels)
            for y in iter_bits(full & ~m):
                row[y] += 1
        return Fraction(sum(min(row) for row in misses.values()))
    # levels[j]: the hypotheses whose outputs fell outside j of the rounds so far.
    levels = [(1 << H.size) - 1]
    for x, m in zip(instances, sets):
        masks = H.label_masks(x)
        inside = sum(masks[y] for y in iter_bits(m))
        levels = [a & inside | b & ~inside for a, b in zip(levels + [0], [0] + levels)]
    return Fraction(next(j for j, hs in enumerate(levels) if hs))


# -- realizability validation ------------------------------------------------------


def find_realizability_witness(spec: GameSpec, instances, sets) -> Optional[tuple[int, ...]]:
    """A collection realizing exactly the given sets at the played instances.

    Searches for hypothesis indices whose collection has image equal to
    ``sets[t]`` at ``instances[t]`` for every round, and a feasible image at
    every other instance. Returns ``None`` when no such collection exists.

    Only hypotheses consistent with every round (output inside that round's
    set) can participate: the AND, over the played instances, of the OR of
    the label masks of that instance's set. For an explicit class the search
    is the enumeration's own walk, :func:`_admissible_walk`, drawing from
    that consistent class with the sets as targets, so the witness is the
    lexicographically first admissible member tuple that realizes them. It
    takes the enumeration's node rule (each call charges one node per
    consistent hypothesis from its start index on) and raises
    :class:`BudgetExceeded` past ``PFLAB_BUDGET_COLLECTIONS`` nodes.

    An all-functions class has a closed-form product witness instead: one
    base row of the lowest label of each instance's pool (its round set, or
    any member set at an untouched instance) plus every row that differs
    from it at a single instance, inside that instance's pool. Its members
    are sums of per-instance pieces cached on the class (see
    :class:`_PoolPieces`): the base is the sum of the lowest labels' place
    values, and each other member is the base plus one offset. An offset at
    instance ``x`` is a multiple of ``n_labels ** (n_instances - 1 - x)``
    below the next power, so the offsets taken from the last instance to
    the first come out ascending, and so do the members.

    Raises :class:`SpecError` when ``instances`` and ``sets`` differ in
    length, an instance is not a plain int in ``range(n_instances)`` or a
    set is not a plain nonnegative int (a label mask).
    """
    if len(instances) != len(sets):
        raise SpecError(f"{len(instances)} instances and {len(sets)} sets differ in length")
    n = spec.n_instances
    targets: dict[int, int] = {}
    for x, m in zip(instances, sets):
        plain_int(x, 0, n, SpecError, "instance {value!r} outside range({hi})")
        label_mask(m, SpecError, "set {value!r} is not a label mask")
        if targets.setdefault(x, m) != m:
            return None  # two different sets at one instance can never be one image
    H = spec.hypotheses
    system = spec.set_system
    if not all(map(system.contains, targets.values())):
        return None  # an image must be a member set

    if H.kind == "all_functions":
        # The consistent class is a product set, so the product collection
        # realizes the targets exactly; existence reduces to the consistency
        # and membership checks already done above.
        pieces = H._pool_pieces
        fallback = _any_member(system)
        base = 0
        offsets: list[int] = []
        for x in range(n - 1, -1, -1):
            low, others = pieces[x, targets.get(x, fallback)]
            base += low
            offsets += others
        return (base, *[base + o for o in offsets])

    consistent = (1 << H.size) - 1
    for x, m in targets.items():
        masks = H.label_masks(x)
        consistent &= sum(masks[y] for y in iter_bits(m))
    what = "realizability witness search"
    found = _admissible_walk(spec, consistent, tuple(targets.items()), what, _collections_budget())
    return tuple(iter_bits(next(iter(found)))) if found else None


def _any_member(system: SetSystem) -> int:
    if system.kind == "explicit":
        return system.masks[0]
    return 1  # the singleton of label 0 is always a member of a bounded system


def _validate_witness(spec: GameSpec, witness, instances, sets) -> Collection:
    try:
        col = collection_of(spec, witness)
    except SpecError as e:
        raise RealizabilityViolation(f"the claimed witness is not admissible: {e}") from e
    for t, (x, m) in enumerate(zip(instances, sets)):
        if col.images[x] != m:
            raise RealizabilityViolation(
                f"witness image {labels_of(col.images[x])} at round {t} does not match "
                f"the finalized set {labels_of(m)}"
            )
    return col


def _outcome(spec: GameSpec, instances, sets, claimed) -> tuple[Fraction, Optional[Collection]]:
    """The comparator and the validated witness of a finished game.

    Under set realizability some admissible collection must have the sets as
    its images at the played instances: the ``claimed`` members, or else the
    one :func:`find_realizability_witness` finds; RealizabilityViolation if
    there is none or the claim does not check. Every member of that
    collection outputs inside every round's set, so the best fixed
    hypothesis loses nothing: the comparator is 0 with no scan of the class.
    In the other modes the comparator is :func:`_comparator`'s scan, which
    existence realizability requires to be 0, and there is no witness.
    """
    mode = spec.realizability
    if mode is Realizability.SET_REALIZABLE:
        if claimed is None:
            claimed = find_realizability_witness(spec, instances, sets)
            if claimed is None:
                raise RealizabilityViolation(
                    "declared fully realizable but no collection realizes the finalized sets"
                )
        return ZERO, _validate_witness(spec, claimed, instances, sets)
    comparator = _comparator(spec, instances, sets)
    if mode is Realizability.EXISTENCE_REALIZABLE and comparator:
        raise RealizabilityViolation(
            f"declared existence-realizable but the best hypothesis loses {comparator}"
        )
    return comparator, None


# -- the play engine ---------------------------------------------------------------


def _check_prediction(spec: GameSpec, pred: Prediction, learner: Learner) -> Prediction:
    if isinstance(pred, Measure):
        if pred.n_labels != spec.n_labels:
            raise ProtocolViolation(
                f"prediction measure over {pred.n_labels} labels in a {spec.n_labels}-label game"
            )
        if getattr(learner, "mode", None) == "deterministic" and not pred.is_delta():
            raise ProtocolViolation("a deterministic learner produced a spread-out measure")
        return pred
    return plain_int(
        pred, 0, spec.n_labels, ProtocolViolation, "predicted label {value} outside range({hi})",
        "prediction must be a plain int label or a Measure, got {value!r} of type {type}",
    )


@dataclass
class _Branch:
    """One trajectory in play: its strategies, its probability and its history.

    The probability is ``num / den``, two ints kept unreduced: each draw
    multiplies them by its weight's numerator and denominator, so a branch
    costs no :class:`Fraction` arithmetic on its way down the tree.
    """

    learner: Learner
    adversary: Adversary
    num: int = 1
    den: int = 1
    instances: tuple = ()
    predictions: tuple = ()
    reveals: tuple = ()
    draws: Optional[tuple] = None  # None unless visibility is public
    online_sets: tuple = ()  # revealed sets under set-valued feedback
    bits: tuple = ()  # loss bits under bandit feedback

    def observed(self, z: int, shared: bool) -> tuple[Learner, Adversary]:
        """The strategies of the child where the draw came out ``z``.

        A ``shared`` child plays on forks of the strategies, because a later
        sibling still needs them as they are now. Both have observed ``z``.
        """
        learner, adversary = self.learner, self.adversary
        if shared:
            learner = learner.fork()
            adversary = adversary.fork()
        learner.observe_draw(z)
        adversary.observe_draw(z)
        return learner, adversary

    def drawn(self, z: int, weight: Fraction, shared: bool) -> "_Branch":
        """The child where the draw came out ``z``, with probability ``weight``.

        Its strategies are :meth:`observed`'s. Only public games draw, and
        they take neither revealed sets nor loss bits.
        """
        learner, adversary = self.observed(z, shared)
        return _Branch(
            learner=learner,
            adversary=adversary,
            num=self.num * weight.numerator,
            den=self.den * weight.denominator,
            instances=self.instances,
            predictions=self.predictions,
            reveals=self.reveals,
            draws=self.draws + (z,),
        )


def _play_round(spec: GameSpec, b: _Branch) -> Prediction:
    """Play one round on ``b``, appending it to the branch's history."""
    x = plain_int(
        b.adversary.choose_instance(), 0, spec.n_instances, ProtocolViolation,
        "instance {value} outside range({hi})",
        "instance must be a plain int, got {value!r} of type {type}",
    )
    pred = _check_prediction(spec, b.learner.predict(x), b.learner)
    b.instances += (x,)
    b.predictions += (pred,)
    if spec.feedback is Feedback.SET_VALUED:
        mask = label_mask(
            b.adversary.reveal_set(x, pred), ProtocolViolation,
            "revealed set must be a label bitmask, got {value!r}",
        )
        if not spec.set_system.contains(mask):
            raise ProtocolViolation(
                f"revealed set {labels_of(mask)} is not in the set system"
            )
        b.online_sets += (mask,)
        b.reveals += (min(iter_bits(mask)),)
        b.learner.observe_set(mask)
    elif spec.feedback is Feedback.BANDIT:
        if isinstance(pred, Measure):
            raise ProtocolViolation("bandit feedback requires deterministic predictions")
        bit = plain_int(
            b.adversary.loss_bit(x, pred), 0, 2, ProtocolViolation,
            "loss bit must be 0 or 1, got {value!r}",
        )
        b.bits += (bit,)
        b.reveals += (None,)
        b.learner.observe_loss_bit(bit)
    else:
        y = plain_int(
            b.adversary.reveal(x, pred), 0, spec.n_labels, ProtocolViolation,
            "revealed label {value} outside range({hi})",
            "revealed label must be a plain int, got {value!r} of type {type}",
        )
        b.reveals += (y,)
        b.learner.observe(y)
    return pred


def _fraction(fractions: dict, num: int, den: int) -> Fraction:
    """``Fraction(num, den)``, built once per distinct pair in a play's ``fractions``."""
    f = fractions.get((num, den))
    if f is None:
        f = fractions[num, den] = Fraction(num, den)
    return f


_FINALIZED = "finalized set must be a label bitmask, got {value!r}"


def _settle(
    spec: GameSpec, b: _Branch, adversary: Adversary, draws, checked: dict, fractions: dict
) -> Transcript:
    """Finalize a leaf's sets, check and score them.

    The leaf is a child of ``b``, whose round was the last: it has ``b``'s
    history, ``adversary`` as its adversary and ``draws`` as its draws
    (``None`` in an oblivious game, whose one child is ``b`` itself).

    ``checked`` is the play's memo of what depends only on a leaf's
    outcome, under two kinds of key:

    - ``(reveals, sets)``: the per-round checks passed for that pair (every
      set is a member of the system and holds its round's reveal, and under
      multiclass feedback it is a singleton);
    - ``(instances, sets, claimed witness members)``: :func:`_outcome`'s
      comparator and validated witness. Under set realizability the
      comparator is 0 once the witness checks; an adversary that claims
      ``None`` leaves the witness search to this step.

    Each is pure in its key, so a repeated outcome reuses it, and a bad
    outcome still raises at the first leaf that produces it. Every leaf
    still calls the adversary's ``finalize_sets`` and ``witness_collection``
    and runs the sequence and length checks, the plain-int checks on the
    sets and on the claimed witness, the bandit loss bits and the loss. A
    type check never reads the memo: ``True == 1``, so a hit could let a bool
    pass as the int it equals. A public leaf's loss is its int count of draws
    outside their sets, made a :class:`Fraction` by :func:`_fraction`. The
    leaf's :class:`GameView` and :class:`Transcript` are built by
    :func:`_record`, with no per-field ``object.__setattr__``.
    """
    if spec.feedback is Feedback.SET_VALUED:
        sets = b.online_sets
    else:
        view = _record(
            GameView,
            {
                "spec": spec,
                "instances": b.instances,
                "predictions": b.predictions,
                "reveals": b.reveals,
                "draws": draws,
            },
        )
        raw = adversary.finalize_sets(view)
        # The exact-type test only skips the slower ABC check for the common answers.
        if type(raw) is not tuple and type(raw) is not list and not isinstance(raw, Sequence):
            raise ProtocolViolation(
                f"finalized sets must be a sequence of label bitmasks, got {raw!r}"
            )
        if len(raw) != spec.horizon:
            raise ProtocolViolation(
                f"adversary finalized {len(raw)} sets for a {spec.horizon}-round game"
            )
        # Types on every leaf, signs once per distinct outcome below: a memo
        # hit compares equal sets, but True == 1.
        sets = plain_ints(raw, None, None, ProtocolViolation, _FINALIZED)
    rounds = (b.reveals, sets)
    if rounds not in checked:
        system = spec.set_system
        multiclass = spec.feedback is Feedback.MULTICLASS
        for t, (m, y) in enumerate(zip(sets, b.reveals)):
            if not system.contains(label_mask(m, ProtocolViolation, _FINALIZED)):
                raise ProtocolViolation(
                    f"finalized set {labels_of(m)} at round {t} is not in the set system"
                )
            if y is not None and not (m >> y) & 1:
                raise ProtocolViolation(
                    f"revealed label {y} at round {t} lies outside the finalized set {labels_of(m)}"
                )
            if multiclass and m != (1 << y):
                raise ProtocolViolation(
                    f"multiclass feedback requires singleton sets, got {labels_of(m)} at round {t}"
                )
        checked[rounds] = True
    for t, (pred, m, bit) in enumerate(zip(b.predictions, sets, b.bits)):
        actual = 0 if (m >> pred) & 1 else 1
        if actual != bit:
            raise ProtocolViolation(
                f"bandit loss bit at round {t} was {bit} but the finalized set implies {actual}"
            )
    # A public leaf is charged for its realized draws, an oblivious one for
    # its predictions themselves.
    if draws is None:
        loss = Fraction(sum(map(_round_loss, b.predictions, sets)))
    else:
        hits = sum([m >> z & 1 for z, m in zip(draws, sets)])
        loss = _fraction(fractions, spec.horizon - hits, 1)
    claimed = adversary.witness_collection()
    if claimed is not None:
        claimed = plain_ints(
            claimed, None, None, RealizabilityViolation,
            "the claimed witness is not admissible: collection member {value!r} is not a "
            "hypothesis index",
        )
    key = (b.instances, sets, claimed)
    known = checked.get(key)
    if known is None:
        known = checked[key] = _outcome(spec, b.instances, sets, claimed)
    comparator, witness = known
    # With a zero comparator the regret is the loss's own Fraction: a public
    # game keeps every leaf's transcript, so one object less per leaf.
    return _record(
        Transcript,
        {
            "instances": b.instances,
            "predictions": b.predictions,
            "reveals": b.reveals,
            "sets": sets,
            "loss": loss,
            "comparator": comparator,
            "regret": loss - comparator if comparator else loss,
            "draws": draws,
            "witness": witness,
        },
    )


def play_game(spec: GameSpec, learner: Learner, adversary: Adversary):
    """Run one game to completion.

    Returns a :class:`Transcript` for oblivious games and a
    :class:`PublicGameResult` for public ones. All protocol rules are
    enforced; violations raise :class:`ProtocolViolation`, and at the end the
    declared realizability mode is verified against the finalized sets
    (raising :class:`RealizabilityViolation` on failure).

    Both visibilities run through one loop over branches. An oblivious game
    is a single branch of probability 1 with no draws, and its transcript is
    that branch's. A public game splits a branch after every round into one
    child per label the prediction can draw, weighted by its probability, and
    plays the children depth-first in ascending draw order. Every child but
    the last plays on forks of the strategies (:meth:`Learner.fork`,
    :meth:`Adversary.fork`); the last keeps the originals. The loop keeps
    the branches with rounds left to play on a stack, so the horizon is not
    bounded by Python's recursion limit, and each child is made from its
    parent only when it is popped.

    The leaf rule: when the round just played was the last, the loop settles
    that round's children where they are drawn, in ascending draw order and
    with the same fork rule, and never pushes them; an oblivious game's one
    child is the branch itself. Each leaf ends in :func:`_settle`, which
    asks the adversary for its sets and claimed witness and type-checks both
    on every leaf. The checks that depend only on the outcome run once per
    distinct outcome in the play: the per-round set checks once per distinct
    reveals and sets, and :func:`_outcome` (the comparator and realizability
    check) once per distinct instances, sets and claimed witness.

    A branch carries its probability as an unreduced integer fraction (see
    :class:`_Branch`). Each leaf's :class:`PublicBranch`, built by
    :func:`_record` as its view and transcript are, gets the reduced
    :class:`Fraction`, built once per distinct ``(num, den)`` in the play by
    :func:`_fraction` (in uniform play every leaf shares one), as is a public
    leaf's loss. Its probability, probability times loss and probability
    times comparator are added as integer numerators into one sum per
    denominator; zero terms are skipped. Each expectation is then one
    :class:`Fraction` per denominator, summed, so the probabilities are
    still checked to total exactly 1.
    """
    public = spec.visibility is Visibility.PUBLIC
    if public and spec.feedback in (Feedback.SET_VALUED, Feedback.BANDIT):
        raise SpecError(f"public visibility is not supported with {spec.feedback.value} feedback")
    learner.begin(spec)
    adversary.begin(spec)
    # Entries are (branch, draw, weight, shared) for a child with rounds left
    # to play; ``draw`` is None for the root and for every oblivious round.
    stack = [(_Branch(learner, adversary, draws=() if public else None), None, ONE, False)]
    ends: list[PublicBranch] = []
    checked: dict = {}
    fractions: dict = {}  # (num, den) -> its reduced Fraction
    # Denominator -> summed numerators of probability, loss and comparator.
    mass: dict = {}
    weighted: tuple[dict, dict] = ({}, {})
    while stack:
        branch, z, weight, shared = stack.pop()
        if z is not None:
            branch = branch.drawn(z, weight, shared)
        pred = _play_round(spec, branch)
        if not public:
            children = [(None, ONE)]
        elif isinstance(pred, Measure):
            children = [(d, pred.weights[d]) for d in iter_bits(pred.support_mask())]
        else:
            children = [(pred, ONE)]
        last = len(children) - 1
        if len(branch.instances) < spec.horizon:
            for i in range(last, -1, -1):  # pushed in reverse: the lowest draw pops first
                stack.append((branch, *children[i], i < last))
            continue
        # The round just played was the last: settle its children here.
        for i, (z, weight) in enumerate(children):
            leaf_adversary, draws = branch.adversary, branch.draws
            num, den = branch.num, branch.den
            if z is not None:
                leaf_adversary = branch.observed(z, i < last)[1]
                draws += (z,)
                num *= weight.numerator
                den *= weight.denominator
            t = _settle(spec, branch, leaf_adversary, draws, checked, fractions)
            ends.append(
                _record(PublicBranch, {"probability": _fraction(fractions, num, den), "transcript": t})
            )
            mass[den] = mass.get(den, 0) + num
            for into, value in zip(weighted, (t.loss, t.comparator)):
                n = value.numerator
                if n:  # a zero adds nothing
                    d = den * value.denominator
                    into[d] = into.get(d, 0) + num * n
    if not public:
        return ends[0].transcript
    total, e_loss, e_comp = (
        sum((Fraction(n, d) for d, n in into.items()), ZERO) for into in (mass, *weighted)
    )
    if total != 1:
        raise ProtocolViolation(f"draw branch probabilities sum to {total}, expected 1")
    return PublicGameResult(
        branches=tuple(ends),
        expected_loss=e_loss,
        expected_comparator=e_comp,
        expected_regret=e_loss - e_comp,
    )


def replay_predictions(spec: GameSpec, transcript: Transcript, learner: Learner):
    """Drive a fresh learner along a recorded trajectory; return its predictions.

    Used to check that a learner is a pure function of what it observed: the
    returned sequence must equal ``transcript.predictions``.
    """
    learner.begin(spec)
    out = []
    for t, x in enumerate(transcript.instances):
        out.append(learner.predict(x))
        if spec.feedback is Feedback.SET_VALUED:
            learner.observe_set(transcript.sets[t])
        elif spec.feedback is Feedback.BANDIT:
            pred = transcript.predictions[t]
            learner.observe_loss_bit(0 if (transcript.sets[t] >> pred) & 1 else 1)
        else:
            learner.observe(transcript.reveals[t])
        if transcript.draws is not None:
            learner.observe_draw(transcript.draws[t])
    return tuple(out)

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

import copy
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    AdmissibleEmpty,
    BudgetExceeded,
    ProtocolViolation,
    RealizabilityViolation,
    SpecError,
    env_budget,
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
            for v in r:
                if not 0 <= v < n_labels:
                    raise SpecError(f"hypothesis output {v} outside range({n_labels})")
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
        powers = getattr(self, "_powers", None)
        if powers is None:
            powers = tuple(
                self.n_labels ** (self.n_instances - 1 - x)
                for x in range(self.n_instances)
            )
            object.__setattr__(self, "_powers", powers)
        return (h // powers[x]) % self.n_labels

    def __deepcopy__(self, memo):
        return self

    def row(self, h: int) -> tuple[int, ...]:
        if self.kind == "explicit":
            return self.rows[h]
        digits = [0] * self.n_instances
        for x in range(self.n_instances - 1, -1, -1):
            h, digits[x] = divmod(h, self.n_labels)
        return tuple(digits)

    def index_of_row(self, row: Sequence[int]) -> int:
        if self.kind == "explicit":
            idx = getattr(self, "_row_index", None)
            if idx is None:
                idx = {r: i for i, r in enumerate(self.rows)}
                object.__setattr__(self, "_row_index", idx)
            return idx[tuple(row)]
        h = 0
        for v in row:
            h = h * self.n_labels + v
        return h


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
        if self.n_instances < 1:
            raise SpecError("need at least one instance")
        if self.n_labels < 2:
            raise SpecError("need at least two labels")
        if self.horizon < 1:
            raise SpecError("horizon must be at least 1")
        if self.measure_grid < 1:
            raise SpecError("measure_grid must be a positive integer")
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

    def __deepcopy__(self, memo):
        return self


# -- admissible collections ------------------------------------------------------


@dataclass(frozen=True)
class Collection:
    """A set of hypotheses whose image at every instance is a feasible set."""

    members: tuple[int, ...]
    images: tuple[int, ...]  # one bitmask per instance

    def __len__(self) -> int:
        return len(self.members)


def collection_of(spec: GameSpec, members) -> Collection:
    """Build a :class:`Collection` from hypothesis indices, validating feasibility."""
    ms = tuple(sorted(set(members)))
    if not ms:
        raise SpecError("a collection must contain at least one hypothesis")
    if ms[0] < 0 or ms[-1] >= spec.hypotheses.size:
        raise SpecError(
            f"collection members {ms} lie outside range({spec.hypotheses.size})"
        )
    images = [0] * spec.n_instances
    for h in ms:
        for x, y in enumerate(spec.hypotheses.row(h)):
            images[x] |= 1 << y
    for x, img in enumerate(images):
        if not spec.set_system.contains(img):
            raise SpecError(
                f"collection image {labels_of(img)} at instance {x} is not a feasible set"
            )
    return Collection(members=ms, images=tuple(images))


def build_admissible_collections(
    spec: GameSpec, budget: int | None = None
) -> list[Collection]:
    """Every nonempty hypothesis subset whose image at each instance is feasible.

    Collections come back ordered by member bitmask (``sum(1 << h)``), and
    that order is the canonical collection id used everywhere else (minimax
    states, tie-breaking, witnesses). The search walks subsets depth-first in
    index order and prunes any prefix whose partial image at some instance is
    not contained in any feasible set, since unions only grow.

    Feasible next members are found with hypothesis bitmasks rather than by
    testing each candidate: ``by_label[x][y]`` is the mask of hypotheses with
    label ``y`` at instance ``x``, and ``allowed(x, img)`` (memoized per
    search) is the OR of ``by_label[x][y]`` over the labels ``y`` that keep
    ``img | 1 << y`` inside some feasible set. A node's candidates are the AND
    of ``allowed`` over all instances, restricted to indices from ``start``
    on, walked in ascending order. The search still charges one node for
    every index from ``start`` on at each call, as the per-candidate loop did,
    and visits the same calls, so the node count and every
    :class:`BudgetExceeded` outcome are unchanged.

    Collections with equal image vectors are interchangeable wherever only
    images are read: they survive every reveal together and take the same
    increment on every edge. So the consumers that read only images pass
    this list through :func:`distinct_images` and keep one collection per
    image vector: the engine entry points (``ppfl_dim``, ``ppms_dim``,
    ``minimax_rand_regret``), the engine-driven learners and the optimal
    adversary, ``cvsp``, the echo adversary, ``naive_tree_oracle`` and
    ``replicate.worst_case_vs_learner``. The kept collection is the lowest
    id of its image class, so witness members do not change. The seeded
    random adversary keeps the full list, because its final pick is uniform
    over collections, not over image vectors.

    Raises :class:`AdmissibleEmpty` when no collection qualifies and
    :class:`BudgetExceeded` when the pruned search still visits too many nodes
    (the hypothesis class of every-function kind is rejected outright, its
    subsets being astronomically many).
    """
    limit = _collections_budget() if budget is None else budget
    H = spec.hypotheses
    if H.kind != "explicit":
        raise BudgetExceeded(
            "admissible collections over an all-functions class are not enumerable"
        )
    n = H.size
    system = spec.set_system
    rows = H.rows
    by_label = [[0] * spec.n_labels for _ in range(spec.n_instances)]
    for h, row in enumerate(rows):
        for x, y in enumerate(row):
            by_label[x][y] |= 1 << h
    labelled = [
        [(1 << y, hs) for y, hs in enumerate(masks) if hs] for masks in by_label
    ]
    allowed_memo: list[dict[int, int]] = [{} for _ in range(spec.n_instances)]

    def allowed(x: int, img: int) -> int:
        hit = allowed_memo[x].get(img)
        if hit is None:
            hit = 0
            for bit, hs in labelled[x]:
                if system.superset_exists(img | bit):
                    hit |= hs
            allowed_memo[x][img] = hit
        return hit

    out: list[Collection] = []
    nodes = 0

    def rec(start: int, members: list[int], images: list[int]):
        nonlocal nodes
        nodes += n - start
        if nodes > limit:
            raise BudgetExceeded(
                f"admissible-collection search exceeded {limit} nodes",
                spent=nodes,
                budget=limit,
            )
        cand = (1 << n) - (1 << start)
        for x, img in enumerate(images):
            cand &= allowed(x, img)
            if not cand:
                return
        while cand:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            new_images = [img | (1 << y) for img, y in zip(images, rows[h])]
            members.append(h)
            if all(system.contains(img) for img in new_images):
                out.append(Collection(members=tuple(members), images=tuple(new_images)))
            rec(h + 1, members, new_images)
            members.pop()

    rec(0, [], [0] * spec.n_instances)
    if not out:
        raise AdmissibleEmpty("no admissible collection exists for this specification")
    out.sort(key=lambda col: sum(1 << h for h in col.members))
    return out


def distinct_images(collections: Sequence[Collection]) -> list[Collection]:
    """The lowest-id collection of each image vector, in id order.

    Any walk that reads only images and takes the first consistent
    collection in id order picks the same collection from this list as from
    the full one: the first consistent collection is always the lowest id of
    its image class.
    """
    first: dict = {}
    for col in collections:
        first.setdefault(col.images, col)
    return list(first.values())


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
    """What the adversary gets to see when committing to its sets."""

    spec: GameSpec
    instances: tuple[int, ...]
    predictions: tuple[Prediction, ...]
    reveals: tuple[Optional[int], ...]
    draws: Optional[tuple[int, ...]] = None


# -- strategy interfaces ----------------------------------------------------------


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

    def fork(self) -> "Learner":
        """An independent copy that continues exactly as this learner would.

        Public play forks the strategies at every draw with a later sibling.
        The default is a deep copy; a subclass whose state is cheaper to copy
        may override it.
        """
        return copy.deepcopy(self)


class Adversary:
    """Base class for adversaries.

    An adversary sees the learner's prediction (the distribution itself for a
    randomized learner) when revealing, and in public games additionally sees
    each realized draw. ``finalize_sets`` commits to the per-round feasible
    sets once the last round has been played; ``witness_collection`` may
    return hypothesis indices certifying those sets when the game claims full
    realizability.
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

    def fork(self) -> "Adversary":
        """An independent copy that continues exactly as this adversary would.

        The default is a deep copy, as for :meth:`Learner.fork`.
        """
        return copy.deepcopy(self)


REQUIRED = object()


def integer(value) -> int:
    """Strategy parameter kind: an integer, or a string of one.

    Floats and bools are rejected rather than truncated or read as 0 and 1.
    """
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(value)
    return int(value)


def int_list(value) -> list:
    """Strategy parameter kind: a list of integers."""
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        raise TypeError(value)
    return list(value)


def strategy_param(params: dict, strategy: str, key: str, kind, default=REQUIRED):
    """Pop parameter ``key`` of the named strategy from its config ``params``.

    ``kind`` is :func:`integer`, ``Fraction`` or :func:`int_list` to convert
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

    Under full set-realizability the value is zero by definition, but only
    after the invariant has actually been checked: an admissible collection
    must match every finalized set (the transcript's own witness if present,
    otherwise one found by search), else RealizabilityViolation.
    """
    if spec.realizability is Realizability.SET_REALIZABLE:
        witness = transcript.witness
        _check_realizability(
            spec,
            transcript.instances,
            transcript.sets,
            ZERO,
            None if witness is None else witness.members,
        )
        return Fraction(0)
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
    best = None
    for h in range(H.size):
        miss = 0
        for x, m in zip(instances, sets):
            if not (m >> H.value(h, x)) & 1:
                miss += 1
        if best is None or miss < best:
            best = miss
            if best == 0:
                break
    return Fraction(best)


# -- realizability validation ------------------------------------------------------


def find_realizability_witness(spec: GameSpec, instances, sets) -> Optional[tuple[int, ...]]:
    """A collection realizing exactly the given sets at the played instances.

    Searches for hypothesis indices whose collection has image equal to
    ``sets[t]`` at ``instances[t]`` for every round, and a feasible image at
    every other instance. Returns ``None`` when no such collection exists.

    Only hypotheses consistent with every round (output inside that round's
    set) can participate, so the search runs inside that consistent class,
    depth-first with the same image-feasibility pruning as the admissible
    enumeration, plus a coverage check: the partial collection must still be
    extendable to cover each target set. It raises :class:`BudgetExceeded`
    past ``PFLAB_BUDGET_COLLECTIONS`` nodes.
    """
    targets: dict[int, int] = {}
    for x, m in zip(instances, sets):
        if x in targets and targets[x] != m:
            return None  # two different sets at one instance can never be one image
        targets[x] = m
    H = spec.hypotheses
    system = spec.set_system
    if not all(system.contains(m) for m in targets.values()):
        return None  # an image must be a member set

    if H.kind == "all_functions":
        # The consistent class is a product set, so a product collection
        # realizes the targets exactly and any feasible set serves as the
        # image at untouched instances; existence reduces to the consistency
        # and membership checks already done above. The members are one base
        # row of lowest labels plus every row that differs from it at a
        # single instance.
        fallback = _any_member(system)
        pools = [targets.get(x, fallback) for x in range(spec.n_instances)]
        row = [min(iter_bits(pool)) for pool in pools]
        base = H.index_of_row(row)
        witness = [base]
        for x, pool in enumerate(pools):
            low = row[x]
            place = H.n_labels ** (spec.n_instances - 1 - x)
            for y in iter_bits(pool & ~(1 << low)):
                witness.append(base + (y - low) * place)
        return tuple(sorted(witness))

    limit = _collections_budget()
    cons = [
        h
        for h in range(H.size)
        if all((targets[x] >> H.value(h, x)) & 1 for x in targets)
    ]
    rows = [tuple(H.value(h, x) for x in range(spec.n_instances)) for h in cons]
    n = len(cons)
    found: Optional[tuple[int, ...]] = None
    nodes = 0

    def covered(images: list[int]) -> bool:
        return all(images[x] == m for x, m in targets.items())

    def coverable(start: int, images: list[int]) -> bool:
        for x, m in targets.items():
            rest = images[x]
            for j in range(start, n):
                rest |= 1 << rows[j][x]
            if rest & m != m:
                return False
        return True

    def rec(start: int, members: list[int], images: list[int]) -> bool:
        nonlocal found, nodes
        if members and covered(images) and all(
            system.contains(img) for img in images
        ):
            found = tuple(cons[i] for i in members)
            return True
        if not coverable(start, images):
            return False
        for j in range(start, n):
            nodes += 1
            if nodes > limit:
                raise BudgetExceeded(
                    f"realizability witness search exceeded {limit} nodes",
                    spent=nodes,
                    budget=limit,
                )
            new_images = [
                img | (1 << rows[j][x]) for x, img in enumerate(images)
            ]
            if any(
                new_images[x] & ~m for x, m in targets.items()
            ) or not all(system.superset_exists(img) for img in new_images):
                continue
            members.append(j)
            if rec(j + 1, members, new_images):
                return True
            members.pop()
        return False

    rec(0, [], [0] * spec.n_instances)
    return found


def _any_member(system: SetSystem) -> int:
    if system.kind == "explicit":
        return system.masks[0]
    return 1  # the singleton of label 0 is always a member of a bounded system


def _validate_witness(spec: GameSpec, witness, instances, sets) -> Collection:
    col = collection_of(spec, witness)
    for t, (x, m) in enumerate(zip(instances, sets)):
        if col.images[x] != m:
            raise RealizabilityViolation(
                f"witness image {labels_of(col.images[x])} at round {t} does not match "
                f"the finalized set {labels_of(m)}"
            )
    return col


def _check_realizability(
    spec: GameSpec, instances, sets, comparator: Fraction, witness
) -> Optional[Collection]:
    mode = spec.realizability
    if mode is Realizability.AGNOSTIC:
        return None
    if mode is Realizability.EXISTENCE_REALIZABLE:
        if comparator != 0:
            raise RealizabilityViolation(
                f"declared existence-realizable but the best hypothesis loses {comparator}"
            )
        return None
    if witness is None:
        witness = find_realizability_witness(spec, instances, sets)
        if witness is None:
            raise RealizabilityViolation(
                "declared fully realizable but no collection realizes the finalized sets"
            )
    return _validate_witness(spec, witness, instances, sets)


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
    if not isinstance(pred, int) or isinstance(pred, bool):
        raise ProtocolViolation(f"prediction must be a label or a Measure, got {pred!r}")
    if not 0 <= pred < spec.n_labels:
        raise ProtocolViolation(f"predicted label {pred} outside range({spec.n_labels})")
    return pred


def _check_instance(spec: GameSpec, x) -> int:
    if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < spec.n_instances:
        raise ProtocolViolation(f"instance {x!r} outside range({spec.n_instances})")
    return x


def _check_reveal(spec: GameSpec, y) -> int:
    if not isinstance(y, int) or isinstance(y, bool) or not 0 <= y < spec.n_labels:
        raise ProtocolViolation(f"revealed label {y!r} outside range({spec.n_labels})")
    return y


@dataclass
class _Branch:
    """One trajectory in play: its strategies, its probability and its history."""

    learner: Learner
    adversary: Adversary
    probability: Fraction = ONE
    instances: tuple = ()
    predictions: tuple = ()
    reveals: tuple = ()
    draws: Optional[tuple] = None  # None unless visibility is public
    online_sets: tuple = ()  # revealed sets under set-valued feedback
    bits: tuple = ()  # loss bits under bandit feedback

    def drawn(self, z: int, weight: Fraction, shared: bool) -> "_Branch":
        """The child where the draw came out ``z``, with probability ``weight``.

        A ``shared`` child plays on forks of the strategies, because a later
        sibling still needs them as they are now. Only public games draw, and
        they take neither revealed sets nor loss bits.
        """
        learner, adversary = self.learner, self.adversary
        if shared:
            learner = learner.fork()
            adversary = adversary.fork()
        learner.observe_draw(z)
        adversary.observe_draw(z)
        return _Branch(
            learner=learner,
            adversary=adversary,
            probability=self.probability * weight,
            instances=self.instances,
            predictions=self.predictions,
            reveals=self.reveals,
            draws=self.draws + (z,),
        )


def _play_round(spec: GameSpec, b: _Branch) -> Prediction:
    """Play one round on ``b``, appending it to the branch's history."""
    x = _check_instance(spec, b.adversary.choose_instance())
    pred = _check_prediction(spec, b.learner.predict(x), b.learner)
    b.instances += (x,)
    b.predictions += (pred,)
    if spec.feedback is Feedback.SET_VALUED:
        mask = int(b.adversary.reveal_set(x, pred))
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
        bit = int(b.adversary.loss_bit(x, pred))
        if bit not in (0, 1):
            raise ProtocolViolation(f"loss bit must be 0 or 1, got {bit}")
        b.bits += (bit,)
        b.reveals += (None,)
        b.learner.observe_loss_bit(bit)
    else:
        y = _check_reveal(spec, b.adversary.reveal(x, pred))
        b.reveals += (y,)
        b.learner.observe(y)
    return pred


def _settle(spec: GameSpec, b: _Branch, checked: dict) -> Transcript:
    """Finalize a finished branch's sets, check and score them.

    ``checked`` maps ``(instances, sets, witness members)`` to the comparator
    and validated witness already computed for that outcome in this play.
    Both are pure in those inputs, so a repeated outcome reuses them; every
    other check and the loss still run on each branch.
    """
    if spec.feedback is Feedback.SET_VALUED:
        sets = b.online_sets
    else:
        view = GameView(
            spec=spec,
            instances=b.instances,
            predictions=b.predictions,
            reveals=b.reveals,
            draws=b.draws,
        )
        raw = b.adversary.finalize_sets(view)
        if len(raw) != spec.horizon:
            raise ProtocolViolation(
                f"adversary finalized {len(raw)} sets for a {spec.horizon}-round game"
            )
        sets = tuple(int(m) for m in raw)
    for t, m in enumerate(sets):
        if not spec.set_system.contains(m):
            raise ProtocolViolation(
                f"finalized set {labels_of(m)} at round {t} is not in the set system"
            )
        y = b.reveals[t]
        if y is not None and not (m >> y) & 1:
            raise ProtocolViolation(
                f"revealed label {y} at round {t} lies outside the finalized set {labels_of(m)}"
            )
        if spec.feedback is Feedback.MULTICLASS and m != (1 << y):
            raise ProtocolViolation(
                f"multiclass feedback requires singleton sets, got {labels_of(m)} at round {t}"
            )
    for t, (pred, m, bit) in enumerate(zip(b.predictions, sets, b.bits)):
        actual = 0 if (m >> pred) & 1 else 1
        if actual != bit:
            raise ProtocolViolation(
                f"bandit loss bit at round {t} was {bit} but the finalized set implies {actual}"
            )
    # A public branch is charged for its realized draws, an oblivious one for
    # its predictions themselves.
    moves = b.predictions if b.draws is None else b.draws
    loss = Fraction(sum(_round_loss(p, m) for p, m in zip(moves, sets)))
    claimed = b.adversary.witness_collection()
    key = (b.instances, sets, None if claimed is None else tuple(claimed))
    if key not in checked:
        comparator = _comparator(spec, b.instances, sets)
        checked[key] = (
            comparator,
            _check_realizability(spec, b.instances, sets, comparator, claimed),
        )
    comparator, witness = checked[key]
    return Transcript(
        instances=b.instances,
        predictions=b.predictions,
        reveals=b.reveals,
        sets=sets,
        loss=loss,
        comparator=comparator,
        regret=loss - comparator,
        draws=b.draws,
        witness=witness,
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
    :meth:`Adversary.fork`); the last keeps the originals. The loop keeps its
    pending branches on a stack, so the horizon is not bounded by Python's
    recursion limit. Branches that end with the same instances, sets and
    witness share one comparator and one realizability check.
    """
    public = spec.visibility is Visibility.PUBLIC
    if public and spec.feedback in (Feedback.SET_VALUED, Feedback.BANDIT):
        raise SpecError(f"public visibility is not supported with {spec.feedback.value} feedback")
    learner.begin(spec)
    adversary.begin(spec)
    # Entries are (branch, draw, weight, shared); ``draw`` is None for the
    # root and for every oblivious round.
    stack = [(_Branch(learner, adversary, draws=() if public else None), None, ONE, False)]
    ends: list[PublicBranch] = []
    checked: dict = {}
    while stack:
        branch, z, weight, shared = stack.pop()
        if z is not None:
            branch = branch.drawn(z, weight, shared)
        if len(branch.instances) == spec.horizon:
            ends.append(PublicBranch(branch.probability, _settle(spec, branch, checked)))
            continue
        pred = _play_round(spec, branch)
        if not public:
            children = [(None, ONE)]
        elif isinstance(pred, Measure):
            children = [(d, pred.weights[d]) for d in iter_bits(pred.support_mask())]
        else:
            children = [(pred, ONE)]
        last = len(children) - 1
        for i in range(last, -1, -1):  # pushed in reverse: the lowest draw pops first
            stack.append((branch, *children[i], i < last))
    if not public:
        return ends[0].transcript
    total = sum((b.probability for b in ends), ZERO)
    if total != 1:
        raise ProtocolViolation(f"draw branch probabilities sum to {total}, expected 1")
    e_loss = sum((b.probability * b.transcript.loss for b in ends), ZERO)
    e_comp = sum((b.probability * b.transcript.comparator for b in ends), ZERO)
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

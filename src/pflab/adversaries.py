"""Adversary strategies.

An adversary chooses instances, answers predictions with revealed labels (or
revealed sets, or loss bits, per the feedback mode), and commits to the
per-round feasible sets once the game ends. Constructions that certify full
realizability also hand back a witness collection.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from fractions import Fraction

from .engine import CollectionEngine
from .errors import LabelPoolExhausted, PoolExhausted, SpecError
from .game import (
    Adversary,
    Feedback,
    GameSpec,
    build_admissible_collections,
    distinct_images,
    find_realizability_witness,
    int_list,
    integer,
    strategy_param,
)
from .measures import Measure
from .setsystems import iter_bits, labels_of, mask_of


def _require_label(prediction) -> int:
    if isinstance(prediction, Measure):
        raise SpecError("this adversary is defined against deterministic learners only")
    return prediction


def _modal_label(prediction) -> int:
    """A label standing in for the prediction: itself, or the heaviest one."""
    if isinstance(prediction, Measure):
        return prediction.argmax_label()
    return prediction


class _CollectionAdversary(Adversary):
    """Plays from the collection version space and commits to one survivor.

    ``begin`` enumerates the admissible collections and keeps the lowest-id
    one of each image vector: play reads only images, and the chosen
    survivor is the lowest id of its image class. The version space is one
    label engine's state ``(alive, scores)`` over those collections, with
    every prediction charged at its heaviest label; each reveal moves it
    through :meth:`_advance`. The ground truth is the collection a
    subclass's :meth:`_chosen` names: its images at the played instances are
    the finalized sets, its members the witness.
    """

    def begin(self, spec: GameSpec) -> None:
        self._track(spec, distinct_images(build_admissible_collections(spec)))

    def _track(self, spec: GameSpec, collections) -> None:
        self._spec = spec
        self._engine = CollectionEngine(spec, collections, kind="label")
        self._alive, self._scores = self._engine.initial_state()
        self._rounds_left = spec.horizon

    def _advance(self, x: int, prediction, y: int) -> int:
        """Reveal ``y`` at ``x`` against ``prediction``; return ``y``."""
        self._alive, self._scores = self._engine.update(
            self._alive, self._scores, x, _modal_label(prediction), y
        )
        self._rounds_left -= 1
        return y

    def _chosen(self) -> int:
        raise NotImplementedError

    def finalize_sets(self, view):
        col = self._engine.collections[self._chosen()]
        return [col.images[x] for x in view.instances]

    def witness_collection(self):
        return self._engine.collections[self._chosen()].members


class OptimalAdversary(_CollectionAdversary):
    """Plays the argmax branch of the exact value recursion every round.

    Instance and reveal choices come straight from the memoized value of the
    game over the spec's horizon; at the end the surviving collection with
    the most charged mistakes (the lowest-id one on ties) becomes the ground
    truth, its images the feasible sets. Randomized predictions are charged
    at their heaviest label.
    """

    def choose_instance(self) -> int:
        return self._engine.best_instance(self._alive, self._scores, self._rounds_left)

    def reveal(self, x: int, prediction) -> int:
        y = self._engine.best_reveal(
            self._alive, self._scores, x, _modal_label(prediction), self._rounds_left - 1
        )
        return self._advance(x, prediction, y)

    def _chosen(self) -> int:
        best = max(self._scores)
        return self._alive[self._scores.index(best)]


class EchoAdversary(_CollectionAdversary):
    """Reveals the learner's own prediction whenever some collection allows it.

    Against a learner that always predicts feasibly, every prediction ends up
    inside its round's feasible set, so the regret is zero. Infeasible
    predictions get the lowest feasible label instead.
    """

    def choose_instance(self) -> int:
        return 0

    def reveal(self, x: int, prediction) -> int:
        y = _modal_label(prediction)
        feasible = self._engine.feasible(self._alive, x)
        if not (feasible >> y) & 1:
            y = min(iter_bits(feasible))
        return self._advance(x, prediction, y)

    def _chosen(self) -> int:
        return self._alive[0]


class SeededRandomAdversary(_CollectionAdversary):
    """Protocol-legal random play from a seeded generator, for stress tests.

    Unlike the other collection adversaries it tracks every admissible
    collection, not one per image vector: its final pick is uniform over the
    surviving collections, so collections sharing an image weigh separately.
    """

    def __init__(self, seed: int = 0):
        self._seed = seed

    def begin(self, spec: GameSpec) -> None:
        self._track(spec, build_admissible_collections(spec))
        self._rng = random.Random(self._seed)
        self._pick = None

    def choose_instance(self) -> int:
        return self._rng.randrange(self._spec.n_instances)

    def reveal(self, x: int, prediction) -> int:
        y = self._rng.choice(list(iter_bits(self._engine.feasible(self._alive, x))))
        return self._advance(x, prediction, y)

    def _chosen(self) -> int:
        if self._pick is None:
            self._pick = self._rng.choice(self._alive)
        return self._pick


# -- collision bookkeeping ---------------------------------------------------------


@dataclass(frozen=True)
class CollisionFamily:
    """Finite family of affine residue tables with rare pairwise agreement.

    Hypothesis (s, b) maps pool instance x to (s*x + b) mod modulus. Distinct
    slopes meet at one pool instance at most; equal slopes never meet. The
    game built from this family uses one instance per pool entry, the residue
    alphabet as labels, and the bounded set system of all nonempty sets up to
    the horizon.
    """

    modulus: int = 64
    slopes: tuple = (0, 1)
    pool: tuple = tuple(range(64))

    def n_hypotheses(self) -> int:
        return len(self.slopes) * self.modulus

    def value(self, hyp: int, x_index: int) -> int:
        s = self.slopes[hyp // self.modulus]
        b = hyp % self.modulus
        return (s * self.pool[x_index] + b) % self.modulus

    def realizers(self, x_index: int, y: int):
        """Hypothesis ids taking value y at this pool instance, slope order."""
        x = self.pool[x_index]
        out = []
        for si, s in enumerate(self.slopes):
            b = (y - s * x) % self.modulus
            out.append(si * self.modulus + b)
        return tuple(out)


class CollisionAdversary(Adversary):
    """Tracks reveal-realizer pairs and slot counters; answers with fresh labels.

    Per round: every tracked hypothesis matching the prediction gets its slot
    charged (the shrinking instance pool guarantees at most one match); the
    prediction's realizers are excluded for good; the reveal is the lowest
    label that no tracked or excluded hypothesis outputs here, and its
    realizers become a new tracked pair. Instances where any two distinct
    tracked hypotheses agree leave the pool. The ground truth picks each
    pair's minimum-slot member, which pins the learner to at most half of the
    charged matches.

    The witness names hypotheses by family index, so ``begin`` requires the
    layout of :func:`pflab.games.collision_game`: the family's tables, in
    family order, over the pool.
    """

    def __init__(self, family: CollisionFamily):
        self._family = family

    def begin(self, spec: GameSpec) -> None:
        fam = self._family
        if spec.n_instances != len(fam.pool) or spec.n_labels != fam.modulus:
            raise SpecError("spec shape does not match the collision family")
        H = spec.hypotheses
        if H.size != fam.n_hypotheses() or any(
            H.value(h, x) != fam.value(h, x)
            for h in range(H.size)
            for x in range(spec.n_instances)
        ):
            raise SpecError("the hypotheses must be the collision family's tables in family order")
        self._spec = spec
        self._pool = set(range(spec.n_instances))
        self._pairs = []
        self._slots = []
        self._excluded = set()
        self._x = None

    def choose_instance(self) -> int:
        if not self._pool:
            raise PoolExhausted("no instance is free of tracked-hypothesis agreements")
        self._x = min(self._pool)
        return self._x

    def reveal(self, x: int, prediction) -> int:
        fam = self._family
        yhat = _require_label(prediction)
        for pair, slots in zip(self._pairs, self._slots):
            for i, hyp in enumerate(pair):
                if fam.value(hyp, x) == yhat:
                    slots[i] += 1
        self._excluded.update(fam.realizers(x, yhat))

        blocked = set()
        for pair in self._pairs:
            for hyp in pair:
                blocked.add(fam.value(hyp, x))
        for hyp in self._excluded:
            blocked.add(fam.value(hyp, x))
        y = next((lbl for lbl in range(fam.modulus) if lbl not in blocked), None)
        if y is None:
            raise PoolExhausted("every label here is claimed by bookkeeping")

        new_pair = fam.realizers(x, y)
        tracked = [hyp for pair in self._pairs for hyp in pair]
        self._pairs.append(new_pair)
        self._slots.append([0] * len(new_pair))
        doomed = set()
        for x2 in self._pool:
            for a_i, a in enumerate(new_pair):
                va = fam.value(a, x2)
                for b in tracked:
                    if fam.value(b, x2) == va:
                        doomed.add(x2)
                        break
                else:
                    for b in new_pair[a_i + 1:]:
                        if fam.value(b, x2) == va:
                            doomed.add(x2)
                            break
                if x2 in doomed:
                    break
        self._pool -= doomed
        return y

    def _ground_truth(self):
        members = []
        for pair, slots in zip(self._pairs, self._slots):
            best = min(range(len(pair)), key=lambda i: (slots[i], i))
            members.append(pair[best])
        return tuple(sorted(members))

    def finalize_sets(self, view):
        fam = self._family
        members = self._ground_truth()
        return [
            mask_of(fam.value(h, x) for h in members) for x in view.instances
        ]

    def witness_collection(self):
        return self._ground_truth()


class _FreshInstanceAdversary(Adversary):
    """Plays instance ``t`` in round ``t``, so it needs one instance per round.

    Subclasses call this ``begin`` from their own.
    """

    def begin(self, spec: GameSpec) -> None:
        if spec.n_instances < spec.horizon:
            raise SpecError("need one fresh instance per round")
        self._round = 0

    def choose_instance(self) -> int:
        x = self._round
        self._round += 1
        return x


class TwoConstantAgnosticAdversary(_FreshInstanceAdversary):
    """Reveals the learner's lighter label; commits to the majority constant.

    Each round the label the learner favors less (label 1 on exact ties) is
    revealed. At the end the constant hypothesis agreeing with the majority
    of reveals becomes ground truth: rounds that revealed it get its
    singleton, the others get the full pair, so the best fixed hypothesis
    loses nothing while the learner paid at least half on every
    majority-reveal round. ``begin`` requires the sets ``{0}``, ``{1}`` and
    ``{0, 1}`` in the set system.
    """

    def begin(self, spec: GameSpec) -> None:
        if spec.n_labels != 2:
            raise SpecError("this construction runs on a binary alphabet")
        for mask in (0b01, 0b10, 0b11):
            if not spec.set_system.contains(mask):
                raise SpecError(
                    f"the two-constant construction needs the set {labels_of(mask)} "
                    f"in the set system"
                )
        super().begin(spec)
        self._reveals = []

    def reveal(self, x: int, prediction) -> int:
        if isinstance(prediction, Measure):
            p0 = prediction.weights[0]
        else:
            p0 = Fraction(1) if prediction == 0 else Fraction(0)
        y = 1 if p0 >= Fraction(1, 2) else 0
        self._reveals.append(y)
        return y

    def finalize_sets(self, view):
        q = sum(self._reveals)
        T = len(self._reveals)
        k = 0 if q <= T - q else 1
        pair = mask_of([0, 1])
        single = 1 << k
        return [single if y == k else pair for y in self._reveals]


class CubeAdversary(_FreshInstanceAdversary):
    """Reveals a low-mass label, then excludes realized draws via co-singletons.

    Works in both visibility modes. The reveal is the lowest label whose
    predicted singleton mass is at most 1 - k. At the end each round's set is
    the alphabet minus one label: in public mode the excluded label is the
    realized draw when it differs from the reveal (the lowest other label
    when it matches, keeping the reveal inside); in oblivious mode it is the
    heaviest non-revealed label of the played measure. The product
    witness of :func:`pflab.game.find_realizability_witness` realizes exactly
    those co-singleton images. The alphabet is the spec's label set, and
    ``begin`` requires every co-singleton of it in the set system.
    """

    def __init__(self, k):
        self._k = Fraction(k)
        if not 0 < self._k <= 1:
            raise SpecError(f"mass threshold must lie in (0, 1], got {self._k}")

    def begin(self, spec: GameSpec) -> None:
        super().begin(spec)
        full = (1 << spec.n_labels) - 1
        for y in range(spec.n_labels):
            if not spec.set_system.contains(full ^ (1 << y)):
                raise SpecError(
                    f"the cube construction needs the co-singleton "
                    f"{labels_of(full ^ (1 << y))} in the set system"
                )
        self._spec = spec
        self._measures = []
        self._reveals = []
        self._draws = []
        # Finalized sets -> their product witness, shared with every fork.
        # The instances are always 0, 1, ..., so the sets alone fix it.
        self._witnesses = {}

    def reveal(self, x: int, prediction) -> int:
        if isinstance(prediction, Measure):
            measure = prediction
        else:
            measure = Measure.delta(self._spec.n_labels, prediction)
        limit = 1 - self._k
        y = next(
            (
                lbl
                for lbl in range(self._spec.n_labels)
                if measure.weights[lbl] <= limit
            ),
            None,
        )
        if y is None:
            raise LabelPoolExhausted(
                f"every one of the spec's {self._spec.n_labels} labels carries mass above {limit}"
            )
        self._measures.append(measure)
        self._reveals.append(y)
        return y

    def observe_draw(self, z: int) -> None:
        self._draws.append(z)

    def fork(self) -> "CubeAdversary":
        # Copies the history lists; the witness table stays shared.
        twin = copy.copy(self)
        twin._measures = list(self._measures)
        twin._reveals = list(self._reveals)
        twin._draws = list(self._draws)
        return twin

    def _excluded_label(self, t: int) -> int:
        y = self._reveals[t]
        if self._draws:
            z = self._draws[t]
            if z != y:
                return z
            return next(lbl for lbl in range(self._spec.n_labels) if lbl != z)
        pi = self._measures[t]
        best = None
        for lbl in range(self._spec.n_labels):
            if lbl == y:
                continue
            if best is None or pi.weights[lbl] > pi.weights[best]:
                best = lbl
        return best

    def finalize_sets(self, view):
        full = (1 << self._spec.n_labels) - 1
        self._sets = [full ^ (1 << self._excluded_label(t)) for t in range(len(self._reveals))]
        return self._sets

    def witness_collection(self):
        key = tuple(self._sets)
        if key not in self._witnesses:
            self._witnesses[key] = find_realizability_witness(
                self._spec, range(len(key)), self._sets
            )
        return self._witnesses[key]


_MINUS_HALF_OFFSET = 0
_PLUS_HALF_OFFSET = 1


def _parity_half(c: int, x: int, n_candidates: int) -> int:
    """Candidate ``c``'s parity row at ``x``: the plus half on an even prefix count."""
    ones = bin(c & ((1 << (x + 1)) - 1)).count("1")
    return n_candidates + (_PLUS_HALF_OFFSET if ones % 2 == 0 else _MINUS_HALF_OFFSET)


class PrefixParityAdversary(_FreshInstanceAdversary):
    """Halves the integer-candidate set each round; pins a never-predicted one.

    The alphabet is n-2 integer candidates plus two sentinel labels (the
    "halves"). Reveals are always halves; the running bit sequence they
    encode (first round: 1 for the low half; later: 1 on a change) selects
    the binary-prefix class of surviving candidates. Integer predictions
    still in the running get killed by the bit choice; half predictions get
    the other half. The survivor c*, never predicted, joins each round's
    reveal in a two-label set, so every prediction missed while the constant
    hypothesis at c* is perfect.

    The mode follows the spec's feedback: under set-valued feedback the sets
    must go out during play, so c* is fixed up front as the highest candidate
    and the reveal stream follows its parity function; reading any set then
    solves the game.

    The witness names hypotheses by row index, so ``begin`` requires the
    layout of :func:`pflab.games.pf_not_sv_game` over the spec's instances:
    the constant rows in candidate order, then the parity rows in candidate
    order, and exactly the candidate-plus-half sets, listed in any order.
    """

    def begin(self, spec: GameSpec) -> None:
        if spec.n_labels < 4:
            raise SpecError("need at least two integer candidates plus the two halves")
        self._set_valued = spec.feedback is Feedback.SET_VALUED
        self._n_cand = spec.n_labels - 2
        self._minus = self._n_cand + _MINUS_HALF_OFFSET
        self._plus = self._n_cand + _PLUS_HALF_OFFSET
        super().begin(spec)
        if self._n_cand != 1 << spec.horizon:
            raise SpecError(
                "the candidate count must be exactly 2 to the number of rounds"
            )
        self._check_layout(spec)
        self._candidates = set(range(self._n_cand))
        self._predicted = set()
        self._reveals = []
        self._sets = []

    def _check_layout(self, spec: GameSpec) -> None:
        cands = range(self._n_cand)
        xs = range(spec.n_instances)
        rows = tuple((c,) * spec.n_instances for c in cands) + tuple(
            tuple(_parity_half(c, x, self._n_cand) for x in xs) for c in cands
        )
        if spec.hypotheses.kind != "explicit" or spec.hypotheses.rows != rows:
            raise SpecError(
                "the hypotheses must be the constant rows in candidate order, "
                "then the parity rows in candidate order"
            )
        sets = [(1 << c) | (1 << half) for c in cands for half in (self._minus, self._plus)]
        system = spec.set_system
        if system.size() != len(sets) or not all(system.contains(m) for m in sets):
            raise SpecError("the feasible sets must be exactly the candidate-plus-half pairs")

    def _half_for_bit(self, bit: int) -> int:
        if not self._reveals:
            return self._minus if bit else self._plus
        prev = self._reveals[-1]
        other = self._minus + self._plus - prev
        return other if bit else prev

    def _bit_for_half(self, y: int) -> int:
        if not self._reveals:
            return 1 if y == self._minus else 0
        return 1 if y != self._reveals[-1] else 0

    def reveal(self, x: int, prediction) -> int:
        yhat = _require_label(prediction)
        j = len(self._reveals)
        if yhat < self._n_cand:
            self._predicted.add(yhat)
            if yhat in self._candidates:
                bit = 1 - ((yhat >> j) & 1)
            else:
                bit = 0
            y = self._half_for_bit(bit)
        else:
            y = self._minus + self._plus - yhat
            bit = self._bit_for_half(y)
        self._reveals.append(y)
        self._candidates = {c for c in self._candidates if ((c >> j) & 1) == bit}
        return y

    def reveal_set(self, x: int, prediction) -> int:
        _require_label(prediction)
        c_star = self._n_cand - 1
        y = _parity_half(c_star, x, self._n_cand)
        mask = (1 << c_star) | (1 << y)
        self._reveals.append(y)
        self._sets.append(mask)
        return mask

    def _survivor(self) -> int:
        leftovers = self._candidates - self._predicted
        return min(leftovers)

    def finalize_sets(self, view):
        if self._set_valued:
            return list(self._sets)
        c_star = self._survivor()
        return [(1 << c_star) | (1 << y) for y in self._reveals]

    def witness_collection(self):
        if self._set_valued:
            c_star = self._n_cand - 1
        else:
            c_star = self._survivor()
        return (c_star, self._n_cand + c_star)


def make_adversary(name: str, params: dict) -> Adversary:
    """Instantiate an adversary by registry name with config-file parameters."""
    params = dict(params or {})

    def param(*args):
        return strategy_param(params, name, *args)

    if name == "optimal":
        built = OptimalAdversary()
    elif name == "echo":
        built = EchoAdversary()
    elif name == "random":
        built = SeededRandomAdversary(param("seed", integer, 0))
    elif name == "collision":
        fam = CollisionFamily(
            modulus=param("modulus", integer, 64),
            slopes=tuple(param("slopes", int_list, (0, 1))),
            pool=tuple(param("pool", int_list, range(64))),
        )
        built = CollisionAdversary(fam)
    elif name == "agnostic_two_constant":
        built = TwoConstantAgnosticAdversary()
    elif name == "public_cube":
        built = CubeAdversary(param("k", Fraction, Fraction(1, 2)))
    elif name == "pf_not_sv":
        built = PrefixParityAdversary()
    else:
        raise SpecError(f"unknown adversary name {name!r}")
    if params:
        raise SpecError(f"unused adversary parameters {sorted(params)} for {name!r}")
    return built

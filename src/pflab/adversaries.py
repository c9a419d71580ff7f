"""Adversary strategies.

An adversary chooses instances, answers predictions with revealed labels (or
revealed sets, or loss bits, per the feedback mode), and commits to the
per-round feasible sets once the game ends. Constructions that certify full
realizability may also hand back a witness collection; one that returns
``None`` leaves play to search for it. Under full realizability the comparator
is 0 once that witness checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .engine import CollectionEngine, alive_mask
from .errors import LabelPoolExhausted, PoolExhausted, SpecError
from .game import (
    Adversary,
    Feedback,
    GameSpec,
    build_admissible_collections,
    distinct_images,
    int_list,
    integer,
    strategy_param,
)
from .measures import Measure
from .setsystems import SetSystem, iter_bits, labels_of, mask_of


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
    label engine's ``(base, levels)`` state over those collections, with
    every prediction charged at its heaviest label; each reveal moves it
    through :meth:`_advance`. Under multiclass feedback, whose finalized sets
    are singletons, only one-member collections are tracked. The ground
    truth is the collection a subclass's :meth:`_chosen` names: its images
    at the played instances are the finalized sets, its members the witness.
    """

    def begin(self, spec: GameSpec) -> None:
        self._track(spec, distinct_images(build_admissible_collections(spec)))

    def _track(self, spec: GameSpec, collections) -> None:
        if spec.feedback is Feedback.MULTICLASS:
            collections = [c for c in collections if len(c.members) == 1]
            if not collections:
                raise SpecError("multiclass feedback needs an admissible one-hypothesis collection")
        self._spec = spec
        self._engine = CollectionEngine(spec, collections, kind="label")
        self._state = self._engine.initial_state()
        self._rounds_left = spec.horizon

    def _advance(self, x: int, prediction, y: int) -> int:
        """Reveal ``y`` at ``x`` against ``prediction``; return ``y``."""
        self._state = self._engine.update(*self._state, x, _modal_label(prediction), y)
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
    """Plays the argmax branch of the exact game every round.

    Instance and reveal choices are the lowest ones reaching the game's
    value over the spec's horizon, read from the engine's one search and
    its bound memo; at the end the surviving collection with the most
    charged mistakes (the lowest-id one on ties) becomes the ground truth,
    its images the feasible sets. Randomized predictions are charged at
    their heaviest label.
    """

    def choose_instance(self) -> int:
        return self._engine.best_instance(*self._state, self._rounds_left)

    def reveal(self, x: int, prediction) -> int:
        y = self._engine.best_reveal(
            *self._state, x, _modal_label(prediction), self._rounds_left - 1
        )
        return self._advance(x, prediction, y)

    def _chosen(self) -> int:
        _, top = self._state[1][-1]  # the level of the highest score
        return next(iter_bits(top))


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
        feasible = self._engine.feasible(*self._state, x)
        if not (feasible >> y) & 1:
            y = min(iter_bits(feasible))
        return self._advance(x, prediction, y)

    def _chosen(self) -> int:
        return next(iter_bits(alive_mask(self._state[1])))


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
        y = self._rng.choice(list(iter_bits(self._engine.feasible(*self._state, x))))
        return self._advance(x, prediction, y)

    def _chosen(self) -> int:
        if self._pick is None:
            self._pick = _uniform_bit(self._rng, alive_mask(self._state[1]))
        return self._pick

    def fork(self) -> "SeededRandomAdversary":
        # The generator is the one object play mutates, so each fork draws
        # from its own copy of it.
        twin = super().fork()
        twin._rng = random.Random()
        twin._rng.setstate(self._rng.getstate())
        return twin


def _uniform_bit(rng: random.Random, mask: int) -> int:
    """``rng.choice(list(iter_bits(mask)))``, with the bits listed in linear time.

    The set bits are read off the binary string in one pass: shifting them
    out one at a time is quadratic in the width of a wide alive mask. An
    empty mask raises :class:`IndexError`, as ``choice`` does.
    """
    digits = bin(mask)[:1:-1]  # bit i at position i
    return rng.choice([i for i, d in enumerate(digits) if d == "1"])


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


class CollisionAdversary(Adversary):
    """Tracks reveal-realizer pairs and charges; answers with fresh labels.

    Every set of hypotheses is an int mask read from the class's
    :meth:`~pflab.game.HypothesisClass.label_masks`, and the instance pool
    is a mask too. Per round: every tracked hypothesis outputting the
    prediction is charged (the shrinking pool guarantees at most one); the
    prediction's realizers are excluded for good; the reveal is the lowest
    label that no tracked or excluded hypothesis outputs here, and its
    realizers, in slope order, become a new tracked pair. An instance leaves
    the pool once some label there is the output of a new pair member and of
    at least one other tracked hypothesis. The ground truth picks each
    pair's least-charged member (the lowest index on ties), which pins the
    learner to at most half of the charged matches.

    The witness names hypotheses by family index and may need any set of up
    to ``horizon`` labels, so ``begin`` requires the layout of
    :func:`pflab.games.collision_game`: the family's tables, in family order,
    over the pool, and a set system holding every nonempty set of at most
    ``horizon`` labels.
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
        # A bounded system lists no masks; an explicit one has max_size 0.
        system, k = spec.set_system, min(spec.horizon, spec.n_labels)
        listed = sum(m.bit_count() <= k for m in system.masks)
        if system.max_size < k and listed < SetSystem.all_nonempty_up_to(spec.n_labels, k).size():
            raise SpecError(f"the set system must hold every nonempty set of at most {k} labels")
        self._masks = tuple(map(H.label_masks, range(spec.n_instances)))
        self._pool = (1 << spec.n_instances) - 1
        self._tracked = self._excluded = 0
        self._pairs = self._charged = ()

    def choose_instance(self) -> int:
        if not self._pool:
            raise PoolExhausted("no instance is free of tracked-hypothesis agreements")
        return next(iter_bits(self._pool))

    def reveal(self, x: int, prediction) -> int:
        masks = self._masks[x]
        realizers = masks[_require_label(prediction)]
        self._charged += tuple(iter_bits(realizers & self._tracked))
        self._excluded |= realizers
        busy = self._tracked | self._excluded
        y = next((y for y, hs in enumerate(masks) if not hs & busy), None)
        if y is None:
            raise PoolExhausted("every label here is claimed by bookkeeping")
        new = masks[y]
        self._pairs += (new,)
        tracked = self._tracked = self._tracked | new
        for x2 in iter_bits(self._pool):
            if any(hs & new and (hs & tracked).bit_count() > 1 for hs in self._masks[x2]):
                self._pool ^= 1 << x2
        return y

    def _ground_truth(self):
        return tuple(sorted(min(iter_bits(pair), key=self._charged.count) for pair in self._pairs))

    def finalize_sets(self, view):
        truth = mask_of(self._ground_truth())
        return [mask_of(y for y, hs in enumerate(self._masks[x]) if hs & truth) for x in view.instances]

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

    def reveal(self, x: int, prediction) -> int:
        if isinstance(prediction, Measure):
            p0 = prediction.weights[0]
        else:
            p0 = Fraction(1) if prediction == 0 else Fraction(0)
        return 1 if p0 >= Fraction(1, 2) else 0

    def finalize_sets(self, view):
        reveals = view.reveals
        q = sum(reveals)
        k = 0 if q <= len(reveals) - q else 1
        pair = mask_of([0, 1])
        single = 1 << k
        return [single if y == k else pair for y in reveals]


class CubeAdversary(_FreshInstanceAdversary):
    """Reveals a low-mass label, then excludes realized draws via co-singletons.

    Works in both visibility modes. The reveal is the lowest label whose
    predicted singleton mass is at most 1 - k. At the end each round's set is
    the alphabet minus one label: in public mode the excluded label is the
    realized draw when it differs from the reveal (the lowest other label
    when it matches, keeping the reveal inside); in oblivious mode it is the
    heaviest non-revealed label of the played prediction (the lowest on
    ties, an int prediction read as its point mass). Both rules read the
    game's record from the view ``finalize_sets`` gets, so the adversary
    keeps no history of its own and a fork shares everything but the round
    counter. It claims no witness: play finds the product witness of
    :func:`pflab.game.find_realizability_witness`, which realizes exactly
    those co-singleton images, once per distinct outcome. The alphabet is the
    spec's label set, and ``begin`` requires every co-singleton of it in the
    set system. A public round's set is read from a ``(reveal, draw)``
    table (:class:`_PublicCubeSets`) that ``begin`` makes and play fills.
    """

    def __init__(self, k):
        k = Fraction(k)
        if not 0 < k <= 1:
            raise SpecError(f"mass threshold must lie in (0, 1], got {k}")
        self._limit = 1 - k

    def begin(self, spec: GameSpec) -> None:
        super().begin(spec)
        full = (1 << spec.n_labels) - 1
        for y in range(spec.n_labels):
            if not spec.set_system.contains(full ^ (1 << y)):
                raise SpecError(
                    f"the cube construction needs the co-singleton "
                    f"{labels_of(full ^ (1 << y))} in the set system"
                )
        self._n_labels = spec.n_labels
        self._public_sets = _PublicCubeSets(spec.n_labels)

    def reveal(self, x: int, prediction) -> int:
        limit = self._limit
        for y, w in enumerate(_weights(self._n_labels, prediction)):
            if w <= limit:
                return y
        raise LabelPoolExhausted(
            f"every one of the spec's {self._n_labels} labels carries mass above {limit}"
        )

    def finalize_sets(self, view):
        if view.draws is not None:
            return tuple(map(self._public_sets.__getitem__, zip(view.reveals, view.draws)))
        n = self._n_labels
        full = (1 << n) - 1
        sets = []
        for pred, y in zip(view.predictions, view.reveals):
            weights = _weights(n, pred)
            # ``max`` keeps the first of equal weights: the lowest label.
            heaviest = max((lbl for lbl in range(n) if lbl != y), key=weights.__getitem__)
            sets.append(full ^ (1 << heaviest))
        return sets


class _PublicCubeSets(dict):
    """``(reveal, draw)`` -> a public cube round's set, filled on first use.

    The set is the alphabet minus the draw, or minus the lowest other label
    when the draw is the reveal, so the reveal stays inside. Only the pairs
    play meets are filled: a table of every pair would hold ``n_labels ** 2``
    masks of ``n_labels`` bits each. A pure memo, so forks share it.
    """

    def __init__(self, n_labels: int):
        super().__init__()
        self._full = (1 << n_labels) - 1

    def __missing__(self, key: tuple[int, int]) -> int:
        y, z = key
        mask = self[key] = self._full ^ (1 << (z if z != y else 0 if z else 1))
        return mask


def _weights(n_labels: int, prediction) -> tuple:
    """The prediction's label weights, an int prediction read as its point mass."""
    if isinstance(prediction, Measure):
        return prediction.weights
    return Measure.delta(n_labels, prediction).weights


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
    solves the game. Play takes those revealed sets as the game's sets and
    never calls ``finalize_sets``, which serves label feedback only.

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
        self._candidates = (1 << self._n_cand) - 1
        self._predicted = 0
        self._reveals = ()

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
            self._predicted |= 1 << yhat
            bit = 1 - ((yhat >> j) & 1) if (self._candidates >> yhat) & 1 else 0
            y = self._half_for_bit(bit)
        else:
            y = self._minus + self._plus - yhat
            bit = self._bit_for_half(y)
        self._reveals += (y,)
        self._candidates = mask_of(c for c in iter_bits(self._candidates) if (c >> j) & 1 == bit)
        return y

    def reveal_set(self, x: int, prediction) -> int:
        _require_label(prediction)
        c_star = self._n_cand - 1
        y = _parity_half(c_star, x, self._n_cand)
        return (1 << c_star) | (1 << y)

    def _survivor(self) -> int:
        return next(iter_bits(self._candidates & ~self._predicted))

    def finalize_sets(self, view):
        c_star = self._survivor()
        return [(1 << c_star) | (1 << y) for y in view.reveals]

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

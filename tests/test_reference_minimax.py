"""The engine against a deliberately naive minimax, in true units.

``reference_value`` plays the collection game straight from its definition:
the adversary picks an instance, the learner a label or a grid ``Measure``,
the adversary a label some alive collection's image contains; the reveal
kills the collections whose image misses it, every survivor is charged for
the move, and at the end the adversary collects the largest score. Images
come from the collections' members, and every charge is exact ``Fraction``
arithmetic on ``Measure`` masses. There are no cutoffs, no merging of equal
moves or reveals, no score normalization, no common-label shortcut and no
``CollectionEngine``; a cache on exact states only saves repeated work.
The engine's choice methods are checked against the argmax and argmin of
the reference's per-instance, per-move and per-reveal tables, and its
no-search bound table against the top child score plus one full charge per
remaining round.
"""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings, strategies as st

from pflab import Measure, build_admissible_collections, measure_grid
from pflab.engine import CollectionEngine
from pflab.setsystems import mask_of

from test_properties import seeds, spec_from_seed


def _charge(kind, gamma, move, image):
    """One round's charge, in true units, against a collection with this image."""
    if kind == "label":
        return 0 if (image >> move) & 1 else 1
    mass = move.mass(image)
    if kind == "loss":
        return 1 - mass
    if gamma == 0:
        return 1 if mass < 1 else 0
    return 1 if mass <= 1 - gamma else 0


def _member_images(spec, collection):
    h = spec.hypotheses
    return tuple(
        mask_of(h.value(m, x) for m in collection.members) for x in range(spec.n_instances)
    )


def reference_start(spec, kind, gamma, prefix):
    """``(images, score)`` of every collection consistent with the prefix reveals."""
    xs, moves, reveals = prefix
    start = []
    for col in build_admissible_collections(spec):
        images = _member_images(spec, col)
        if all((images[x] >> y) & 1 for x, y in zip(xs, reveals)):
            score = sum((_charge(kind, gamma, m, images[x]) for x, m in zip(xs, moves)),
                        Fraction(0))
            start.append((images, score))
    return tuple(start)


def reference_children(spec, kind, gamma, state, x, move):
    """``{y: child state}`` for every label ``y`` some image at ``x`` contains, after ``move``."""
    return {
        y: tuple(
            (images, score + _charge(kind, gamma, move, images[x]))
            for images, score in state
            if (images[x] >> y) & 1
        )
        for y in range(spec.n_labels)
        if any((images[x] >> y) & 1 for images, _ in state)
    }


def reference_value(spec, kind, gamma, moves):
    """The naive minimax as a function of ``(state, rounds)``.

    Max over instances, min over moves, max over feasible reveals; max score
    at the end.
    """

    @lru_cache(maxsize=None)
    def value(state, rounds):
        if rounds == 0:
            return max(score for _, score in state)
        best = None
        for x in range(spec.n_instances):
            per_move = []
            for move in moves:
                children = reference_children(spec, kind, gamma, state, x, move).values()
                per_move.append(max(value(child, rounds - 1) for child in children))
            v = min(per_move)
            if best is None or v > best:
                best = v
        return best

    return value


def _prefixes(spec, kind, g, rng):
    """The empty prefix and one-round prefixes: a label, a grid measure, off-grid measures.

    The reveal comes from an admissible collection's image, so some
    collection survives it. For ``g = 2``, ``(1/3, 2/3, 0, ...)`` is off the
    grid, as is the uniform measure on 3 labels.
    """
    n = spec.n_labels
    col = rng.choice(build_admissible_collections(spec))
    x = rng.randrange(spec.n_instances)
    y = rng.choice([lab for lab in range(n) if (col.images[x] >> lab) & 1])
    if kind == "label":
        moves = [rng.randrange(n)]
    else:
        moves = [
            rng.choice(measure_grid(n, g)),
            Measure.of({0: Fraction(1, 3), 1: Fraction(2, 3)}, n),
            Measure.uniform_over(n, range(n)),
        ]
    yield (), (), ()
    for move in moves:
        yield (x,), (move,), (y,)


@pytest.mark.parametrize("kind", ["label", "measure", "loss"])
@settings(max_examples=60, deadline=None)
@given(
    seeds,
    st.integers(min_value=0, max_value=99),
    st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
    st.integers(min_value=1, max_value=3),
)
# Seed 1043 at g = 3: a loss-kind upper bound of one unit per round, not
# ``g`` units, stops the instance loop early and returns 2/3 for 1.
@example(1043, 0, Fraction(1, 2), 3)
def test_engine_matches_reference_minimax(kind, seed, prefix_seed, gamma, g):
    """``value``, every choice method, ``reaching`` and the bound table against the reference.

    The choices are the argmax and argmin of the reference's tables, ties
    going to the lowest instance, move or label. They run on a fresh engine
    per prefix, so they do not start from the bound memo ``value`` filled.
    ``edge_worst_bounds`` must equal the largest child score plus one full
    charge per remaining round, and so stay at or above the exact table.
    """
    rounds = 3 if kind == "label" else 2
    spec = spec_from_seed(seed, horizon=rounds + 1)
    if kind != "measure":
        gamma = None
    if kind == "label":
        g = None

    def engine():
        return CollectionEngine(spec, build_admissible_collections(spec), kind=kind,
                                gamma=gamma, grid=g)

    solver = engine()
    moves = list(range(spec.n_labels)) if kind == "label" else measure_grid(spec.n_labels, g)
    value = reference_value(spec, kind, gamma, moves)
    # A loss-kind engine counts in units of 1 / scale; an engine without a
    # scale counts in true units.
    scale = getattr(solver, "scale", 1)
    for prefix in _prefixes(spec, kind, g, random.Random(prefix_seed)):
        start = reference_start(spec, kind, gamma, prefix)
        got = solver.value(*solver.prefix_state(*prefix), rounds)
        assert Fraction(got) / scale == value(start, rounds)

        chooser = engine()
        state = chooser.prefix_state(*prefix)
        children = [
            [reference_children(spec, kind, gamma, start, x, move) for move in moves]
            for x in range(spec.n_instances)
        ]
        child_values = [
            [{y: value(child, rounds - 1) for y, child in per_y.items()} for per_y in per_move]
            for per_move in children
        ]
        worst = [[max(per_y.values()) for per_y in per_move] for per_move in child_values]
        # The top score over every child, plus one full charge per remaining round.
        tops = [
            [
                max(score for child in per_y.values() for _, score in child) + rounds - 1
                for per_y in per_move
            ]
            for per_move in children
        ]
        per_instance = [min(row) for row in worst]
        best = per_instance.index(max(per_instance))
        assert chooser.best_instance(*state, rounds) == best
        # Above the top score ``reaching`` at the value names best_instance's
        # instance and each edge's lowest reveal whose child reaches the value;
        # at the top score every instance qualifies; above the value none does.
        top = state[0] + state[1][-1][0]
        if got > top:
            tags = [
                min(y for y, v in per_y.items() if v >= value(start, rounds))
                for per_y in child_values[best]
            ]
            assert chooser.reaching(*state, rounds, got) == (best, tags)
        assert chooser.reaching(*state, rounds, top)[0] == 0
        assert chooser.reaching(*state, rounds, got + 1) is None
        for x, row in enumerate(worst):
            table = chooser.edge_worst_values(*state, x, rounds - 1)
            assert [Fraction(v) / scale for v in table] == row
            assert chooser.best_edge(*state, x, rounds - 1) == row.index(min(row))
            bounds = chooser.edge_worst_bounds(*state, x, rounds - 1)
            assert [Fraction(v) / scale for v in bounds] == tops[x]
            assert all(b >= w for b, w in zip(tops[x], row))
            for e, per_y in enumerate(child_values[x]):
                want = min(y for y, v in per_y.items() if v == row[e])
                assert chooser.best_reveal(*state, x, e, rounds - 1) == want

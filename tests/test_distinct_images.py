"""Solving over one collection per image vector changes no value and no count.

Every engine entry point passes ``distinct_images(build_admissible_collections
(spec))`` to ``CollectionEngine``. These tests build one engine over the full
admissible list and one over the deduplicated list, and require equal values
and equal expanded-state counts, from the initial state and from prefix
states, for the label, measure and loss kinds.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from pflab import GameSpec, HypothesisClass, SetSystem, build_admissible_collections
from pflab.engine import CollectionEngine
from pflab.game import AdmissibleFamily, Collection, distinct_images, image_words
from pflab.measures import Measure
from pflab.setsystems import iter_bits

from test_properties import seeds, spec_from_seed

KINDS = {
    "label": {},
    "measure": {"gamma": Fraction(1, 2), "grid": 2},
    "loss": {"grid": 2},
}

# The binary classes of the det-solve benchmark workload: five hypotheses over
# three instances, or six over four, under the full power set.
BINARY_CLASSES = [
    [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
    [[0, 0, 0], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 1, 0]],
    [[0, 0, 0], [0, 1, 0], [1, 0, 0], [1, 1, 0], [1, 1, 1]],
    [[0, 0, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0]],
    [[0, 0, 1], [0, 1, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1]],
    [[0, 0, 1], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0]],
    [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 1, 0], [1, 1, 1]],
    [[0, 0, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]],
    [[0, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 1], [0, 1, 1, 1], [1, 0, 0, 0]],
    [[0, 0, 1, 1], [0, 1, 0, 0], [0, 1, 0, 1], [1, 0, 1, 0], [1, 0, 1, 1], [1, 1, 0, 0]],
    [[0, 0, 0, 1], [0, 1, 0, 1], [0, 1, 1, 0], [1, 0, 0, 0], [1, 0, 0, 1], [1, 1, 0, 0]],
]


def _binary_spec(rows, horizon):
    n_x = len(rows[0])
    return GameSpec(
        n_instances=n_x,
        n_labels=2,
        set_system=SetSystem.explicit(2, [0b01, 0b10, 0b11]),
        hypotheses=HypothesisClass.explicit(n_x, 2, rows),
        horizon=horizon,
    )


def _engines(spec, kind):
    full = build_admissible_collections(spec)
    return tuple(
        CollectionEngine(spec, cols, kind=kind, **KINDS[kind])
        for cols in (full, distinct_images(full))
    )


def _prefixes(spec, kind, rng, count):
    """The empty prefix and ``count`` random prefixes one or two rounds long.

    Reveals come from one admissible collection's images, so some collection
    survives them; moves are labels, or a point mass or the uniform measure.
    """
    collections = build_admissible_collections(spec)
    yield (), (), ()
    for _ in range(count):
        col = rng.choice(collections)
        xs = [rng.randrange(spec.n_instances) for _ in range(rng.randint(1, 2))]
        reveals = [rng.choice([y for y in range(spec.n_labels) if (col.images[x] >> y) & 1])
                   for x in xs]
        if kind == "label":
            moves = [rng.randrange(spec.n_labels) for _ in xs]
        else:
            moves = [rng.choice([Measure.delta(spec.n_labels, 0),
                                 Measure.uniform_over(spec.n_labels, range(spec.n_labels))])
                     for _ in xs]
        yield tuple(xs), tuple(moves), tuple(reveals)


def _scored_images(eng, state):
    """The distinct ``(score, image vector)`` pairs of a state's alive collections."""
    base, levels = state
    return {(base + s, eng.collections[cid].images) for s, mask in levels for cid in iter_bits(mask)}


def _assert_same_solve(spec, kind, rounds, rng, count=2):
    full, dedup = _engines(spec, kind)
    for prefix in _prefixes(spec, kind, rng, count):
        fstate, dstate = full.prefix_state(*prefix), dedup.prefix_state(*prefix)
        assert _scored_images(full, fstate) == _scored_images(dedup, dstate)
        depth = rounds - len(prefix[0])
        assert full.value(*fstate, depth) == dedup.value(*dstate, depth)
        assert full.nodes == dedup.nodes
        if depth > 0:
            assert full.best_instance(*fstate, depth) == dedup.best_instance(*dstate, depth)
            assert full.edge_worst_values(*fstate, 0, depth - 1) == dedup.edge_worst_values(
                *dstate, 0, depth - 1
            )
            assert full.nodes == dedup.nodes


def test_distinct_images_keeps_the_lowest_id_in_id_order():
    cols = [
        Collection(members=(0,), images=(1, 2)),
        Collection(members=(1,), images=(2, 2)),
        Collection(members=(0, 1), images=(3, 2)),
        Collection(members=(2,), images=(1, 2)),
        Collection(members=(1, 2), images=(3, 2)),
        Collection(members=(3,), images=(2, 1)),
    ]
    spec = _binary_spec([[0, 0], [0, 1], [1, 0], [1, 1]], 1)
    keys = [sum(1 << h for h in col.members) for col in cols]
    family = AdmissibleFamily(spec, keys, image_words(spec, cols))
    assert list(distinct_images(family)) == [cols[0], cols[1], cols[2], cols[5]]
    assert list(distinct_images(AdmissibleFamily(spec, [], []))) == []


@pytest.mark.parametrize("index", range(len(BINARY_CLASSES)))
def test_distinct_images_on_binary_classes(index):
    full = build_admissible_collections(_binary_spec(BINARY_CLASSES[index], 1))
    kept = distinct_images(full)
    ids = [full.index(col) for col in kept]
    assert ids == sorted(ids)
    assert len({col.images for col in kept}) == len(kept)
    assert {col.images for col in kept} == {col.images for col in full}
    for col in kept:
        assert all(c.images != col.images for c in full[: full.index(col)])


def test_distinct_counts_pinned():
    """Full and distinct-image collection counts of the twelve binary classes."""
    counts = [
        (len(full), len(distinct_images(full)))
        for full in (build_admissible_collections(_binary_spec(rows, 1))
                     for rows in BINARY_CLASSES)
    ]
    assert counts == [(31, 14)] * 4 + [(31, 15)] + [(31, 14)] * 4 + [(63, 20), (63, 19), (63, 21)]


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds)
def test_dedup_matches_full_list_on_generated_specs(kind, seed):
    spec = spec_from_seed(seed, horizon=3)
    _assert_same_solve(spec, kind, 3, random.Random(seed))


@pytest.mark.parametrize("index", range(len(BINARY_CLASSES)))
def test_dedup_matches_full_list_on_binary_classes(index):
    """Label kind at the det-solve depth n + 2, measure and loss at depth 3."""
    rows = BINARY_CLASSES[index]
    depth = len(rows) + 2
    _assert_same_solve(_binary_spec(rows, depth), "label", depth, random.Random(index), count=1)
    if index % 4 == 0:
        for kind in ("measure", "loss"):
            _assert_same_solve(_binary_spec(rows, 3), kind, 3, random.Random(index), count=1)

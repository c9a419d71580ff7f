"""The all-functions fast paths against the same class materialized row by row.

``HypothesisClass.all_functions`` never stores its rows: ``row``,
``collection_of``, ``find_realizability_witness`` and the comparator decode
an index's base-``n_labels`` digits instead. Each is compared here with the
explicit class listing the same functions in the same index order.
"""

import random
import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pflab import (
    GameSpec,
    HypothesisClass,
    OptimalAdversary,
    SetSystem,
    SpecError,
    VersionSpacePruningLearner,
    build_admissible_collections,
    collection_of,
    find_realizability_witness,
    minimax_rand_regret,
    pfl_dim,
    play_game,
)
from pflab.game import _comparator
from pflab.games import cube_game, helly_game


def _pair(n, M, masks):
    """The all-functions spec and its explicit twin over one set system."""
    system = SetSystem.explicit(M, masks)
    rows = list(product(range(M), repeat=n))  # index order: instance 0 most significant
    return tuple(
        GameSpec(n_instances=n, n_labels=M, set_system=system, hypotheses=H, horizon=1)
        for H in (HypothesisClass.all_functions(n, M), HypothesisClass.explicit(n, M, rows))
    )


@st.composite
def games(draw):
    """Two specs, a nonempty member set, and rounds with their sets.

    The system is the co-singletons or an arbitrary nonempty set of masks.
    Members may lie just outside the class. Round sets are usually members of
    the system. Rounds may repeat instances; in one of the two branches a
    repeated instance keeps its set, so that a witness can exist.
    """
    n, M = draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]))
    full = (1 << M) - 1
    if draw(st.booleans()):
        masks = [full ^ (1 << y) for y in range(M)]
    else:
        masks = sorted(draw(st.sets(st.integers(1, full), min_size=1)))
    all_fns, explicit = _pair(n, M, masks)
    members = draw(st.sets(st.integers(-2, M**n + 1), min_size=1))
    instances = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=5))
    sampled = st.sampled_from(masks) if draw(st.integers(0, 3)) else st.integers(1, full)
    if draw(st.booleans()):
        per_x = [draw(sampled) for _ in range(n)]
        sets = [per_x[x] for x in instances]
    else:
        sets = [draw(sampled) for _ in instances]
    return all_fns, explicit, members, instances, sets


def _collection(spec, members):
    try:
        return collection_of(spec, members)
    except SpecError as err:
        return str(err)


@settings(max_examples=200, deadline=None)
@given(games())
def test_all_functions_match_the_explicit_class(game):
    all_fns, explicit, members, instances, sets = game
    H, E = all_fns.hypotheses, explicit.hypotheses
    assert [H.row(h) for h in range(H.size)] == [E.row(h) for h in range(E.size)]
    assert _collection(all_fns, members) == _collection(explicit, members)
    assert _comparator(all_fns, instances, sets) == _comparator(explicit, instances, sets)

    fast = find_realizability_witness(all_fns, instances, sets)
    slow = find_realizability_witness(explicit, instances, sets)
    assert (fast is None) == (slow is None)
    for witness in (fast, slow):
        if witness is not None:
            col = collection_of(explicit, witness)
            assert [col.images[x] for x in instances] == sets


def test_collection_of_rejects_members_outside_the_class():
    for spec, members in [
        (helly_game(1), [-1, 4, 1]),
        (helly_game(1), [0, 6]),
        (cube_game(2, 3), [9, -1, 0]),
        (cube_game(2, 3), [9]),
    ]:
        with pytest.raises(SpecError, match="outside range"):
            collection_of(spec, members)


def test_collection_of_sorts_and_deduplicates_what_is_not_ascending():
    # A strictly ascending tuple is kept as it is; anything else is sorted and
    # deduplicated, so every order of one member set gives one collection.
    spec = cube_game(2, 3)
    want = collection_of(spec, (0, 1, 3))
    assert want.members == (0, 1, 3)
    for members in [[3, 0, 1], (1, 3, 0), [0, 1, 1, 3], (3, 3, 1, 0, 0), [0, 1, 3]]:
        col = collection_of(spec, members)
        assert (col.members, col.images) == (want.members, want.images)
        assert type(col.members) is tuple
    # Out-of-range members are named in sorted order, whatever the given order.
    for members in [[9, -1, 0], (-1, 0, 9), [0, 9, 9, -1]]:
        with pytest.raises(SpecError, match=r"^collection members \(-1, 0, 9\) lie outside range\(9\)$"):
            collection_of(spec, members)
    for members in [[0, 1.0], (2, 1, "a"), [0, 1, True]]:
        bad = next(h for h in members if type(h) is not int)
        with pytest.raises(SpecError, match=f"^collection member {re.escape(repr(bad))} is not a hypothesis index$"):
            collection_of(spec, members)


def _random_spec(rng):
    """An all-functions or explicit class over the full power set, so every image is feasible."""
    n, M = rng.randint(1, 4), rng.randint(2, 5)
    if rng.random() < 0.5:
        H = HypothesisClass.all_functions(n, M)
    else:
        rows = {tuple(rng.randrange(M) for _ in range(n)) for _ in range(rng.randint(1, 12))}
        H = HypothesisClass.explicit(n, M, rng.sample(sorted(rows), len(rows)))
    system = SetSystem.all_nonempty_up_to(M, M)
    return GameSpec(n_instances=n, n_labels=M, set_system=system, hypotheses=H, horizon=1)


def test_collection_images_equal_an_or_of_rows():
    """Several calls per class, so each reads row words that earlier calls stored."""
    rng = random.Random(21)
    kinds = set()
    for _ in range(400):
        spec = _random_spec(rng)
        kinds.add(spec.hypotheses.kind)
        size = spec.hypotheses.size
        for _ in range(4):
            members = [0, size - 1] + rng.sample(range(size), rng.randint(0, min(size, 10)))
            rng.shuffle(members)
            images = [0] * spec.n_instances
            for h in members:
                for x, y in enumerate(spec.hypotheses.row(h)):
                    images[x] |= 1 << y
            col = collection_of(spec, members)
            assert col.images == tuple(images)
            assert col.members == tuple(sorted(set(members)))
    assert kinds == {"all_functions", "explicit"}


@pytest.mark.parametrize("members", [7, ("a",), (True,), [0, False], [None]])
@pytest.mark.parametrize("kind", ["all_functions", "explicit"])
def test_collection_members_must_be_plain_ints(kind, members):
    all_fns, explicit = _pair(2, 2, [0b01, 0b10, 0b11])
    with pytest.raises(SpecError, match="hypothesis ind"):
        collection_of(all_fns if kind == "all_functions" else explicit, members)


def test_all_functions_witness_needs_member_targets():
    # {0} is not a co-singleton of three labels, so no collection has it as an image.
    assert find_realizability_witness(cube_game(2, 3), [0], [0b1]) is None
    assert find_realizability_witness(cube_game(2, 3), [0], [0b11]) is not None


def _reference_product_witness(spec, instances, sets):
    """The product witness by brute force, from the rule in its docstring.

    Every row of the class is listed by ``itertools.product`` in index order;
    the witness keeps the base row, of each pool's lowest label, and every
    row that differs from it at exactly one instance, inside that instance's
    pool. A pool is the instance's round set, or at an untouched instance
    the set system's first listed member (the singleton {0} of a bounded
    system).
    """
    targets = {}
    for x, m in zip(instances, sets):
        if targets.setdefault(x, m) != m:
            return None
    system = spec.set_system
    if not all(system.contains(m) for m in targets.values()):
        return None
    fallback = system.masks[0] if system.kind == "explicit" else 0b1
    pools = [targets.get(x, fallback) for x in range(spec.n_instances)]
    base = [min(y for y in range(spec.n_labels) if pool >> y & 1) for pool in pools]
    witness = []
    rows = product(range(spec.n_labels), repeat=spec.n_instances)
    for h, row in enumerate(rows):
        moved = [x for x in range(spec.n_instances) if row[x] != base[x]]
        if not moved or len(moved) == 1 and pools[moved[0]] >> row[moved[0]] & 1:
            witness.append(h)
    return tuple(witness)


def _random_all_functions_spec(rng, n, M):
    full = (1 << M) - 1
    kind = rng.choice(["co-singletons", "explicit", "bounded"])
    if kind == "co-singletons":
        system = SetSystem.explicit(M, [full ^ (1 << y) for y in range(M)])
    elif kind == "explicit":
        system = SetSystem.explicit(M, rng.sample(range(1, full + 1), rng.randint(1, full)))
    else:
        system = SetSystem.all_nonempty_up_to(M, rng.randint(1, M))
    H = HypothesisClass.all_functions(n, M)
    return GameSpec(n_instances=n, n_labels=M, set_system=system, hypotheses=H, horizon=1)


def _random_rounds(rng, spec, labels):
    """Rounds over some of the instances, with sets drawn from ``labels``' subsets.

    Sets are usually members of the system; an instance repeats with its
    first set or, sometimes, a conflicting one.
    """
    members = [m for m in range(1, 1 << labels) if spec.set_system.contains(m)]
    instances, sets = [], []
    for _ in range(rng.randint(0, spec.n_instances + 2)):
        x = rng.randrange(spec.n_instances)
        if x in instances and rng.random() < 0.7:
            m = sets[instances.index(x)]
        elif members and rng.random() < 0.85:
            m = rng.choice(members)
        else:
            m = rng.randrange(1, 1 << labels)
        instances.append(x)
        sets.append(m)
    return instances, sets


def test_all_functions_witness_matches_the_brute_force_rule():
    # Queries alternate between two classes over the same instances with
    # different label counts, on sets of the labels both share, so a table
    # of pieces that leaked from one class to the other would misplace them.
    rng = random.Random(37)
    outcomes = set()
    for _ in range(300):
        n = rng.randint(1, 3)
        M1, M2 = rng.sample(range(2, 5), 2)
        pair = [_random_all_functions_spec(rng, n, M) for M in (M1, M2)]
        for _ in range(6):
            for spec in pair:
                instances, sets = _random_rounds(rng, spec, min(M1, M2))
                want = _reference_product_witness(spec, instances, sets)
                got = find_realizability_witness(spec, instances, sets)
                assert got == want, (spec, instances, sets)
                outcomes.add((want is None, len(set(instances)) < n))
    # Both found and missing witnesses, each with and without untouched instances.
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("instance", [7, -1, 2, True, 1.0, "0"])
@pytest.mark.parametrize("kind", ["all_functions", "explicit"])
def test_witness_search_rejects_an_instance_outside_the_class(kind, instance):
    # Unchecked, 7 and -1 would be ignored on the all-functions class, and on
    # the explicit one -1 would read the last instance and 7 raise IndexError.
    all_fns, explicit = _pair(2, 3, [0b011, 0b101, 0b110])
    spec = all_fns if kind == "all_functions" else explicit
    with pytest.raises(SpecError, match="outside range"):
        find_realizability_witness(spec, [0, instance], [0b011, 0b011])


@pytest.mark.parametrize("instances, sets", [([0, 1], [0b011]), ([0], [0b011, 0b101]), ([], [0b011])])
@pytest.mark.parametrize("kind", ["all_functions", "explicit"])
def test_witness_search_rejects_ragged_rounds(kind, instances, sets):
    all_fns, explicit = _pair(2, 3, [0b011, 0b101, 0b110])
    spec = all_fns if kind == "all_functions" else explicit
    with pytest.raises(SpecError, match="differ in length"):
        find_realizability_witness(spec, instances, sets)


@pytest.mark.parametrize("mask", [1.5, "a", True, -1, None], ids=["float", "str", "bool", "negative", "none"])
@pytest.mark.parametrize("game", [cube_game(2, 3), helly_game(1)], ids=["cube", "helly"])
def test_witness_search_rejects_a_set_that_is_not_a_label_mask(game, mask):
    # 1.5 and 'a' ended in a TypeError from SetSystem.contains.
    with pytest.raises(SpecError, match="is not a label mask"):
        find_realizability_witness(game, [0, 0], [0b011, mask])


@pytest.mark.parametrize("game", [cube_game(2, 3), helly_game(1)], ids=["cube", "helly"])
def test_witness_search_finds_none_for_the_empty_set(game):
    # The empty set is a label mask, but never a member set.
    assert find_realizability_witness(game, [0], [0]) is None


def test_value_reads_each_digit_of_the_index():
    # Index order puts instance 0 most significant, as in ``_pair``.
    H = HypothesisClass.all_functions(3, 4)
    rows = list(product(range(4), repeat=3))
    assert [tuple(H.value(h, x) for x in range(3)) for h in range(H.size)] == rows


def test_admissible_collections_need_an_explicit_class():
    """Enumerating an all-functions class's collections is a spec error, not a spent budget."""
    spec = GameSpec(
        n_instances=1,
        n_labels=2,
        set_system=SetSystem.full_power_set(2),
        hypotheses=HypothesisClass.all_functions(1, 2),
        horizon=2,
    )
    for call in [
        lambda: build_admissible_collections(spec),
        lambda: pfl_dim(spec, 2),
        lambda: minimax_rand_regret(spec, 2, g=2),
        lambda: play_game(spec, VersionSpacePruningLearner(), OptimalAdversary()),
    ]:
        with pytest.raises(SpecError, match="^admissible collections need an explicit"):
            call()

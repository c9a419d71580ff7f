"""Admissible-collection enumeration against a brute-force reference.

``build_admissible_collections`` finds feasible next members, and decides
which of them complete a collection, with hypothesis bitmasks and memoized
``SetSystem.span_fill`` answers, which a scan of the raw member sets checks. The reference here looks at every
nonempty hypothesis subset and decides feasibility from the raw member masks,
with no call into the enumeration or into ``SetSystem``. A second reference
replays the per-candidate depth-first search to count its nodes, and the
enumeration's budget must pass at exactly that count and fail one below it;
below it, the walk must stop at the call whose charge crosses the budget.
The realizability witness search runs the same walk, and must return the
lexicographically first reference collection that realizes its targets.
"""

import pickle
from dataclasses import FrozenInstanceError, fields, replace
from itertools import combinations, product
from operator import lt

import pytest
from hypothesis import given, settings, strategies as st

from pflab import (
    AdmissibleEmpty,
    BudgetExceeded,
    GameSpec,
    HypothesisClass,
    SetSystem,
    build_admissible_collections,
    collection_of,
    find_realizability_witness,
)
from pflab.adversaries import _prefix_parity_layout
from pflab.game import AdmissibleFamily, Collection, distinct_images
from pflab.games import pf_not_sv_game


def _feasible(system, mask):
    """Is ``mask`` a member set, decided from the raw system data."""
    if system.kind == "bounded":
        return 0 < bin(mask).count("1") <= system.max_size
    return mask in system.masks


def _within_some_set(system, mask):
    if system.kind == "bounded":
        return bin(mask).count("1") <= system.max_size
    return any(m & mask == mask for m in system.masks)


def _image(rows, members, x):
    m = 0
    for h in members:
        m |= 1 << rows[h][x]
    return m


def reference_collections(spec):
    """Every nonempty subset whose image at each instance is feasible, by member bitmask."""
    rows = spec.hypotheses.rows
    n = len(rows)
    out = []
    for size in range(1, n + 1):
        for members in combinations(range(n), size):
            images = tuple(_image(rows, members, x) for x in range(spec.n_instances))
            if all(_feasible(spec.set_system, img) for img in images):
                out.append((sum(1 << h for h in members), members, images))
    out.sort()
    return [(members, images) for _, members, images in out]


def reference_totals(spec):
    """Running node totals of the per-candidate search, one per call in call order.

    Each call charges one node per candidate index from its start index on,
    ``n - start``, when it is entered, as the walk does; the last total is
    the search's node count.
    """
    rows = spec.hypotheses.rows
    n = len(rows)
    totals = [0]

    def rec(start, images):
        totals.append(totals[-1] + n - start)
        for h in range(start, n):
            new = [img | (1 << rows[h][x]) for x, img in enumerate(images)]
            if all(_within_some_set(spec.set_system, img) for img in new):
                rec(h + 1, new)

    rec(0, [0] * spec.n_instances)
    return totals[1:]


def reference_nodes(spec):
    """Nodes of the per-candidate search: one per candidate index tried at each call."""
    return reference_totals(spec)[-1]


@st.composite
def small_specs(draw):
    n_labels = draw(st.integers(min_value=2, max_value=5))
    n_x = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.tuples(*[st.integers(0, n_labels - 1)] * n_x),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    if draw(st.booleans()):
        system = SetSystem.all_nonempty_up_to(
            n_labels, draw(st.integers(min_value=1, max_value=n_labels))
        )
    else:
        masks = draw(
            st.lists(
                st.integers(min_value=1, max_value=(1 << n_labels) - 1),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        system = SetSystem.explicit(n_labels, masks)
    return GameSpec(
        n_instances=n_x,
        n_labels=n_labels,
        set_system=system,
        hypotheses=HypothesisClass.explicit(n_x, n_labels, rows),
        horizon=1,
    )


@settings(max_examples=200, deadline=None)
@given(small_specs())
def test_enumeration_matches_brute_force(spec):
    want = reference_collections(spec)
    if not want:
        with pytest.raises(AdmissibleEmpty):
            build_admissible_collections(spec)
        return
    got = build_admissible_collections(spec)
    assert [(c.members, c.images) for c in got] == want


@settings(max_examples=100, deadline=None)
@given(small_specs())
def test_enumeration_budget_is_the_reference_node_count(spec):
    if not reference_collections(spec):
        return
    nodes = reference_nodes(spec)
    build_admissible_collections(spec, budget=nodes)
    with pytest.raises(BudgetExceeded):
        build_admissible_collections(spec, budget=nodes - 1)


def _assert_budget_stops_at_the_crossing_call(spec, budgets):
    """Each budget below the node count raises with the first running total above it spent."""
    totals = reference_totals(spec)
    for budget in budgets:
        with pytest.raises(BudgetExceeded) as info:
            build_admissible_collections(spec, budget=budget)
        assert (info.value.spent, info.value.budget) == (
            next(t for t in totals if t > budget),
            budget,
        )


@settings(max_examples=100, deadline=None)
@given(small_specs())
def test_enumeration_budget_stops_at_the_crossing_call(spec):
    """Calls that find no candidate are skipped, but charged where they would run."""
    if not reference_collections(spec):
        return
    nodes = reference_nodes(spec)
    _assert_budget_stops_at_the_crossing_call(
        spec, {0, nodes - 1, *range(0, nodes, max(1, nodes // 16))}
    )


def test_prefix_parity_budget_stops_at_the_crossing_call():
    # 272 of the 289 calls on this spec find no candidate, and the walk
    # skips them all; every total and the budget one below it are tried.
    spec = prefix_parity_game(4, 4)
    totals = reference_totals(spec)
    assert len(totals) == 289
    nodes = totals[-1]
    _assert_budget_stops_at_the_crossing_call(
        spec, sorted({b for t in totals for b in (t - 1, t) if b < nodes})
    )


def test_walk_collections_equal_constructed_ones():
    """The family and ``collection_of`` build collections without ``__init__``; nothing else tells."""
    spec = prefix_parity_game(2, 3)
    walked = list(build_admissible_collections(spec))
    rebuilt = [collection_of(spec, col.members) for col in walked]
    assert rebuilt == walked
    for col in walked + rebuilt:
        assert type(col) is Collection
        twin = Collection(members=col.members, images=col.images)
        assert col == twin and twin == col
        assert hash(col) == hash(twin)
        assert repr(col) == repr(twin)
        assert pickle.dumps(col) == pickle.dumps(twin)
        assert pickle.loads(pickle.dumps(col)) == col
        assert replace(col) == col
        for f in fields(col):
            with pytest.raises(FrozenInstanceError):
                setattr(col, f.name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(col, f.name)


@settings(max_examples=100, deadline=None)
@given(small_specs(), st.lists(st.integers(min_value=0, max_value=63), max_size=20))
def test_superset_exists_matches_scan(spec, queries):
    system = spec.set_system
    for mask in queries + queries:  # the repeats are answered from the cache
        if mask >> system.n_labels:
            assert not system.superset_exists(mask)
        else:
            assert system.superset_exists(mask) == _within_some_set(system, mask)


def _union_of_sets_containing(system, mask):
    """The union of the member sets holding ``mask``, from the raw system data."""
    if system.kind == "bounded":
        members = [
            m for m in range(1, 1 << system.n_labels) if bin(m).count("1") <= system.max_size
        ]
    else:
        members = system.masks
    union = 0
    for m in members:
        if m & mask == mask:
            union |= m
    return union


@settings(max_examples=200, deadline=None)
@given(small_specs())
def test_span_matches_union_scan(spec):
    """``span`` and ``fill`` on every mask over one label more than the system has.

    That covers mask 0, masks with bits at or above ``n_labels`` and, on
    bounded systems, popcounts below, at and above ``max_size``. ``fill``
    holds the labels whose addition makes a member set, so it is empty on
    a mask out of range.
    """
    system = spec.set_system
    queries = range(1 << (system.n_labels + 1))
    for mask in [*queries, *queries]:  # the repeats are answered from the cache
        span, fill = system.span_fill(mask)
        assert span == _union_of_sets_containing(system, mask), mask
        completing = [y for y in range(system.n_labels) if system.contains(mask | 1 << y)]
        assert fill == sum(1 << y for y in completing), mask
        assert system.superset_exists(mask) == (mask == 0 or span != 0)


@st.composite
def witness_queries(draw):
    """A spec, played instances and target sets; half the time the sets are
    read off an admissible collection's images, so both outcomes occur."""
    spec = draw(small_specs())
    instances = draw(st.lists(st.integers(0, spec.n_instances - 1), min_size=1, max_size=4))
    collections = reference_collections(spec)
    if collections and draw(st.booleans()):
        _, images = draw(st.sampled_from(collections))
        sets = [images[x] for x in instances]
    else:
        full = (1 << spec.n_labels) - 1
        sets = [draw(st.integers(1, full)) for _ in instances]
    return spec, instances, sets


@settings(max_examples=300, deadline=None)
@given(witness_queries())
def test_witness_is_the_first_realizing_collection(query):
    spec, instances, sets = query
    want = min(
        (
            members
            for members, images in reference_collections(spec)
            if all(images[x] == m for x, m in zip(instances, sets))
        ),
        default=None,
    )
    assert find_realizability_witness(spec, instances, sets) == want


def test_witness_search_budget_names_the_search(monkeypatch):
    monkeypatch.setenv("PFLAB_BUDGET_COLLECTIONS", "0")
    spec = GameSpec(
        n_instances=1,
        n_labels=2,
        set_system=SetSystem.explicit(2, [0b01, 0b10]),
        hypotheses=HypothesisClass.explicit(1, 2, [[0], [1]]),
        horizon=1,
    )
    with pytest.raises(BudgetExceeded, match="realizability witness search") as info:
        find_realizability_witness(spec, [0], [0b01])
    assert (info.value.spent, info.value.budget) == (1, 0)


def binary_cube(n_x):
    """Every binary row over ``n_x`` instances under the full power set: every subset is admissible."""
    return GameSpec(
        n_instances=n_x,
        n_labels=2,
        set_system=SetSystem.full_power_set(2),
        hypotheses=HypothesisClass.explicit(n_x, 2, list(product((0, 1), repeat=n_x))),
        horizon=1,
    )


def test_a_walk_deeper_than_the_recursion_limit_is_a_budget_rejection():
    # The walk takes one frame per member, and its first path adds rows 0,
    # 1, 2, ... of the 1,024: a bare RecursionError before.
    with pytest.raises(
        BudgetExceeded, match="^admissible-collection search exceeds Python's recursion limit$"
    ) as info:
        build_admissible_collections(binary_cube(10))
    assert 0 < info.value.spent < info.value.budget


def test_a_witness_search_deeper_than_the_recursion_limit_is_a_budget_rejection():
    # The first 1,024 of the 2,048 rows all give label 0 at instance 0, so
    # the first collection whose image there is {0, 1} has 1,025 members.
    with pytest.raises(
        BudgetExceeded, match="^realizability witness search exceeds Python's recursion limit$"
    ) as info:
        find_realizability_witness(binary_cube(11), [0], [0b11])
    assert 0 < info.value.spent < info.value.budget


def prefix_parity_game(T, n_x):
    """``pf_not_sv_game``'s shape with 2**T candidates over ``n_x`` instances."""
    n_cand = 1 << T
    rows, masks = _prefix_parity_layout(n_cand, n_x)
    return GameSpec(
        n_instances=n_x,
        n_labels=n_cand + 2,
        set_system=SetSystem.explicit(n_cand + 2, masks),
        hypotheses=HypothesisClass.explicit(n_x, n_cand + 2, rows),
        horizon=T,
    )


# Smallest passing budget and collection count, recorded with the
# per-candidate search that preceded the bitmask one.
@pytest.mark.parametrize(
    "make, nodes, count",
    [
        (pf_not_sv_game, 137280, 4096),
        (lambda: prefix_parity_game(4, 4), 2448, 256),
        (lambda: prefix_parity_game(5, 6), 17952, 1024),
    ],
    ids=["pf_not_sv_game", "prefix-parity-t4x4", "prefix-parity-t5x6"],
)
def test_smallest_budget_pinned(make, nodes, count):
    spec = make()
    assert len(build_admissible_collections(spec, budget=nodes)) == count
    with pytest.raises(BudgetExceeded):
        build_admissible_collections(spec, budget=nodes - 1)


@settings(max_examples=100, deadline=None)
@given(small_specs())
def test_packed_family_reads_as_the_collections_it_packs(spec):
    """Keys ascend, each item is ``collection_of`` its members, and dedup by word is dedup by image."""
    if not reference_collections(spec):
        return
    family = build_admissible_collections(spec)
    assert type(family) is AdmissibleFamily
    keys = family.keys
    assert all(map(lt, keys, keys[1:]))
    assert len(family) == len(keys) == len(family.words)
    items = list(family)
    for i, (key, col) in enumerate(zip(keys, items)):
        assert type(col) is Collection
        assert col == family[i] == family[i - len(family)] == collection_of(spec, col.members)
        assert key == sum(1 << h for h in col.members)
    assert family[1:-1] == items[1:-1] and family[::-1] == items[::-1]
    with pytest.raises(IndexError):
        family[len(family)]
    by_tuple: dict = {}
    for col in items:
        by_tuple.setdefault(col.images, col)
    kept = distinct_images(family)
    assert type(kept) is AdmissibleFamily
    assert list(kept) == list(by_tuple.values())


# Nodes spent when the walk stops past each budget, recorded with the walk
# that built one Collection per step.
@pytest.mark.parametrize(
    "make, spent",
    [
        (pf_not_sv_game, {0: 128, 1: 128, 45760: 45768, 68640: 68666, 137279: 137280}),
        (lambda: prefix_parity_game(4, 4), {0: 32, 1: 32, 816: 818, 1224: 1235, 2447: 2448}),
        (lambda: prefix_parity_game(5, 6), {0: 64, 1: 64, 5984: 5987, 8976: 8996, 17951: 17952}),
    ],
    ids=["pf_not_sv_game", "prefix-parity-t4x4", "prefix-parity-t5x6"],
)
def test_budget_rejections_spend_the_pinned_nodes(make, spent):
    spec = make()
    for budget, nodes in spent.items():
        with pytest.raises(BudgetExceeded) as info:
            build_admissible_collections(spec, budget=budget)
        assert (info.value.spent, info.value.budget) == (nodes, budget)


def test_prefixes_that_extend_are_not_collections():
    # One member set {0, 1, 2} and one hypothesis per label: the prefixes
    # {0} and {0, 1} lie inside it (their span is every label) but are not
    # members, and only the label 2 completes {0, 1} to one (its fill).
    spec = GameSpec(
        n_instances=1,
        n_labels=3,
        set_system=SetSystem.explicit(3, [[0, 1, 2]]),
        hypotheses=HypothesisClass.explicit(1, 3, [[0], [1], [2]]),
        horizon=1,
    )
    assert spec.set_system.span_fill(0b001) == (0b111, 0)
    assert spec.set_system.span_fill(0b011) == (0b111, 0b100)
    assert reference_nodes(spec) == 7
    got = build_admissible_collections(spec, budget=7)
    assert [(c.members, c.images) for c in got] == [((0, 1, 2), (0b111,))]
    with pytest.raises(BudgetExceeded):
        build_admissible_collections(spec, budget=6)

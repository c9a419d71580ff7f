"""CollectionEngine's version-space rules, choice methods and pinned counts.

Every entry point runs one null-window test search over one bound memo.
The naive tables here recurse through ``value`` on every feasible reveal,
with no survivor-set dedup, so they check the engine's reveal classes and
its per-edge worst case; the independent check of the choice methods is
``tests/test_reference_minimax.py``. The no-search ``edge_worst_bounds``
table is checked to stay at or above the exact one. A test-only engine whose
search reads the full move table checks that the search's dominance pruning
changes no value and no choice. The pinned numbers hold
the search's expanded-state counts fixed, and a budget either leaves an
answer exact or raises ``BudgetExceeded``: it never changes dpfla's play.
"""

import functools
import itertools
import operator
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import pflab.dimensions
import pflab.measure_dims
from pflab import (
    BudgetExceeded,
    EmptyConsistentSet,
    GameSpec,
    HypothesisClass,
    Measure,
    OptimalAdversary,
    PotentialMinimizingLearner,
    SetSystem,
    SpecError,
    build_admissible_collections,
    helly_game,
    load_spec_file,
    measure_grid,
    minimax_rand_regret,
    pfl_dim,
    play_game,
    pms_dim,
)
from pflab.dimensions import _variant_system
from pflab.engine import (
    CollectionEngine,
    _VersionSpaceEngine,
    _above,
    _below,
    _maximal,
    _top,
    _unpack,
    alive_mask,
)
from pflab.families import binary_full_system_family
from pflab.game import Collection
from pflab.setsystems import iter_bits

from test_enumeration import prefix_parity_game
from test_properties import seeds, spec_from_seed

TEST_SPECS = Path(__file__).resolve().parent / "specs"

KINDS = {
    "label": {},
    "measure": {"gamma": Fraction(1, 2), "grid": 2},
    "loss": {"grid": 2},
}


def _engine(spec, kind, budget=None):
    return CollectionEngine(
        spec, build_admissible_collections(spec), kind=kind, budget=budget, **KINDS[kind]
    )


def _family_spec(index):
    return next(itertools.islice(binary_full_system_family(), index, None))[1]


def _scores(state):
    """Every alive collection id of a ``(base, levels)`` state, mapped to its score.

    Also checks the levels' form: strictly ascending scores from 0 and
    nonempty, disjoint masks.
    """
    base, levels = state
    scores, masks = zip(*levels)
    assert scores[0] == 0 and list(scores) == sorted(set(scores)) and all(masks)
    assert sum(masks) == functools.reduce(operator.or_, masks)
    return {cid: base + s for s, mask in levels for cid in iter_bits(mask)}


def _feasible(eng, state, x):
    mask = 0
    for cid in _scores(state):
        mask |= eng.images[cid][x]
    return [y for y in range(eng.spec.n_labels) if (mask >> y) & 1]


def _increment(eng, image, edge):
    """A collection's charge for edge ``edge`` at this image, read off the edge itself."""
    if eng.kind == "label":
        return 1 - ((image >> edge) & 1)
    mass = eng.edges[edge].mass(image)
    return (1 - mass) * eng.g if eng.kind == "loss" else int(mass <= 1 - eng.gamma)


def _states(eng, start=None):
    """A start state (the initial one by default) and every state one round (edge 0) below it."""
    state = start or eng.initial_state()
    rounds = eng.spec.horizon
    yield state, rounds
    for x in range(eng.spec.n_instances):
        for y in _feasible(eng, state, x):
            yield eng.update(*state, x, 0, y), rounds - 1


def _child_values(eng, state, x, edge_index, child_depth):
    return {
        y: eng.value(*eng.update(*state, x, edge_index, y), child_depth)
        for y in _feasible(eng, state, x)
    }


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=10_000))
def test_version_space_rules_match_the_alive_images(kind, seed, walk):
    """``feasible``, ``common``, ``update`` and ``update_set`` against per-collection rules.

    ``feasible`` and ``common`` are the OR and the AND of the alive images;
    ``update`` keeps the collections whose image holds the label, and
    ``update_set`` those whose image is the set, each charged the edge's
    increment; a move that keeps none raises, and so does an edge index
    outside the grid. The states are the initial one and those along a
    random played prefix.
    """
    spec = spec_from_seed(seed, horizon=3)
    eng = _engine(spec, kind)
    rng = random.Random(walk)
    state = eng.initial_state()
    for _ in range(spec.horizon):
        scores = _scores(state)
        assert alive_mask(state[1]) == sum(1 << cid for cid in scores)
        for x in range(spec.n_instances):
            images = {cid: eng.images[cid][x] for cid in scores}
            assert eng.feasible(*state, x) == functools.reduce(operator.or_, images.values())
            assert eng.common(*state, x) == functools.reduce(operator.and_, images.values())
            for mask in range(1, 1 << spec.n_labels):
                edge = rng.randrange(eng.n_edges)
                y = min(iter_bits(mask))
                for rule, arg, keeps, what in [
                    (eng.update_set, mask, lambda img: img == mask, "revealed sets"),
                    (eng.update, y, lambda img: (img >> y) & 1, "reveals"),
                ]:
                    want = {
                        cid: s + _increment(eng, images[cid], edge)
                        for cid, s in scores.items()
                        if keeps(images[cid])
                    }
                    if not want:
                        with pytest.raises(EmptyConsistentSet, match=f"with the {what}$"):
                            rule(*state, x, edge, arg)
                        continue
                    assert _scores(rule(*state, x, edge, arg)) == want
        x = rng.randrange(spec.n_instances)
        y = rng.choice(_feasible(eng, state, x))
        state = eng.update(*state, x, rng.randrange(eng.n_edges), y)
        for edge in (-1, eng.n_edges):
            with pytest.raises(SpecError, match="outside range"):
                eng.update(*state, x, edge, y)


@pytest.mark.parametrize("table", ["label", "version space"])
def test_engine_methods_reject_indices_out_of_range(table):
    """Every method that takes an instance, an edge or a label index checks it.

    Each must be a plain int in range, on both engine classes: a negative
    index read the last entry, a ``bool`` played edge 1, and an index past
    the end or a negative label raised a bare ``IndexError`` or
    ``ValueError``. Every rejection is a :class:`SpecError`.
    """
    spec = helly_game(2)
    if table == "label":
        eng = CollectionEngine(spec, build_admissible_collections(spec))
    else:
        eng = _VersionSpaceEngine(spec, _hypotheses(spec))
    s = eng.initial_state()
    bad = [
        lambda: eng.feasible(*s, -1),
        lambda: eng.feasible(*s, True),
        lambda: eng.common(*s, 1),
        lambda: eng.update(*s, -1, 0, 1),
        lambda: eng.update(*s, 5, 0, 1),
        lambda: eng.update(*s, 0, 0, -1),
        lambda: eng.update(*s, 0, 0, 6),
        lambda: eng.update(*s, 0, True, 1),
        lambda: eng.update(*s, 0, 6, 1),
        lambda: eng.update_set(*s, -1, 0, 0b11),
        lambda: eng.update_set(*s, 0, -1, 0b11),
        lambda: eng.edge_worst_values(*s, -1, 1),
        lambda: eng.edge_worst_bounds(*s, 1, 1),
        lambda: eng.best_edge(*s, -1, 1),
        lambda: eng.best_reveal(*s, 0, -1, 1),
        lambda: eng.best_reveal(*s, 0, 6, 1),
        lambda: eng.best_reveal(*s, 1, 0, 1),
    ]
    for call in bad:
        with pytest.raises(SpecError, match="outside range"):
            call()
    # The last index of each range is accepted.
    assert len(eng.edge_worst_bounds(*s, 0, 1)) == 6
    eng.best_reveal(*s, 0, 5, 1)
    eng.update(*s, 0, 5, _feasible(eng, s, 0)[-1])


@pytest.mark.parametrize(
    "gamma, message",
    [
        (True, r"^gamma True is not a Fraction or an int$"),
        (0.1, r"^gamma 0\.1 is not a Fraction or an int$"),
        (Fraction(3, 2), r"^gamma must lie in \[0, 1\], got 3/2$"),
    ],
)
def test_engine_gamma_is_an_exact_threshold(gamma, message):
    """The constructor checks gamma as ``pms_dim`` does.

    A bool read as 1, and 0.1 played at 3602879701896397/36028797018963968.
    """
    spec = helly_game(2)
    with pytest.raises(SpecError, match=message):
        CollectionEngine(spec, build_admissible_collections(spec), kind="measure", gamma=gamma, grid=2)
    eng = CollectionEngine(spec, [], kind="measure", gamma=1, grid=2)
    assert eng.gamma == 1 and type(eng.gamma) is Fraction


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds)
def test_choice_methods_match_naive_tables(kind, seed):
    spec = spec_from_seed(seed, horizon=3)
    eng = _engine(spec, kind)
    for state, rounds in _states(eng):
        for x in range(spec.n_instances):
            children = [
                _child_values(eng, state, x, ei, rounds - 1)
                for ei in range(len(eng.edges))
            ]
            naive = [max(c.values()) for c in children]
            table = eng.edge_worst_values(*state, x, rounds - 1)
            assert table == naive
            assert eng.best_edge(*state, x, rounds - 1) == naive.index(min(naive))
            for ei, c in enumerate(children):
                want = min(y for y, v in c.items() if v == naive[ei])
                assert eng.best_reveal(*state, x, ei, rounds - 1) == want


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds)
def test_choice_methods_share_the_value_memo(kind, seed):
    """After ``value`` fills the bound memo, the choice methods answer as on a fresh engine.

    The choice methods enter the memo from arbitrary states, so this checks
    that every entry point normalizes its memo keys the same way.
    """
    spec = spec_from_seed(seed, horizon=3)
    warm = _engine(spec, kind)
    warm.value(*warm.initial_state(), spec.horizon)
    for state, rounds in _states(warm):
        for x in range(spec.n_instances):
            args = (*state, x, rounds - 1)
            assert warm.edge_worst_values(*args) == _engine(spec, kind).edge_worst_values(*args)
            assert warm.best_edge(*args) == _engine(spec, kind).best_edge(*args)
            for ei in range(warm.n_edges):
                want = _engine(spec, kind).best_reveal(*state, x, ei, rounds - 1)
                assert warm.best_reveal(*state, x, ei, rounds - 1) == want


def _off_grid_start(eng, pick):
    """The state after one round at instance 0 whose move lies off the grid.

    The move is label 0 for the label kind and the measure ``(1/3, 2/3, 0,
    ...)`` otherwise, which no grid of ``KINDS`` holds, so loss scores
    become ``Fraction``s. ``pick`` chooses the feasible reveal.
    """
    n = eng.spec.n_labels
    move = 0 if eng.kind == "label" else Measure(
        (Fraction(1, 3), Fraction(2, 3)) + (Fraction(0),) * (n - 2)
    )
    feasible = _feasible(eng, eng.initial_state(), 0)
    return eng.prefix_state((0,), (move,), (feasible[pick % len(feasible)],))


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=40, deadline=None)
@given(seeds, st.none() | st.integers(min_value=0, max_value=2))
def test_value_search_matches_the_exact_recursion(kind, seed, pick):
    """``value`` equals the max over instances of the min of ``edge_worst_values``.

    Both sides run the same search, so this checks that ``value`` and the
    choice methods agree: the right side on an engine of its own per state
    set, ``value`` on one engine, and so one bound memo, across all states.
    With ``pick`` set, the states start from an off-grid prefix round.
    """
    spec = spec_from_seed(seed, horizon=3)
    tests, exact = _engine(spec, kind), _engine(spec, kind)
    start = None if pick is None else _off_grid_start(tests, pick)
    for state, rounds in _states(tests, start):
        want = max(
            min(exact.edge_worst_values(*state, x, rounds - 1))
            for x in range(spec.n_instances)
        )
        assert tests.value(*state, rounds) == want


def _hypotheses(spec):
    """One single-hypothesis collection per row: the collections of the version-space table."""
    return [
        Collection(members=(h,), images=tuple(1 << y for y in row))
        for h, row in enumerate(spec.hypotheses.rows)
    ]


@pytest.mark.parametrize("variant", ["ml", "sl", "bl"])
def test_version_space_choices_agree_with_value(variant):
    """The choice methods read the version-space table of ``ml_sl_bl_dim``.

    ``value`` is the max over instances of the min of ``edge_worst_values``,
    and ``best_instance`` is the lowest instance reaching it, at depths 1 to
    3 from the initial state. A label with no reveal class keeps the top
    score, as in the search, so ``reaching`` at the top score takes instance
    0 and tags exactly those labels ``None``.
    """
    untagged = 0
    for seed in range(45):
        spec = spec_from_seed(seed, horizon=3)
        spec = replace(spec, set_system=_variant_system(spec, variant))
        hypotheses = _hypotheses(spec)
        tests, exact = _VersionSpaceEngine(spec, hypotheses), _VersionSpaceEngine(spec, hypotheses)
        state = tests.initial_state()
        for depth in (1, 2, 3):
            per_instance = [
                min(exact.edge_worst_values(*state, x, depth - 1))
                for x in range(spec.n_instances)
            ]
            assert tests.value(*state, depth) == max(per_instance), (seed, depth)
            want = per_instance.index(max(per_instance))
            assert tests.best_instance(*state, depth) == want, (seed, depth)
            x, tags = tests.reaching(*state, depth, state[0] + state[1][-1][0])
            assert x == 0
            assert [tag is None for tag in tags] == [
                exact.best_reveal(*state, 0, label, depth - 1) is None
                for label in range(spec.n_labels)
            ]
            untagged += tags.count(None)
    assert untagged


class _FullTable:
    """A test search that reads the full move table: no dominance pruning."""

    def _search_moves(self, alive, x):
        return self._moves(alive, x)


class _UnprunedEngine(_FullTable, CollectionEngine):
    pass


class _UnprunedVersionSpace(_FullTable, _VersionSpaceEngine):
    pass


TABLES = sorted(KINDS) + ["ml", "sl", "bl"]


def _four_label_spec(seed):
    """A small explicit spec over four labels, for the version-space table.

    Over at most three labels the maximal family sets that exclude a label
    keep disjoint survivors or one class, so that table prunes nothing there.
    """
    rng = random.Random(seed)
    n_x = rng.randint(1, 2)
    masks = sorted(rng.sample(range(1, 16), rng.randint(3, 7)))
    rows = sorted({tuple(rng.randrange(4) for _ in range(n_x)) for _ in range(rng.randint(2, 6))})
    return GameSpec(
        n_instances=n_x,
        n_labels=4,
        set_system=SetSystem.explicit(4, masks),
        hypotheses=HypothesisClass(n_x, 4, "explicit", tuple(rows)),
        horizon=4,
    )


def test_engine_tables_are_built_once():
    """``edges`` and the version-space reveal sets are read from one table per engine.

    Every read returns the identical object: the labels for the label kind,
    the grid measures otherwise, and per label the maximal family sets
    that exclude it.
    """
    spec = spec_from_seed(0, horizon=4)
    n = spec.n_labels
    for kind in KINDS:
        eng = _engine(spec, kind)
        edges = eng.edges
        assert eng.edges is edges
        assert edges == (list(range(n)) if kind == "label" else measure_grid(n, 2))
    spec = _four_label_spec(0)
    eng = _VersionSpaceEngine(spec, _hypotheses(spec))
    without = eng._without
    assert eng._without is without
    assert without == tuple(map(eng._maximal_without, range(4)))


def _engine_pair(seed, table):
    """``(engine, unpruned engine)`` on one generated spec, for a kind or a version-space variant."""
    if table in KINDS:
        spec = spec_from_seed(seed, horizon=4)
        collections = build_admissible_collections(spec)
        return tuple(
            cls(spec, collections, kind=table, **KINDS[table])
            for cls in (CollectionEngine, _UnprunedEngine)
        )
    spec = _four_label_spec(seed)
    spec = replace(spec, set_system=_variant_system(spec, table))
    hypotheses = _hypotheses(spec)
    return _VersionSpaceEngine(spec, hypotheses), _UnprunedVersionSpace(spec, hypotheses)


def _played_path(eng, seed, rounds):
    """The initial state and the states after each of ``rounds`` random played rounds."""
    rng = random.Random(seed)
    state = eng.initial_state()
    yield state
    for _ in range(rounds):
        x = rng.randrange(eng.spec.n_instances)
        state = eng.update(*state, x, rng.randrange(eng.n_edges), rng.choice(_feasible(eng, state, x)))
        yield state


@pytest.mark.parametrize("table", TABLES)
def test_pruned_search_matches_the_full_table(table):
    """The search without dominated classes values every state as the full table does.

    Both engines solve the same states, at depths 1 to 4, from the initial
    state and from two played rounds, on the label, measure and loss tables
    of generated specs and on the version-space table of each
    ``ml_sl_bl_dim`` variant, over four labels.
    """
    for seed in range(40):
        pruned, full = _engine_pair(seed, table)
        for state in _played_path(pruned, seed, 2):
            for depth in (1, 2, 3, 4):
                assert pruned.value(*state, depth) == full.value(*state, depth), (seed, depth)


@pytest.mark.parametrize("table", sorted(KINDS) + ["sl"])
def test_choice_methods_answer_from_the_full_table(table):
    """Every choice method answers as on the unpruned search, lowest-index ties included.

    A dominated class can tie with the class that dominates it and have the
    lower index, so the choice methods keep the full table. The inputs must
    include choices of a reveal class or an edge class that the search
    prunes, or the check would pass with pruned choices too. The
    version-space table prunes only under the spec's own family (``sl``):
    ``ml`` reveals singletons and ``bl`` one co-singleton per label.
    """
    pruned_choices = 0
    for seed in range(30):
        pruned, full = _engine_pair(seed, table)
        for rounds, state in zip((3, 2, 1), _played_path(pruned, seed, 2)):
            assert pruned.best_instance(*state, rounds) == full.best_instance(*state, rounds)
            alive = alive_mask(state[1])
            for x in range(pruned.spec.n_instances):
                args = (*state, x, rounds - 1)
                assert pruned.edge_worst_values(*args) == full.edge_worst_values(*args)
                best = pruned.best_edge(*args)
                assert best == full.best_edge(*args)
                moves, searched = pruned._moves(alive, x), pruned._search_moves(alive, x)
                positions = pruned._positions(alive, x)
                entry, cls = positions[best]
                pruned_choices += moves[entry][1][cls] not in searched[entry][1]
                for ei in range(pruned.n_edges):
                    tag = pruned.best_reveal(*state, x, ei, rounds - 1)
                    assert tag == full.best_reveal(*state, x, ei, rounds - 1)
                    entry, _ = positions[ei]
                    chosen = [c for c in moves[entry][0] if c[0] == tag]
                    pruned_choices += bool(chosen) and chosen[0] not in searched[entry][0]
    assert pruned_choices


def test_positions_are_built_once_per_state():
    """Repeated choice calls at one state build the edges' table positions once per instance.

    On ``helly_game(3)`` at g = 8 the loss kind has 1,287 edges, so a
    rebuild on each ``best_reveal`` call would cost more than the call's own
    search. The version-space table caches its positions the same way.
    """

    class Counting:
        def _edge_positions(self, alive, x):
            self.builds += 1
            return super()._edge_positions(alive, x)

    class CountingEngine(Counting, CollectionEngine):
        pass

    class CountingVersionSpace(Counting, _VersionSpaceEngine):
        pass

    spec = helly_game(3)
    for eng in (
        CountingEngine(spec, build_admissible_collections(spec), kind="loss", grid=8),
        CountingVersionSpace(spec, _hypotheses(spec)),
    ):
        eng.builds = 0
        state = eng.initial_state()
        for x in range(spec.n_instances):
            for _ in range(2):
                for ei in range(0, eng.n_edges, 97):
                    eng.best_reveal(*state, x, ei, 1)
                eng.edge_worst_values(*state, x, 1)
        assert eng.builds == spec.n_instances


@pytest.mark.parametrize("variant", ["ml", "sl", "bl"])
def test_reveal_sets_are_built_once_per_label(variant):
    """The maximal family sets that exclude a label are filtered once per label and engine.

    They depend on the family and the label only, so solving many states,
    and answering the choice methods at them, must not filter them again.
    """

    class CountingVersionSpace(_VersionSpaceEngine):
        def _maximal_without(self, y):
            self.builds.append(y)
            return super()._maximal_without(y)

    for seed in range(10):
        spec = _four_label_spec(seed)
        spec = replace(spec, set_system=_variant_system(spec, variant))
        eng = CountingVersionSpace(spec, _hypotheses(spec))
        eng.builds = []
        for state in _played_path(eng, seed, 2):
            eng.value(*state, 3)
            for x in range(spec.n_instances):
                eng.edge_worst_values(*state, x, 1)
        assert sorted(eng.builds) == list(range(spec.n_labels)), seed


def test_thresholds_step_through_every_level_score_plus_an_integer():
    """The next value above, and the last below, over levels with three fractional parts."""
    thirds = ((0, 1), (Fraction(1, 3), 2), (Fraction(5, 3), 4))
    assert _above(thirds, 1) == Fraction(4, 3)
    assert _above(thirds, Fraction(4, 3)) == Fraction(5, 3)
    assert _above(thirds, Fraction(5, 3)) == 2
    assert _below(thirds, 2) == Fraction(5, 3)
    assert _below(thirds, Fraction(5, 3)) == Fraction(4, 3)
    assert _below(thirds, Fraction(3, 2)) == Fraction(4, 3)
    whole = ((0, 1), (3, 2))
    assert (_above(whole, 4), _below(whole, 4), _below(whole, Fraction(7, 2))) == (5, 3, 3)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds, st.none() | st.integers(min_value=0, max_value=2))
def test_value_does_not_depend_on_an_unspent_budget(kind, seed, pick):
    """A budget of exactly the states ``value`` expands gives the same value; one less raises."""
    spec = spec_from_seed(seed, horizon=3)
    free = _engine(spec, kind)
    start = free.initial_state() if pick is None else _off_grid_start(free, pick)
    want = free.value(*start, spec.horizon)
    spent = free.nodes
    tight = _engine(spec, kind, budget=spent)
    assert tight.value(*start, spec.horizon) == want
    assert tight.nodes == spent
    if spent:
        short = _engine(spec, kind, budget=spent - 1)
        with pytest.raises(BudgetExceeded) as info:
            short.value(*start, spec.horizon)
        assert (info.value.spent, info.value.budget) == (spent, spent - 1)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("budget", [0, 1, 2, 5, 10, 30])
@settings(max_examples=15, deadline=None)
@given(seeds)
def test_a_budget_never_changes_an_answer(kind, budget, seed):
    """Every entry point on one budgeted engine returns the exact answer or raises.

    The calls share the engine, so the budget runs out inside an edge or
    between calls; an answer after a raise comes from the memo the
    interrupted search left, and must still be exact. Budget 0 raises on the
    first expanded state.
    """
    spec = spec_from_seed(seed, horizon=3)
    exact, budgeted = _engine(spec, kind), _engine(spec, kind, budget=budget)
    state = exact.initial_state()
    h = spec.horizon
    calls = [
        lambda eng: eng.value(*state, h),
        lambda eng: eng.best_instance(*state, h),
    ]
    for x in range(spec.n_instances):
        calls += [
            lambda eng, x=x: eng.edge_worst_values(*state, x, h - 1),
            lambda eng, x=x: eng.best_edge(*state, x, h - 1),
            lambda eng, x=x: eng.best_reveal(*state, x, 0, h - 1),
        ]
    for call in calls:
        want = call(exact)
        try:
            got = call(budgeted)
        except BudgetExceeded as info:
            assert info.spent > info.budget == budget
            continue
        assert got == want


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(st.none() | seeds)
@example(seed=None)
def test_bounds_never_undercut_the_exact_table(kind, seed):
    """``edge_worst_bounds`` is at or above ``edge_worst_values`` in every entry.

    Without a seed: every binary function on three fresh instances, at
    ``g = 4``; each remaining round costs the learner two loss units, so a
    bound adding one unit per remaining round would undercut the exact
    values. With a seed: a generated spec at the grids of ``KINDS``. With no
    rounds below the edge, the bound is the exact table.
    """
    if seed is None:
        spec = GameSpec(
            n_instances=3,
            n_labels=2,
            set_system=SetSystem.full_power_set(2),
            hypotheses=HypothesisClass.explicit(3, 2, itertools.product((0, 1), repeat=3)),
            horizon=3,
        )
        grid = {} if kind == "label" else {"grid": 4}
    else:
        spec, grid = spec_from_seed(seed, horizon=3), {}
    eng = CollectionEngine(
        spec, build_admissible_collections(spec), kind=kind, **{**KINDS[kind], **grid}
    )
    for state, rounds in _states(eng):
        for x in range(spec.n_instances):
            exact = eng.edge_worst_values(*state, x, rounds - 1)
            bounds = eng.edge_worst_bounds(*state, x, rounds - 1)
            assert all(b >= e for b, e in zip(bounds, exact))
            leaves = eng.edge_worst_values(*state, x, 0)
            assert eng.edge_worst_bounds(*state, x, 0) == leaves


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=99))
def test_prefix_state_matches_played_rounds(kind, seed, play_seed):
    """Seeding from a prefix of grid moves equals playing it with ``update``."""
    spec = spec_from_seed(seed, horizon=3)
    eng = _engine(spec, kind)
    rng = random.Random(play_seed)
    state = eng.initial_state()
    xs, moves, ys = [], [], []
    for _ in range(2):
        x = rng.randrange(spec.n_instances)
        ei = rng.randrange(len(eng.edges))
        y = rng.choice(_feasible(eng, state, x))
        state = eng.update(*state, x, ei, y)
        xs.append(x)
        moves.append(eng.edges[ei])
        ys.append(y)
        assert eng.prefix_state(xs, moves, ys) == state


GAMMAS = [Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]


def _one_instance_spec(n):
    """One instance, ``n`` labels, one hypothesis per label and every set listed."""
    return GameSpec(
        n_instances=1,
        n_labels=n,
        set_system=SetSystem.full_power_set(n),
        hypotheses=HypothesisClass(1, n, "explicit", tuple((y,) for y in range(n))),
        horizon=1,
    )


def _pairwise_reveals(eng, alive, x):
    """Each label's survivor mask at ``x``, kept unless an earlier kept label has it."""
    out = []
    for y in range(eng.spec.n_labels):
        keep = sum(
            1 << cid
            for cid, images in enumerate(eng.images)
            if alive >> cid & 1 and images[x] >> y & 1
        )
        if keep and all(keep != k for _, k in out):
            out.append((y, keep))
    return out


def _wide_spec(seed):
    """An explicit spec over up to 8 labels whose every singleton is a member set."""
    rng = random.Random(seed)
    n_y = rng.randint(2, 8)
    n_x = rng.randint(1, 3)
    masks = {1 << y for y in range(n_y)} | set(
        rng.sample(range(1, 1 << n_y), rng.randint(1, min(8, (1 << n_y) - 1)))
    )
    rows = sorted({tuple(rng.randrange(n_y) for _ in range(n_x)) for _ in range(rng.randint(1, 7))})
    return GameSpec(
        n_instances=n_x,
        n_labels=n_y,
        set_system=SetSystem.explicit(n_y, sorted(masks)),
        hypotheses=HypothesisClass(n_x, n_y, "explicit", tuple(rows)),
        horizon=2,
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(seed=None)
def test_reveal_classes_match_the_pairwise_rule(seed):
    """``_reveals`` lists the classes the pairwise first-label rule does, in its order.

    The states are every collection alive and random alive subsets, on
    generated specs and (seed ``None``) the 10-label prefix-parity game.
    """
    spec = prefix_parity_game(3, 3) if seed is None else _wide_spec(seed)
    eng = _engine(spec, "label")
    rng = random.Random(str(seed))
    everyone = (1 << len(eng.images)) - 1
    for alive in [everyone, *(rng.randint(1, everyone) for _ in range(20))]:
        for x in range(spec.n_instances):
            assert eng._reveals(alive, x) == _pairwise_reveals(eng, alive, x)


def _tuple_rule_classes(eng, alive, x):
    """``(edge classes, positions)`` by the per-edge tuple rule, from the unpacked tables.

    Each edge's increment vector over the alive groups is a tuple; the
    classes are the distinct tuples in first-occurrence order, each as its
    ``(increment, OR of group masks)`` pairs in first-group order.
    """
    groups = [(image, mask) for image, mask in eng._groups(x) if mask & alive]
    vectors = list(zip(*(_unpack(eng._table(image), eng.n_edges) for image, _ in groups)))
    distinct = list(dict.fromkeys(vectors))
    classes = []
    for inc in distinct:
        by_value = {}
        for v, (_, mask) in zip(inc, groups):
            by_value[v] = by_value.get(v, 0) | mask
        classes.append(tuple(by_value.items()))
    index = {inc: cls for cls, inc in enumerate(distinct)}
    return classes, [(0, index[inc]) for inc in vectors]


def _alive_parts(classes, alive):
    """Each edge class as ``{increment: mask & alive}``: what the search reads of it."""
    return [{v: mask & alive for v, mask in inc} for inc in classes]


def _alive_masks(eng, seed, tries):
    """Every collection alive, then ``tries`` random alive subsets."""
    rng = random.Random(seed)
    everyone = (1 << len(eng.images)) - 1
    return [everyone, *(rng.randint(1, everyone) for _ in range(tries))]


def _assert_edge_classes_match(eng, seed, tries=20):
    """Grid kinds: ``_edge_classes`` exactly. Label kind: the move table's classes on the alive parts."""
    for alive in _alive_masks(eng, seed, tries):
        for x in range(eng.spec.n_instances):
            classes, positions = _tuple_rule_classes(eng, alive, x)
            if eng.kind == "label":
                got = _alive_parts(eng._moves(alive, x)[0][1], alive)
                assert got == _alive_parts(classes, alive)
            else:
                assert eng._edge_classes(alive, x) == classes
            assert eng._positions(alive, x) == positions


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(sorted(KINDS)),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(GAMMAS),
)
def test_edge_classes_match_the_tuple_rule(seed, kind, g, gamma):
    """The move table's edge classes and ``_positions`` equal the per-edge tuple rule on every kind.

    The grid kinds dedup packed keys and decode them; the label kind reads
    its classes off the survivor masks, on the alive parts of the groups.
    The states are every collection alive and random alive subsets of
    generated specs over up to 8 labels.
    """
    spec = _wide_spec(seed)
    params = {"label": {}, "loss": {"grid": g}, "measure": {"grid": g, "gamma": gamma}}[kind]
    eng = CollectionEngine(spec, build_admissible_collections(spec), kind=kind, **params)
    _assert_edge_classes_match(eng, seed)


@pytest.mark.parametrize(
    "n, kind, params",
    [
        (6, "loss", {"grid": 12}),
        (7, "measure", {"grid": 3, "gamma": Fraction(1, 3)}),
        (7, "label", {}),
    ],
    ids=["loss-g12", "measure-g3", "label"],
)
def test_edge_classes_match_the_tuple_rule_past_one_key_word(n, kind, params):
    """Keys of more alive groups than one 64-bit word holds are tuples of words.

    One instance under the full power set gives one group per nonempty
    image: 63 groups of 4-bit loss increments at ``g = 12`` (16 per word)
    and 127 one-bit measure increments (64 per word).
    """
    spec = _one_instance_spec(n)
    eng = CollectionEngine(spec, build_admissible_collections(spec), kind=kind, **params)
    assert len(eng._groups(0)) == (1 << n) - 1
    _assert_edge_classes_match(eng, n, tries=3)


def _least(edges):
    """The label edge classes whose increments are not at least another class's on every group.

    The min-side dominance rule on label edges, written on charged masks: a
    label edge charges each group 0 or 1, so one class's increments are at
    least another's on every group exactly when the groups it charges hold
    every group the other charges.
    """
    charged = [sum(mask for v, mask in inc if v) for inc in edges]
    return [
        inc for inc, mask in zip(edges, charged)
        if not any(other != mask and other & mask == other for other in charged)
    ]


def _assert_label_search_table(eng, seed, tries=20):
    """The label search table and leaf test against the min-side rule over the full table."""
    for alive in _alive_masks(eng, seed, tries):
        for x in range(eng.spec.n_instances):
            reveals = _pairwise_reveals(eng, alive, x)
            classes, _ = _tuple_rule_classes(eng, alive, x)
            [(searched_reveals, searched_edges)] = eng._search_moves(alive, x)
            assert searched_reveals == _maximal(reveals)
            assert _alive_parts(searched_edges, alive) == _alive_parts(_least(classes), alive)
        assert eng._leaf_children(alive) == all(
            eng._settled(keep)
            for x in range(eng.spec.n_instances)
            for _, keep in _pairwise_reveals(eng, alive, x)
        )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_label_search_table_keeps_the_least_edge_classes(seed):
    """The search's label table is its maximal reveal classes, each as the edge class it names.

    Its edge classes equal the full table's less every class that charges
    each group at least as much as another class does, and the leaf test on
    its reveal classes equals the leaf test on every reveal class. The
    states are every collection alive and random alive subsets of generated
    specs over up to 8 labels.
    """
    spec = _wide_spec(seed)
    _assert_label_search_table(_engine(spec, "label"), seed)


def test_label_search_table_keeps_the_least_edge_classes_on_18_labels():
    """The same rule on the 18-label, 32-row prefix-parity game at four rounds."""
    spec = load_spec_file(TEST_SPECS / "prefix_parity_t4.yaml").spec
    _assert_label_search_table(_engine(spec, "label"), 18)


def test_label_value_builds_no_full_move_table(monkeypatch):
    """``pfl_dim`` reads only the search's table: the label kind never builds ``_moves`` or grid classes.

    The game is the 18-label prefix-parity game at four rounds, whose value
    4 takes a search below the root. A choice method on the same engine
    class does build the full table, so the count is live.
    """
    calls = Counter()

    class Counting(CollectionEngine):
        def _moves(self, alive, x):
            calls["_moves"] += 1
            return super()._moves(alive, x)

        def _edge_classes(self, alive, x):
            calls["_edge_classes"] += 1
            return super()._edge_classes(alive, x)

        def _search_moves(self, alive, x):
            calls["_search_moves"] += 1
            return super()._search_moves(alive, x)

    spec = load_spec_file(TEST_SPECS / "prefix_parity_t4.yaml").spec
    monkeypatch.setattr(pflab.dimensions, "CollectionEngine", Counting)
    assert pfl_dim(spec, 4) == 4
    assert calls["_search_moves"] and set(calls) == {"_search_moves"}
    eng = Counting(spec, build_admissible_collections(spec))
    eng.best_edge(*eng.initial_state(), 0, 3)
    assert calls["_moves"] and not calls["_edge_classes"]


class _ClassScan:
    """A test engine whose all-leaf scan takes the class rule on every state.

    The reference for the single-level scan: an edge class's worst case is
    the largest top score over its reveal classes in the full move table,
    and never below the state's top score; an instance takes its least edge
    class and the state its largest instance, with no early stop.
    """

    def _scan(self, levels, alive, ub):
        self._expand()
        lb = levels[-1][0]
        return max(
            min(
                max([lb, *(_top(levels, keep, inc) for _, keep in reveals)])
                for reveals, edges in self._moves(alive, x)
                for inc in edges
            )
            for x in range(self.spec.n_instances)
        )


class _ClassScanEngine(_ClassScan, CollectionEngine):
    pass


class _ClassScanVersionSpace(_ClassScan, _VersionSpaceEngine):
    pass


def _six_label_spec(seed):
    """An explicit spec over six labels whose every singleton is a member set, with 4 to 16 more."""
    rng = random.Random(seed)
    n_x = rng.randint(1, 2)
    masks = {1 << y for y in range(6)} | set(rng.sample(range(1, 64), rng.randint(4, 16)))
    rows = sorted({tuple(rng.randrange(6) for _ in range(n_x)) for _ in range(rng.randint(3, 7))})
    return GameSpec(
        n_instances=n_x,
        n_labels=6,
        set_system=SetSystem.explicit(6, sorted(masks)),
        hypotheses=HypothesisClass(n_x, 6, "explicit", tuple(rows)),
        horizon=3,
    )


def _assert_scans_agree(eng, ref, seed, depths=(1, 2, 3)):
    """The engine's scan equals the class rule's, state by state and through ``value``.

    Every collection alive and random alive subsets are scanned as
    single-level states, and split at random over two levels, and the
    states of a played path as they are. Each path state is solved at every
    depth on both engines, which must expand the same number of states.
    """
    rng = random.Random(seed)
    ub = 3 * eng.scale
    for alive in _alive_masks(eng, seed, 8):
        high = alive & rng.getrandbits(alive.bit_length())
        split = ((0, alive ^ high), (rng.randint(1, eng.scale), high))
        for levels in [((0, alive),)] + [split] * (0 < high < alive):
            assert eng._scan(levels, alive, ub) == ref._scan(levels, alive, ub)
    for base, levels in _played_path(eng, seed, 2):
        alive = alive_mask(levels)
        assert eng._scan(levels, alive, ub) == ref._scan(levels, alive, ub)
        for depth in depths:
            assert eng.value(base, levels, depth) == ref.value(base, levels, depth), depth
    assert eng.nodes == ref.nodes


HELLY_TRIANGLE = (0b001011, 0b101100, 0b110010)
FOUR_CYCLE = (0b000111, 0b011100, 0b110001, 0b101010)


def _overlap_spec(masks):
    """One instance, six labels, one hypothesis per label: a finite-Helly system of ``pflab rand``."""
    return GameSpec(
        n_instances=1,
        n_labels=6,
        set_system=SetSystem.explicit(6, list(masks)),
        hypotheses=HypothesisClass(1, 6, "explicit", tuple((y,) for y in range(6))),
        horizon=3,
    )


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(sorted(KINDS)),
    st.integers(min_value=1, max_value=12),
    st.sampled_from(GAMMAS),
)
@example(seed=-1, kind="loss", g=10, gamma=Fraction(0))
@example(seed=-2, kind="measure", g=12, gamma=Fraction(1, 3))
@example(seed=-1, kind="loss", g=12, gamma=Fraction(0))
def test_single_level_scan_matches_the_class_rule(seed, kind, g, gamma):
    """The packed single-level scan values every state as the class rule does, on every kind.

    The specs are generated over six labels, on grids up to ``g = 12``
    (6,188 edges); seeds -1 and -2 are the 4-cycle and the Helly triangle.
    """
    spec = {-1: _overlap_spec(FOUR_CYCLE), -2: _overlap_spec(HELLY_TRIANGLE)}.get(seed)
    spec = spec or _six_label_spec(seed)
    params = {"label": {}, "loss": {"grid": g}, "measure": {"grid": g, "gamma": gamma}}[kind]
    collections = build_admissible_collections(spec)
    eng, ref = (
        cls(spec, collections, kind=kind, **params) for cls in (CollectionEngine, _ClassScanEngine)
    )
    _assert_scans_agree(eng, ref, seed)


def test_single_level_scan_takes_off_grid_prefix_scores():
    """Loss-kind states whose one score is an off-grid ``Fraction`` solve as on the class rule.

    A prefix round plays a measure off the grid, and every state it leaves
    with one level (so a non-integer base) is solved at depths 1 to 3.
    """
    third, rest = Fraction(1, 3), Fraction(2, 3)
    thirds = [Measure((third, rest)), Measure((third, 0, rest))]
    solved = 0
    for seed in range(40):
        spec = spec_from_seed(seed, horizon=4)
        collections = build_admissible_collections(spec)
        eng, ref = (
            cls(spec, collections, kind="loss", grid=4) for cls in (CollectionEngine, _ClassScanEngine)
        )
        mu = thirds[spec.n_labels - 2]
        for x, y in itertools.product(range(spec.n_instances), range(spec.n_labels)):
            try:
                base, levels = eng.prefix_state((x,), (mu,), (y,))
            except EmptyConsistentSet:
                continue
            if len(levels) == 1 and Fraction(base).denominator != 1:
                solved += 1
                for depth in (1, 2, 3):
                    assert eng.value(base, levels, depth) == ref.value(base, levels, depth)
                assert eng.nodes == ref.nodes
    assert solved


@pytest.mark.parametrize("variant", ["ml", "sl", "bl"])
def test_single_level_scan_matches_the_class_rule_on_the_version_space(variant):
    """The version-space rule, 1 when every table entry has a reveal class, is the class rule's."""
    for seed in range(40):
        spec = _four_label_spec(seed)
        spec = replace(spec, set_system=_variant_system(spec, variant))
        hypotheses = _hypotheses(spec)
        eng, ref = _VersionSpaceEngine(spec, hypotheses), _ClassScanVersionSpace(spec, hypotheses)
        _assert_scans_agree(eng, ref, seed, depths=(1, 2, 3, 4))


def test_grid_leaf_roots_build_no_edge_classes(monkeypatch):
    """The rand values on the 4-cycle and the Helly triangle build no edge class and no move table.

    Each root is a single-level state whose children are all leaves: the
    leaf test reads reveal classes only and the scan reads whole tables. A
    choice method on the same engine class does build both, so the count
    is live.
    """
    calls = Counter()

    class Counting(CollectionEngine):
        def _moves(self, alive, x):
            calls["_moves"] += 1
            return super()._moves(alive, x)

        def _edge_classes(self, alive, x):
            calls["_edge_classes"] += 1
            return super()._edge_classes(alive, x)

    monkeypatch.setattr(pflab.measure_dims, "CollectionEngine", Counting)
    cycle, helly = _overlap_spec(FOUR_CYCLE), _overlap_spec(HELLY_TRIANGLE)
    assert minimax_rand_regret(cycle, 3, g=10) == Fraction(1, 2)
    assert pms_dim(helly, 3, Fraction(1, 3), g=12) == 1
    assert not calls
    eng = Counting(cycle, build_admissible_collections(cycle), kind="loss", grid=4)
    eng.best_edge(*eng.initial_state(), 0, 2)
    assert calls["_moves"] and calls["_edge_classes"]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=16),
    st.sampled_from(GAMMAS),
    st.integers(min_value=1, max_value=63),
)
@example(6, 8, Fraction(1, 3), 0b010110)
@example(2, 1, Fraction(0), 1)
@example(6, 12, Fraction(1, 3), 0b101001)
@example(2, 16, Fraction(1), 1)
def test_increment_tables_match_the_exact_charge_rule(n, g, gamma, probe):
    """Every image's increment table equals the charge rule on exact ``Fraction`` masses.

    The rule reads each grid edge as its :func:`measure_grid` measure: the
    loss kind charges ``g`` times the mass outside the image, the measure
    kind charges 1 when the mass inside is at most ``1 - gamma`` (below 1
    when ``gamma`` is 0), and the label kind charges a label outside the
    image, the loss of its point mass. Up to ``g = 16`` a loss increment
    needs 5 bits of an edge key; at ``gamma = 1`` the measure kind charges
    only a mass of 0. ``_charge`` reads one entry of a table: on the image
    ``probe`` (cut to ``n`` labels) it gives the table's entry at every edge.
    """
    spec = _one_instance_spec(n)
    loss = CollectionEngine(spec, [], kind="loss", grid=g)
    measure = CollectionEngine(spec, [], kind="measure", gamma=gamma, grid=g)
    label = CollectionEngine(spec, [], kind="label")
    grid = measure_grid(n, g)
    # The exact mass of every grid measure on an image, adding one label at a time.
    on = {0: [Fraction(0)] * len(grid)}
    tables = {}
    for image in range(1, 1 << n):
        low = image & -image
        y = low.bit_length() - 1
        masses = on[image] = [mass + m.weights[y] for mass, m in zip(on[image ^ low], grid)]
        tables[image] = {
            eng: _unpack(eng._table(image), eng.n_edges) for eng in (loss, measure, label)
        }
        assert tables[image][loss].tolist() == [g * (1 - mass) for mass in masses]
        assert tables[image][measure].tolist() == [
            int(mass < 1 if gamma == 0 else mass <= 1 - gamma) for mass in masses
        ]
        assert tables[image][label].tolist() == [
            Measure.delta(n, y).miss_mass(image) for y in range(n)
        ]
    probe = probe & ((1 << n) - 1) or 1
    for eng, table in tables[probe].items():
        assert [eng._charge(edge, probe) for edge in range(eng.n_edges)] == table.tolist()


@pytest.mark.parametrize("gamma", GAMMAS)
def test_off_grid_charges_are_exact_at_the_threshold(gamma):
    """A prefix measure at exactly ``1 - gamma`` on the image is charged; just above it is not.

    At ``gamma = 0`` the measure kind charges a mass below 1 and not a mass
    of 1. The loss kind charges ``g`` times the exact mass outside the
    image, a ``Fraction`` off the grid.
    """
    spec = _one_instance_spec(3)
    (pair,) = [c for c in build_admissible_collections(spec) if c.images == (0b011,)]
    g = 4
    loss = CollectionEngine(spec, [pair], kind="loss", grid=g)
    measure = CollectionEngine(spec, [pair], kind="measure", gamma=gamma, grid=g)
    step = Fraction(1, 1000)
    charged, free = (1 - step, Fraction(1)) if gamma == 0 else (1 - gamma, 1 - gamma + step)
    for mass, want in ((charged, 1), (free, 0)):
        # Half the mass on each image label, the rest on label 2.
        mu = Measure((mass / 2, mass / 2, 1 - mass))
        assert measure.prefix_state((0,), (mu,), (0,)) == (want, ((0, 1),))
        assert loss.prefix_state((0,), (mu,), (0,)) == (g * (1 - mass), ((0, 1),))


@pytest.mark.parametrize(
    "spec_of, depth, value, nodes",
    [
        (lambda: helly_game(3), 3, 1, 1),
        (lambda: _family_spec(0), 3, 0, 0),
        (lambda: _family_spec(1), 3, 0, 0),
        (lambda: _family_spec(120), 6, 2, 80),
        (lambda: _family_spec(200), 7, 2, 98),
    ],
    ids=["helly3", "family0", "family1", "family120", "family200"],
)
def test_pinned_expanded_states(spec_of, depth, value, nodes):
    eng = _engine(spec_of(), "label")
    assert eng.value(*eng.initial_state(), depth) == value
    assert eng.nodes == nodes


_THIRDS = Measure((Fraction(1, 3), Fraction(2, 3)))


@pytest.mark.parametrize(
    "index, kind, extra, prefix, depth, value, nodes",
    [
        (120, "loss", {"grid": 4}, None, 4, 4, 201),
        (200, "loss", {"grid": 4}, None, 3, 5, 93),
        (120, "measure", {"gamma": Fraction(1, 3), "grid": 4}, None, 4, 2, 50),
        (160, "measure", {"gamma": Fraction(1, 3), "grid": 4}, None, 4, 1, 32),
        # Off-grid prefix charges: 4/3 and 8/3 units of 1/4.
        (160, "loss", {"grid": 4}, ((0,), (_THIRDS,), (1,)), 3, Fraction(13, 3), 45),
        (120, "loss", {"grid": 4}, ((0, 1), (_THIRDS, _THIRDS), (1, 0)), 3, 4, 3),
    ],
    ids=["loss120", "loss200", "measure120", "measure160", "loss160-prefix", "loss120-prefix"],
)
def test_pinned_expanded_states_of_grid_kinds(index, kind, extra, prefix, depth, value, nodes):
    """Loss and measure values and counts, from the empty prefix and off-grid prefixes.

    The values were pinned on the tuple-state engine, before the recursion
    moved to score levels.
    """
    spec = _family_spec(index)
    eng = CollectionEngine(spec, build_admissible_collections(spec), kind=kind, **extra)
    state = eng.initial_state() if prefix is None else eng.prefix_state(*prefix)
    assert eng.value(*state, depth) == value
    assert eng.nodes == nodes


@pytest.mark.parametrize(
    "spec_of, transcript",
    [
        (lambda: helly_game(3), ((0, 0, 0), (0, 1, 1), (1, 1, 1), (50, 50, 50), 1)),
        # Family 120 needs more states than each budget: play stops, it does not degrade.
        (lambda: _family_spec(120), BudgetExceeded),
    ],
)
@pytest.mark.parametrize("budget", [1, 3, 8])
def test_pinned_dpfla_vs_optimal(spec_of, transcript, budget):
    learner = PotentialMinimizingLearner(potential_budget=budget)
    if transcript is BudgetExceeded:
        with pytest.raises(BudgetExceeded, match=f"exceeded {budget} expanded states"):
            play_game(spec_of(), learner, OptimalAdversary())
        return
    t = play_game(spec_of(), learner, OptimalAdversary())
    assert (t.instances, t.predictions, t.reveals, t.sets, t.loss) == transcript


@pytest.mark.parametrize("budget", [0, None])
def test_pinned_dpfla_bound_rule_and_exact_play(budget):
    """Family 120 at ``budget: 0`` (the bound-guided rule) and without a budget."""
    t = play_game(_family_spec(120), PotentialMinimizingLearner(potential_budget=budget),
                  OptimalAdversary())
    assert (t.instances, t.predictions, t.reveals, t.sets, t.loss) == (
        (0, 0, 0, 0, 0, 1), (0, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1), (2, 2, 2, 2, 2, 2), 2
    )


def _b5x3():
    """The det-solve class b5x3-0: three binary instances, five hypotheses."""
    return GameSpec(
        n_instances=3,
        n_labels=2,
        set_system=SetSystem.full_power_set(2),
        hypotheses=HypothesisClass.explicit(
            3, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]
        ),
        horizon=3,
    )


def test_value_stays_cheap_where_it_stops_growing():
    """b5x3-0's value stays 2 as the depth grows; the search must not grow cubically.

    The test search expands 6,552 states at depth 300; an exact recursion
    without null-window tests expands 53,206 already at depth 40.
    """
    assert pfl_dim(_b5x3(), 300, budget=20_000) == 2


def test_choices_stay_cheap_where_the_value_stops_growing():
    """The choice methods reach ``value``'s horizons on b5x3-0.

    They run the test search too, so depth 300 fits in 50,000 states; the
    exact recursion they used to run exceeded 20,000 states at depth 40.
    """
    eng = _engine(_b5x3(), "label", budget=50_000)
    state = eng.initial_state()
    assert eng.best_instance(*state, 300) == 0
    assert eng.best_edge(*state, 0, 299) == 0
    assert eng.best_reveal(*state, 0, 0, 299) == 1


def test_pinned_states_of_potential_play():
    """dpfla's potential and prediction against the optimal adversary, summed over ten games.

    This is the loop of ``replicate``'s potential check, on every third
    ``binary_full_system_family`` class from index 100. ``best_edge`` and
    ``best_instance`` read the bound memo ``value`` and earlier choices
    filled; with a second search of their own the sums were 1,320 and 1,464.
    ``best_instance`` tests each child against the value with one
    null-window test; solving each child exactly took 645 adversary states.
    """
    learner = adversary = 0
    for index in range(100, 130, 3):
        spec = _family_spec(index)
        lrn, adv = PotentialMinimizingLearner(), OptimalAdversary()
        lrn.begin(spec)
        adv.begin(spec)
        for _ in range(spec.horizon):
            lrn.current_potential()
            x = adv.choose_instance()
            lrn.observe(adv.reveal(x, lrn.predict(x)))
        learner += lrn._engines[0].nodes
        adversary += adv._engine.nodes
    assert (learner, adversary) == (717, 514)


def test_horizon_beyond_the_recursion_limit_raises_budget_exceeded():
    with pytest.raises(BudgetExceeded, match="over 5000 rounds"):
        pfl_dim(_b5x3(), 5000)


@pytest.mark.parametrize(
    "call",
    [
        lambda eng, state: eng.value(*state, 5000),
        lambda eng, state: eng.best_instance(*state, 5000),
        lambda eng, state: eng.edge_worst_values(*state, 0, 4999),
        lambda eng, state: eng.best_edge(*state, 0, 4999),
        lambda eng, state: eng.best_reveal(*state, 0, 0, 4999),
    ],
    ids=["value", "best_instance", "edge_worst_values", "best_edge", "best_reveal"],
)
def test_every_entry_point_reports_a_too_deep_recursion(call):
    """A ``RecursionError`` leaves the engine as ``BudgetExceeded``."""
    eng = _engine(_b5x3(), "label")
    with pytest.raises(BudgetExceeded, match="exceeds Python's recursion limit"):
        call(eng, eng.initial_state())

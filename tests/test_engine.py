"""CollectionEngine's choice methods against naive tables, plus pinned counts.

The naive tables recurse through ``value`` on every feasible reveal, with no
survivor-set dedup, so they check the engine's reveal classes and its
per-edge worst case independently. The pinned numbers were taken from the
engine before its reveal scans were merged into one pass; they hold the
expanded-state counts and the budget fallback of ``on_budget="bound"`` fixed.
"""

import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pflab import (
    BudgetExceeded,
    GameSpec,
    HypothesisClass,
    Measure,
    OptimalAdversary,
    PotentialMinimizingLearner,
    SetSystem,
    build_admissible_collections,
    helly_game,
    pfl_dim,
    play_game,
)
from pflab.engine import CollectionEngine
from pflab.families import binary_full_system_family
from pflab.setsystems import iter_bits

from test_properties import seeds, spec_from_seed

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


def _feasible(eng, alive, x):
    mask = 0
    for cid in alive:
        mask |= eng.images[cid][x]
    return [y for y in range(eng.spec.n_labels) if (mask >> y) & 1]


def _states(eng):
    """The initial state and every state one round (edge 0) below it."""
    alive, scores = eng.initial_state()
    rounds = eng.spec.horizon
    yield alive, scores, rounds
    for x in range(eng.spec.n_instances):
        for y in _feasible(eng, alive, x):
            yield (*eng.update(alive, scores, x, 0, y), rounds - 1)


def _child_values(eng, alive, scores, x, edge_index, child_depth):
    return {
        y: eng.value(*eng.update(alive, scores, x, edge_index, y), child_depth)
        for y in _feasible(eng, alive, x)
    }


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=30, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=10_000))
def test_version_space_rules_match_the_alive_images(kind, seed, walk):
    """``feasible``, ``common`` and ``update_set`` against an OR, an AND and a filter.

    The states are the initial one and those along a random played prefix.
    """
    spec = spec_from_seed(seed, horizon=3)
    eng = _engine(spec, kind)
    rng = random.Random(walk)
    alive, scores = eng.initial_state()
    for _ in range(spec.horizon):
        for x in range(spec.n_instances):
            images = [eng.images[cid][x] for cid in alive]
            assert eng.feasible(alive, x) == functools.reduce(operator.or_, images)
            assert eng.common(alive, x) == functools.reduce(operator.and_, images)
            for mask in range(1, 1 << spec.n_labels):
                edge = rng.randrange(eng.n_edges)
                kept = [i for i, img in enumerate(images) if img == mask]
                got = eng.update_set(alive, scores, x, edge, mask)
                assert got[0] == tuple(alive[i] for i in kept)
                if kept:
                    # Charged as a label reveal inside the set charges.
                    by_cid = dict(zip(*eng.update(alive, scores, x, edge, min(iter_bits(mask)))))
                    assert got[1] == tuple(by_cid[alive[i]] for i in kept)
                if kind == "label":
                    miss = 1 - ((mask >> edge) & 1)
                    assert got[1] == tuple(scores[i] + miss for i in kept)
        x = rng.randrange(spec.n_instances)
        y = rng.choice(_feasible(eng, alive, x))
        alive, scores = eng.update(alive, scores, x, rng.randrange(eng.n_edges), y)


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds)
def test_choice_methods_match_naive_tables(kind, seed):
    spec = spec_from_seed(seed, horizon=3)
    eng = _engine(spec, kind)
    for alive, scores, rounds in _states(eng):
        for x in range(spec.n_instances):
            children = [
                _child_values(eng, alive, scores, x, ei, rounds - 1)
                for ei in range(len(eng.edges))
            ]
            naive = [max(c.values()) for c in children]
            table = eng.edge_worst_values(alive, scores, x, rounds - 1)
            assert table == naive
            assert eng.best_edge(alive, scores, x, rounds - 1) == naive.index(min(naive))
            for ei, c in enumerate(children):
                want = min(y for y, v in c.items() if v == naive[ei])
                assert eng.best_reveal(alive, scores, x, ei, rounds - 1) == want


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds)
def test_choice_methods_share_the_value_memo(kind, seed):
    """After ``value`` fills the memo, the choice methods answer as on a fresh engine.

    The choice methods enter the memo from arbitrary states, so this checks
    that every entry point normalizes its memo keys the same way.
    """
    spec = spec_from_seed(seed, horizon=3)
    warm = _engine(spec, kind)
    warm.value(*warm.initial_state(), spec.horizon)
    for alive, scores, rounds in _states(warm):
        for x in range(spec.n_instances):
            args = (alive, scores, x, rounds - 1)
            assert warm.edge_worst_values(*args) == _engine(spec, kind).edge_worst_values(*args)
            assert warm.best_edge(*args) == _engine(spec, kind).best_edge(*args)
            for ei in range(warm.n_edges):
                want = _engine(spec, kind).best_reveal(alive, scores, x, ei, rounds - 1)
                assert warm.best_reveal(alive, scores, x, ei, rounds - 1) == want


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds)
def test_bound_mode_is_exact_with_unspent_budget(kind, seed):
    spec = spec_from_seed(seed, horizon=3)
    exact, bounded = _engine(spec, kind), _engine(spec, kind)
    for alive, scores, rounds in _states(exact):
        for x in range(spec.n_instances):
            assert bounded.edge_worst_values(
                alive, scores, x, rounds - 1, on_budget="bound"
            ) == exact.edge_worst_values(alive, scores, x, rounds - 1)


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("budget", [0, 2, 10])
def test_bound_mode_never_undercuts_the_exact_table(kind, budget):
    """Budget fallbacks are upper bounds in the engine's units (1/g for loss).

    Every binary function on three fresh instances, at ``g = 4``: each
    remaining round costs the learner two loss units, so a fallback adding
    one unit per remaining round would undercut the exact values. Budget 0
    takes the no-recursion scan, budgets 2 and 10 run out inside an edge.
    """
    spec = GameSpec(
        n_instances=3,
        n_labels=2,
        set_system=SetSystem.full_power_set(2),
        hypotheses=HypothesisClass.explicit(3, 2, itertools.product((0, 1), repeat=3)),
        horizon=3,
    )
    grid = {} if kind == "label" else {"grid": 4}
    exact, bounded = (
        CollectionEngine(spec, build_admissible_collections(spec), kind=kind, budget=b,
                         **{**KINDS[kind], **grid})
        for b in (None, budget)
    )
    alive, scores = exact.initial_state()
    for x in range(spec.n_instances):
        want = exact.edge_worst_values(alive, scores, x, 2)
        got = bounded.edge_worst_values(alive, scores, x, 2, on_budget="bound")
        assert all(b >= e for b, e in zip(got, want))


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(seeds, st.integers(min_value=0, max_value=99))
def test_prefix_state_matches_played_rounds(kind, seed, play_seed):
    """Seeding from a prefix of grid moves equals playing it with ``update``."""
    spec = spec_from_seed(seed, horizon=3)
    eng = _engine(spec, kind)
    rng = random.Random(play_seed)
    alive, scores = eng.initial_state()
    xs, moves, ys = [], [], []
    for _ in range(2):
        x = rng.randrange(spec.n_instances)
        ei = rng.randrange(len(eng.edges))
        y = rng.choice(_feasible(eng, alive, x))
        alive, scores = eng.update(alive, scores, x, ei, y)
        xs.append(x)
        moves.append(eng.edges[ei])
        ys.append(y)
        assert eng.prefix_state(xs, moves, ys) == (alive, scores)


@pytest.mark.parametrize(
    "spec_of, depth, value, nodes",
    [
        (lambda: helly_game(3), 3, 1, 1),
        (lambda: _family_spec(0), 3, 0, 0),
        (lambda: _family_spec(1), 3, 0, 0),
        (lambda: _family_spec(120), 6, 2, 352),
        (lambda: _family_spec(200), 7, 2, 446),
    ],
)
def test_pinned_expanded_states(spec_of, depth, value, nodes):
    eng = _engine(spec_of(), "label")
    assert eng.value(*eng.initial_state(), depth) == value
    assert eng.nodes == nodes


_THIRDS = Measure((Fraction(1, 3), Fraction(2, 3)))


@pytest.mark.parametrize(
    "index, kind, extra, prefix, depth, value, nodes",
    [
        (120, "loss", {"grid": 4}, None, 4, 4, 631),
        (200, "loss", {"grid": 4}, None, 3, 5, 141),
        (120, "measure", {"gamma": Fraction(1, 3), "grid": 4}, None, 4, 2, 104),
        (160, "measure", {"gamma": Fraction(1, 3), "grid": 4}, None, 4, 1, 64),
        # Off-grid prefix charges: 4/3 and 8/3 units of 1/4.
        (160, "loss", {"grid": 4}, ((0,), (_THIRDS,), (1,)), 3, Fraction(13, 3), 71),
        (120, "loss", {"grid": 4}, ((0, 1), (_THIRDS, _THIRDS), (1, 0)), 3, 4, 24),
    ],
)
def test_pinned_expanded_states_of_grid_kinds(index, kind, extra, prefix, depth, value, nodes):
    """Loss and measure values and counts, from the empty prefix and off-grid prefixes.

    Pinned on the tuple-state engine, before the recursion moved to score
    levels.
    """
    spec = _family_spec(index)
    eng = CollectionEngine(spec, build_admissible_collections(spec), kind=kind, **extra)
    state = eng.initial_state() if prefix is None else eng.prefix_state(*prefix)
    assert eng.value(*state, depth) == value
    assert eng.nodes == nodes


@pytest.mark.parametrize(
    "index, budget, tables, nodes",
    [
        (120, 1, [[6, 6], [6, 6], [6, 6]], 5),
        (120, 250, [[2, 5], [6, 6], [6, 6]], 251),
        (120, 400, [[2, 2], [2, 6], [6, 6]], 402),
        (160, 10, [[6, 5], [6, 6], [6, 6]], 12),
        (160, 150, [[2, 1], [6, 5], [6, 6]], 152),
    ],
)
def test_pinned_bound_tables(index, budget, tables, nodes):
    """Tables where the budget runs out inside an edge, or before the call."""
    spec = _family_spec(index)
    eng = _engine(spec, "label", budget=budget)
    alive, scores = eng.initial_state()
    got = [
        eng.edge_worst_values(alive, scores, x, spec.horizon - 1, on_budget="bound")
        for x in range(spec.n_instances)
    ]
    assert got == tables
    assert eng.nodes == nodes


@pytest.mark.parametrize(
    "spec_of, transcript",
    [
        (lambda: helly_game(3), ((0, 0, 0), (0, 1, 1), (1, 1, 1), (50, 50, 50), 1)),
        (
            lambda: _family_spec(120),
            ((0, 0, 0, 0, 0, 1), (0, 1, 1, 1, 1, 0), (1, 1, 1, 1, 1, 1),
             (2, 2, 2, 2, 2, 2), 2),
        ),
    ],
)
@pytest.mark.parametrize("budget", [1, 3, 8])
def test_pinned_dpfla_vs_optimal(spec_of, transcript, budget):
    spec = spec_of()
    t = play_game(spec, PotentialMinimizingLearner(potential_budget=budget), OptimalAdversary())
    assert (t.instances, t.predictions, t.reveals, t.sets, t.loss) == transcript


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


def test_horizon_beyond_the_recursion_limit_raises_budget_exceeded():
    with pytest.raises(BudgetExceeded, match="over 5000 rounds"):
        pfl_dim(_b5x3(), 5000)


@pytest.mark.parametrize(
    "call",
    [
        lambda eng, state: eng.value(*state, 5000),
        lambda eng, state: eng.best_instance(*state, 5000),
        lambda eng, state: eng.edge_worst_values(*state, 0, 4999),
        lambda eng, state: eng.edge_worst_values(*state, 0, 4999, on_budget="bound"),
        lambda eng, state: eng.best_edge(*state, 0, 4999),
        lambda eng, state: eng.best_reveal(*state, 0, 0, 4999),
    ],
    ids=["value", "best_instance", "edge_worst_values", "bound", "best_edge", "best_reveal"],
)
def test_every_entry_point_reports_a_too_deep_recursion(call):
    """A ``RecursionError`` leaves the engine as ``BudgetExceeded``, even in bound mode."""
    eng = _engine(_b5x3(), "label")
    with pytest.raises(BudgetExceeded, match="exceeds Python's recursion limit"):
        call(eng, eng.initial_state())

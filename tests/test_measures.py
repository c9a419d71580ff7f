"""Exact rational measures and the label-simplex grid."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

from pflab import (
    GridTooLarge,
    Measure,
    SpecError,
    build_admissible_collections,
    grid_size,
    mask_of,
    measure_grid,
)
from pflab.engine import CollectionEngine
from pflab.measures import grid_columns, grid_counts, grid_words

from conftest import two_constant_game


def test_measure_validation():
    with pytest.raises(SpecError):
        Measure(())
    with pytest.raises(SpecError):
        Measure((Fraction(1, 2), Fraction(1, 3)))  # sums to 5/6
    with pytest.raises(SpecError):
        Measure((Fraction(3, 2), Fraction(-1, 2)))  # negative weight


@pytest.mark.parametrize(
    "weights",
    [
        (0.5, 0.5, 0.0),  # sums to 1 exactly, yet is no exact measure
        (0.1, 0.2, 0.7),  # sums to 1 only through float rounding
        (True, False),
        (Fraction(1, 2), 0.5),
    ],
)
def test_measure_rejects_inexact_weights(weights):
    bad = next(w for w in weights if type(w) is not Fraction)
    with pytest.raises(SpecError, match=f"^measure weight {bad!r} is not a Fraction or an int$"):
        Measure(weights)


def test_measure_accepts_fractions_and_ints():
    assert Measure((1, 0)).weights == (1, 0)
    assert Measure((Fraction(1, 2), Fraction(1, 2))).mass(0b01) == Fraction(1, 2)
    # ``of`` converts every weight through Fraction.
    assert Measure.of({0: 0.5, 1: "1/2"}, 2).weights == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize(
    "weights",
    [
        (0, 1, 0),
        (1, 0, 0, 0),
        (Fraction(1, 2), Fraction(0), Fraction(1, 2)),
        (Fraction(1, 3), 0, Fraction(2, 3), Fraction(0)),
    ],
)
def test_support_mask_is_cached_and_matches_a_scan(weights):
    m = Measure(weights)
    scan = sum(1 << y for y, w in enumerate(weights) if w != 0)
    assert m.support_mask() == scan
    assert vars(m)["_support"] == scan
    assert m.support_mask() == scan  # answered from the cache
    fresh = Measure(weights)
    assert m == fresh and hash(m) == hash(fresh)


def test_delta_and_uniform():
    d = Measure.delta(4, 2)
    assert d.weights == (0, 0, 1, 0)
    u = Measure.uniform_over(4, [1, 3])
    assert u.weights == (0, Fraction(1, 2), 0, Fraction(1, 2))
    with pytest.raises(SpecError):
        Measure.delta(2, 5)
    with pytest.raises(SpecError):
        Measure.uniform_over(3, [])


def test_mass_and_miss_mass_are_complements():
    m = Measure((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)))
    s = mask_of([0, 2])
    assert m.mass(s) == Fraction(2, 3)
    assert m.miss_mass(s) == Fraction(1, 3)
    assert m.mass(s) + m.miss_mass(s) == 1
    assert m.mass(0) == 0
    assert m.miss_mass(0b111) == 0


def test_grid_size_matches_stars_and_bars():
    for n in range(1, 5):
        for g in range(1, 6):
            assert grid_size(n, g) == comb(g + n - 1, n - 1)


def test_measure_grid_enumeration():
    pts = measure_grid(2, 4)
    assert len(pts) == 5
    assert len(set(pts)) == 5
    for m in pts:
        assert sum(m.weights) == 1
        assert all(w.denominator in (1, 2, 4) for w in m.weights)
    # deltas always appear
    assert Measure.delta(2, 0) in pts
    assert Measure.delta(2, 1) in pts


def test_measure_grid_weights_are_the_grid_counts():
    """Weights times g give the count tuples, in the same lexicographically decreasing order."""
    for n in range(2, 5):
        for g in range(1, 7):
            counts = grid_counts(n, g)
            assert [tuple(w * g for w in m.weights) for m in measure_grid(n, g)] == counts
            assert counts == sorted(set(counts), reverse=True)
            assert len(counts) == grid_size(n, g)
            assert all(sum(c) == g and min(c) >= 0 for c in counts)


def _compositions(n, g):
    """Every count tuple over ``n`` labels summing to ``g``, lexicographically decreasing."""
    if n == 1:
        return [(g,)]
    return [(c,) + rest for c in range(g, -1, -1) for rest in _compositions(n - 1, g - c)]


@pytest.mark.parametrize(
    "n, g", [(n, g) for n in range(2, 7) for g in range(1, 9)] + [(34, 1), (66, 1)]
)
def test_grid_columns_are_the_compositions(n, g):
    """Every grid reader lists the compositions: the columns, the counts and the packed words.

    A packed word is read field by field with shifts, apart from the
    byte-level reader the columns use.
    """
    columns = grid_columns(n, g)
    size = grid_size(n, g)
    assert len(columns) == n
    assert all(type(column) is tuple and len(column) == size for column in columns)
    words = grid_words(n, g)
    assert len(words) == n and all(word < 1 << (64 * size) for word in words)
    fields = [tuple(word >> (64 * i) & (1 << 64) - 1 for i in range(size)) for word in words]
    assert list(zip(*columns)) == _compositions(n, g) == grid_counts(n, g) == list(zip(*fields))


def test_grid_too_large_raises_before_building():
    # Building 8 * 10**22 points would not finish; the size check comes first.
    for build in (grid_columns, grid_words):
        with pytest.raises(GridTooLarge) as info:
            build(6, 100_000)
        assert info.value.spent == grid_size(6, 100_000)
        # The spec checks come before the budget check.
        with pytest.raises(SpecError):
            build(1, 100_000)
        with pytest.raises(SpecError):
            build(100_000, 0)


def test_engine_over_the_grid_budget_raises(monkeypatch):
    monkeypatch.setenv("PFLAB_BUDGET_GRID", "5")
    spec = two_constant_game()
    cols = build_admissible_collections(spec)
    for kind, extra in (("loss", {}), ("measure", {"gamma": Fraction(1, 2)})):
        with pytest.raises(GridTooLarge, match=r"^grid\(2, 5\) has 6 measures, budget 5$"):
            CollectionEngine(spec, cols, kind=kind, grid=5, **extra)
        assert len(CollectionEngine(spec, cols, kind=kind, grid=4, **extra).edges) == 5


def test_measure_grid_budget():
    with pytest.raises(GridTooLarge):
        measure_grid(10, 60, budget=1000)


@given(st.integers(min_value=2, max_value=4), st.integers(min_value=1, max_value=5))
def test_grid_count_agrees_with_size(n, g):
    assert len(measure_grid(n, g)) == grid_size(n, g)


def test_measure_grid_rejects_degenerate_inputs():
    with pytest.raises(SpecError):
        measure_grid(1, 3)
    with pytest.raises(SpecError):
        measure_grid(2, 0)


@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
    )
)
def test_uniform_miss_mass_is_proportional(args):
    n, mask = args
    support = tuple(range(n))
    u = Measure.uniform_over(n, support)
    inside = bin(mask).count("1")
    assert u.miss_mass(mask) == Fraction(n - inside, n)

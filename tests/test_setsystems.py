from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from pflab import (
    BudgetExceeded,
    SetSystem,
    SpecError,
    helly_number,
    inseparability_report,
    labels_of,
    mask_of,
)
from pflab import setsystems
from pflab.families import small_binary_family, ternary_slice
from pflab.setsystems import iter_bits


def helly_by_table(system):
    """Reference Helly number from a table over all 2^m subfamilies of the m members.

    ``inter[s]`` is the intersection of the members that subset bitmask ``s``
    selects; the answer is the largest ``s`` with empty intersection all of
    whose one-smaller subsets intersect, or 1 if there is none.
    """
    members = system.members()
    m = len(members)
    inter = [(1 << system.n_labels) - 1] * (1 << m)
    for s in range(1, 1 << m):
        low = (s & -s).bit_length() - 1
        inter[s] = inter[s & (s - 1)] & members[low]
    best = 1
    for s in range(1, 1 << m):
        if inter[s] == 0 and s.bit_count() > best:
            if all(inter[s & ~(1 << j)] for j in iter_bits(s)):
                best = s.bit_count()
    return best


def test_mask_round_trip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert labels_of(0b100101) == (0, 2, 5)
    assert labels_of(0) == ()


def test_explicit_rejects_bad_sets():
    with pytest.raises(SpecError):
        SetSystem.explicit(2, [])
    with pytest.raises(SpecError):
        SetSystem.explicit(2, [0])  # empty set
    with pytest.raises(SpecError):
        SetSystem.explicit(2, [0b100])  # label out of range


@pytest.mark.parametrize("label", [2, 2**40, 10**40])
def test_a_label_list_is_range_checked_before_its_mask_is_built(label):
    # The mask 1 << label would take label bits: 2**40 needs 128 GiB, and
    # 10**40 ended in OverflowError, not a SpecError.
    with pytest.raises(SpecError) as err:
        SetSystem.explicit(2, [[0], [label, 1, label]])
    assert str(err.value) == f"set (1, {label}) uses labels outside range(2)"


@pytest.mark.parametrize(
    "entry", [[0.5], [0.0], [True], [-1], True, 1.0, None],
    ids=["float label", "integral float label", "bool label", "negative label",
         "bool mask", "float mask", "None"],
)
def test_explicit_sets_hold_plain_nonnegative_ints(entry):
    # [True] was read as label 1 and True as the mask {0}; the others ended
    # in a bare TypeError or ValueError.
    with pytest.raises(SpecError):
        SetSystem.explicit(2, [0b01, entry])


def test_bounded_kind_membership():
    sys4 = SetSystem.all_nonempty_up_to(4, 2)
    assert sys4.contains(0b0011)
    assert sys4.contains(0b1000)
    assert not sys4.contains(0b0111)
    assert sys4.kind == "bounded"
    assert len(sys4.members()) == 4 + 6


def test_full_power_set():
    sysf = SetSystem.full_power_set(3)
    assert len(sysf.members()) == 7
    assert sysf.contains(0b111)


def test_helly_number_worked_cases():
    # three pairwise-overlapping sets with empty total intersection
    triple = SetSystem.explicit(6, [mask_of([0, 1, 3]), mask_of([2, 3, 5]), mask_of([1, 4, 5])])
    assert helly_number(triple) == 3
    # single set: no empty-intersection subfamily at all
    assert helly_number(SetSystem.explicit(2, [0b11])) == 1
    # two disjoint singletons
    assert helly_number(SetSystem.explicit(2, [0b01, 0b10])) == 2


def test_helly_of_bounded_singletons():
    assert helly_number(SetSystem.all_nonempty_up_to(3, 1)) == 2


# All 3-label sets over labels 0-5, plus {6} and {0, 6, 7}: 22 member sets.
TWENTY_TWO = SetSystem.explicit(
    8, [mask_of(c) for c in combinations(range(6), 3)] + [mask_of([6]), mask_of([0, 6, 7])]
)


@pytest.mark.parametrize(
    "system, helly",
    [
        (SetSystem.full_power_set(5), 5),
        (SetSystem.all_nonempty_up_to(6, 2), 3),
        (TWENTY_TWO, 4),
    ],
    ids=["power set over 5 labels", "all_nonempty_up_to 2 over 6 labels", "22 explicit sets"],
)
def test_helly_past_twenty_members(system, helly):
    assert system.size() > 20
    assert helly_number(system) == helly
    # the same family listed as explicit sets, which the search walks
    assert helly_number(SetSystem.explicit(system.n_labels, system.members())) == helly


def test_bounded_closed_forms_equal_scans():
    for n in range(1, 7):
        for k in range(1, n + 1):
            bounded = SetSystem.all_nonempty_up_to(n, k)
            members = bounded.members()
            listed = SetSystem.explicit(n, members)
            assert helly_number(bounded) == helly_number(listed), (n, k)
            if len(members) <= 12:
                assert helly_number(bounded) == helly_by_table(listed), (n, k)
            scan = all(a | b in set(members) for a, b in combinations(members, 2))
            assert bounded.union_closed() == listed.union_closed() == scan, (n, k)


def test_helly_on_every_family_system_equals_the_table():
    for slug, spec in list(small_binary_family(horizons=(1,))) + list(ternary_slice(horizons=(1,))):
        assert helly_number(spec.set_system) == helly_by_table(spec.set_system), slug


def test_helly_search_stops_at_its_node_budget(monkeypatch):
    monkeypatch.setattr(setsystems, "HELLY_SEARCH_NODES", 5)
    with pytest.raises(BudgetExceeded) as caught:
        helly_number(TWENTY_TWO)
    assert caught.value.spent == 6 and caught.value.budget == 5


def test_inseparability_report_vacuous():
    rep = inseparability_report(SetSystem.explicit(2, [0b11]), 1)
    assert rep["condition1_holds"] is True
    assert rep["condition2_holds"] is True
    assert rep["helly"] == 1
    assert rep["truncated"] is False


def test_inseparability_report_triple():
    triple = SetSystem.explicit(6, [mask_of([0, 1, 3]), mask_of([2, 3, 5]), mask_of([1, 4, 5])])
    rep = inseparability_report(triple, 3)
    assert rep["condition1_holds"] is False
    assert rep["condition2_holds"] is True
    assert not inseparability_report(triple, 2)["condition2_holds"]
    with pytest.raises(SpecError):
        inseparability_report(triple, 0)


def test_truncated_flag_passthrough():
    rep = inseparability_report(SetSystem.explicit(2, [0b01, 0b10]), 2, truncated=True)
    assert rep["truncated"] is True


def test_union_closed_and_singletons():
    s = SetSystem.explicit(2, [0b01, 0b10, 0b11])
    assert s.union_closed()
    assert s.singletons_included()
    assert not SetSystem.explicit(2, [0b01, 0b10]).union_closed()
    assert not SetSystem.explicit(3, [0b011, 0b110]).singletons_included()
    assert SetSystem.all_nonempty_up_to(3, 2).singletons_included()


@st.composite
def small_systems(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    universe = list(range(1, 1 << n))
    masks = draw(st.lists(st.sampled_from(universe), min_size=1, max_size=5, unique=True))
    return SetSystem.explicit(n, sorted(masks))


@st.composite
def families(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=12, unique=True))
    return SetSystem.explicit(n, masks)


@settings(max_examples=300, deadline=None)
@given(families())
def test_helly_search_equals_the_subfamily_table(system):
    assert helly_number(system) == helly_by_table(system)


@given(small_systems())
def test_helly_at_most_set_count(system):
    assert 1 <= helly_number(system) <= len(system.members())


@given(small_systems())
def test_minimal_condition2_witness_is_the_helly_number(system):
    h = helly_number(system)
    assert inseparability_report(system, h)["condition2_holds"]
    # whenever some subfamily has empty intersection, h is minimal
    members = system.members()
    full_inter = members[0]
    for m in members[1:]:
        full_inter &= m
    has_empty = any(
        _subfamily_empty(members, size) for size in range(1, len(members) + 1)
    ) if full_inter == 0 else False
    if full_inter == 0 and h > 1:
        assert not inseparability_report(system, h - 1)["condition2_holds"]
    if full_inter != 0:
        assert h == 1
        assert has_empty is False


def _subfamily_empty(members, size):
    from itertools import combinations

    for combo in combinations(members, size):
        inter = combo[0]
        for m in combo[1:]:
            inter &= m
        if inter == 0:
            return True
    return False

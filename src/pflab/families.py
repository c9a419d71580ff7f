"""Enumerated spec families for exhaustive cross-checks at desk scale.

Each generator yields (slug, spec) pairs over a documented slice of the space
of small games. Slugs are stable across runs so failures are reproducible by
name. Specs whose admissible-collection family is empty are filtered out when
requested: the set-realizable game is vacuous there and minimax values are
undefined.
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb

from .errors import AdmissibleEmpty, nonnegative
from .game import (
    GameSpec,
    HypothesisClass,
    Realizability,
    build_admissible_collections,
)
from .setsystems import SetSystem


def all_set_systems(n_labels: int):
    """Every nonempty family of nonempty label subsets, by ascending family mask.

    There are 2^(2^n - 1) - 1 of them, so callers stride or cap for n > 2.
    """
    subsets = [m for m in range(1, 1 << n_labels)]
    for fammask in range(1, 1 << len(subsets)):
        masks = [subsets[i] for i in range(len(subsets)) if (fammask >> i) & 1]
        yield SetSystem.explicit(n_labels, masks)


def all_hypothesis_classes(n_instances: int, n_labels: int, max_size: int):
    """Every class of 1..max_size distinct tables, in lexicographic table order."""
    nonnegative(max_size, "max_class_size")
    tables = list(product(range(n_labels), repeat=n_instances))
    for size in range(1, max_size + 1):
        if size > len(tables):
            break
        for combo in combinations(range(len(tables)), size):
            rows = [list(tables[i]) for i in combo]
            yield HypothesisClass.explicit(n_instances, n_labels, rows)


def _admissible(spec: GameSpec) -> bool:
    try:
        build_admissible_collections(spec)
    except AdmissibleEmpty:
        return False
    return True


def enumerate_specs(
    n_labels: int,
    instance_counts,
    max_class_size: int,
    horizons,
    system_stride: int = 1,
    skip_empty: bool = True,
    realizability=Realizability.SET_REALIZABLE,
):
    """Cross product of systems, classes, and horizons, as (slug, spec) pairs."""
    systems = list(all_set_systems(n_labels))[::system_stride]
    for si, system in enumerate(systems):
        for n_x in instance_counts:
            classes = list(all_hypothesis_classes(n_x, n_labels, max_class_size))
            for hi, hyps in enumerate(classes):
                for T in horizons:
                    spec = GameSpec(
                        n_instances=n_x,
                        n_labels=n_labels,
                        set_system=system,
                        hypotheses=hyps,
                        horizon=T,
                        realizability=realizability,
                    )
                    if skip_empty and not _admissible(spec):
                        continue
                    slug = f"y{n_labels}-s{si * system_stride}-x{n_x}-h{hi}-t{T}"
                    yield slug, spec


def small_binary_family(horizons=(1, 2, 3), max_class_size: int = 3):
    """Complete binary-alphabet slice: all 7 systems, all classes up to size 3."""
    yield from enumerate_specs(2, (1, 2), max_class_size, horizons)


def ternary_slice(horizons=(1, 2), stride: int = 8):
    """Deterministic subsample of the 127 ternary systems, single instance."""
    yield from enumerate_specs(3, (1,), 3, horizons, system_stride=stride)


def mistake_bound_family():
    """Binary games sized so the coarse mistake bound binds at each class size.

    For a class of n tables the bound is the sum of C(n, i) for i = 1..n//2;
    the horizon is set to bound + 2 so a learner could in principle exceed it.
    """
    for si, system in enumerate(all_set_systems(2)):
        for n_x in (1, 2):
            for hi, hyps in enumerate(all_hypothesis_classes(n_x, 2, 4)):
                n = hyps.size
                bound = sum(comb(n, i) for i in range(1, n // 2 + 1))
                spec = GameSpec(
                    n_instances=n_x,
                    n_labels=2,
                    set_system=system,
                    hypotheses=hyps,
                    horizon=bound + 2,
                    realizability=Realizability.SET_REALIZABLE,
                )
                if not _admissible(spec):
                    continue
                yield f"mb-s{si}-x{n_x}-h{hi}", spec, bound


def binary_full_system_family(max_class_size: int = 5, n_instances: int = 3):
    """All classes of up to 5 binary tables over 3 instances, full power set.

    Horizon n+2 is the binding case for the linear regret bound: the
    deterministic minimax value is nondecreasing in the horizon and the bound
    n does not grow with it.
    """
    system = SetSystem.full_power_set(2)
    for hi, hyps in enumerate(all_hypothesis_classes(n_instances, 2, max_class_size)):
        n = hyps.size
        spec = GameSpec(
            n_instances=n_instances,
            n_labels=2,
            set_system=system,
            hypotheses=hyps,
            horizon=n + 2,
            realizability=Realizability.SET_REALIZABLE,
        )
        yield f"full-h{hi}-n{n}", spec

"""Families of feasible label sets, represented as bitmasks.

A set system is a nonempty family of distinct nonempty subsets of the label
alphabet ``{0, ..., n_labels - 1}``. Two kinds are supported:

* ``explicit``: an ordered tuple of member sets, given directly;
* ``bounded``: every nonempty subset of size at most ``max_size``. This kind
  exists for games whose family is too large to enumerate (binomial sums over
  tens of labels) but has a one-line membership test.

:meth:`SetSystem.span_fill` answers two questions about a subset with one
scan of the member sets: which labels can still join it (the union of the
member sets that contain it, its ``span``), and which labels complete it to
a member set (its ``fill``).

:func:`helly_number` searches label sets, not subfamilies: each member of a
minimal subfamily with empty intersection has a label of its own, so the
search is bounded by the label count, not by the 2^m subfamilies of the m
member sets. On a bounded system it and :meth:`SetSystem.union_closed` are
closed forms, so neither enumerates the family.

Throughout the package a label subset is an ``int`` bitmask: bit ``y`` set
means label ``y`` is in the subset. Masks are cheap to intersect, compare,
and hash, which the minimax recursions lean on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, count
from math import comb
from typing import Iterator

from .errors import BudgetExceeded, SpecError, game_size, label_mask, plain_int, plain_ints

# The Helly search is exponential in the number of labels at worst; past this
# many nodes (label sets tried and members picked) it stops.
HELLY_SEARCH_NODES = 1 << 20


def mask_of(labels) -> int:
    """Bitmask of an iterable of label indices."""
    m = 0
    for y in labels:
        m |= 1 << y
    return m


def labels_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of label indices present in ``mask``."""
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first; :class:`ValueError` on a negative mask.

    A negative int has set bits without end, so it is refused before the
    first bit is read.
    """
    if mask < 0:
        raise ValueError(f"a bitmask must be nonnegative, got {mask}")
    y = 0
    while mask:
        if mask & 1:
            yield y
        mask >>= 1
        y += 1


@dataclass(frozen=True)
class SetSystem:
    """A family of feasible label sets over ``n_labels`` labels.

    Use :meth:`explicit` or :meth:`all_nonempty_up_to` to construct; the raw
    constructor does no validation.
    """

    n_labels: int
    kind: str  # "explicit" or "bounded"
    masks: tuple[int, ...] = ()
    max_size: int = 0

    @classmethod
    def explicit(cls, n_labels: int, sets) -> "SetSystem":
        """Build an explicit system from an iterable of label iterables or masks."""
        game_size(n_labels, 1, "a set system needs at least one label")
        masks = []
        for m in sets:
            if type(m) is not int:  # a list of labels, each a plain int >= 0 (a bool is not)
                labels = plain_ints(
                    m, 0, None, SpecError, "set label {value!r} is not a plain int >= 0"
                )
                if any(y >= n_labels for y in labels):  # before 1 << y allocates y bits
                    shown = tuple(sorted(set(labels)))
                    raise SpecError(f"set {shown} uses labels outside range({n_labels})")
                m = mask_of(labels)
            label_mask(m, SpecError, "set bitmask {value} is negative")
            if m == 0:
                raise SpecError("set systems may not contain the empty set")
            if m >> n_labels:
                raise SpecError(f"set {labels_of(m)} uses labels outside range({n_labels})")
            masks.append(m)
        if not masks:
            raise SpecError("a set system must contain at least one set")
        if len(set(masks)) != len(masks):
            raise SpecError("set systems must list distinct sets; duplicates are rejected, not merged")
        return cls(n_labels=n_labels, kind="explicit", masks=tuple(masks))

    @classmethod
    def all_nonempty_up_to(cls, n_labels: int, max_size: int) -> "SetSystem":
        """All nonempty label subsets of size at most ``max_size``."""
        game_size(n_labels, 1, "a set system needs at least one label")
        message = f"max_size must lie in [1, {n_labels}], got {{value}}"
        plain_int(max_size, 1, n_labels + 1, SpecError, message)
        return cls(n_labels=n_labels, kind="bounded", max_size=max_size)

    @classmethod
    def full_power_set(cls, n_labels: int) -> "SetSystem":
        """All nonempty label subsets, as a bounded-kind system."""
        return cls.all_nonempty_up_to(n_labels, n_labels)

    # -- membership and feasibility -----------------------------------------

    def contains(self, mask: int) -> bool:
        """Is ``mask`` a member set of this system?"""
        if mask == 0 or mask >> self.n_labels:
            return False
        if self.kind == "bounded":
            return mask.bit_count() <= self.max_size
        return mask in self._member_index

    def superset_exists(self, mask: int) -> bool:
        """Does some member set contain every label of ``mask``?

        The empty mask always qualifies. Answered from :meth:`span_fill`.
        """
        return mask == 0 or self.span_fill(mask)[0] != 0

    def span_fill(self, mask: int) -> tuple[int, int]:
        """``(span, fill)`` of ``mask``, both from one scan of the member sets.

        ``span`` is the union of the member sets that contain ``mask`` (0 if
        none does): a label ``y`` is in it exactly when ``mask | 1 << y``
        lies inside some member set. ``fill`` holds the labels ``y`` for
        which ``mask | 1 << y`` is itself a member set, so it lies inside
        ``span``. A member ``m`` containing ``mask`` adds ``m ^ mask`` to
        ``fill`` when that is a single label, and every label of ``mask``
        when it is empty. On a bounded system the two coincide: every label
        while ``mask`` has fewer than ``max_size`` labels, ``mask`` itself
        at ``max_size``, nothing above it. A mask with a bit at or above
        ``n_labels`` gets ``(0, 0)``. The admissible-collection walk reads
        the labels that keep a partial image feasible and the labels that
        complete it to a member set from one call.
        """
        if mask >> self.n_labels:
            return 0, 0
        if self.kind == "bounded":
            size = mask.bit_count()
            if size < self.max_size:
                full = (1 << self.n_labels) - 1
                return full, full
            hit = mask if size == self.max_size else 0
            return hit, hit
        hit = self._answers.get(mask)
        if hit is None:
            span = fill = 0
            for m in self.masks:
                if m & mask == mask:
                    span |= m
                    rest = m ^ mask
                    if rest & (rest - 1) == 0:
                        fill |= rest or mask
            hit = self._answers[mask] = (span, fill)
        return hit

    # ``masks`` is immutable, so the tables below are derived once per instance.

    @cached_property
    def _answers(self) -> dict:
        """:meth:`span_fill`'s answer to each distinct mask asked of an explicit system."""
        return {}

    @cached_property
    def _member_index(self) -> frozenset:
        """The member masks as a set, for :meth:`contains`."""
        return frozenset(self.masks)

    # -- enumeration ----------------------------------------------------------

    def size(self) -> int:
        if self.kind == "explicit":
            return len(self.masks)
        return sum(comb(self.n_labels, i) for i in range(1, self.max_size + 1))

    def members(self, budget: int = 1 << 20) -> tuple[int, ...]:
        """All member masks, in a deterministic order.

        Explicit systems keep their given order. Bounded systems enumerate by
        size then lexicographically, and refuse when the count exceeds
        ``budget``.
        """
        if self.kind == "explicit":
            return self.masks
        n = self.size()
        if n > budget:
            raise BudgetExceeded(
                f"bounded set system has {n} members, budget {budget}", spent=n, budget=budget
            )
        out = []
        for size in range(1, self.max_size + 1):
            for labels in combinations(range(self.n_labels), size):
                out.append(mask_of(labels))
        return tuple(out)

    def union_closed(self) -> bool:
        """Is the family closed under pairwise unions?

        A bounded system is closed exactly when it holds every nonempty set.
        """
        if self.kind == "bounded":
            return self.max_size == self.n_labels
        members = self.masks
        idx = set(members)
        return all(a | b in idx for a, b in combinations(members, 2))

    def singletons_included(self) -> bool:
        """Does the family contain every singleton label set?"""
        return all(self.contains(1 << y) for y in range(self.n_labels))


# -- analyses ------------------------------------------------------------------


def helly_number(system: SetSystem) -> int:
    """Largest size of an inclusion-minimal subfamily with empty intersection.

    A subfamily is minimal when dropping any single member makes the
    intersection nonempty. If no subfamily has empty intersection at all, the
    defining condition is vacuous at every size and the value is 1.

    Each member ``S`` of a minimal subfamily has a private label: one that
    every other member holds and ``S`` does not. Private labels are distinct,
    so a minimal subfamily of size ``k`` is a label set ``L`` of size ``k``
    with one member ``S_l`` per label ``l`` of ``L``, holding ``L`` but for
    ``l``, such that the ``S_l`` have empty intersection; and any such choice
    is one. So the search tries sizes ``k`` from the largest possible down,
    grows each ``L`` a label at a time while every label in it keeps such a
    member and (below size ``k``) some member holds all of it, and then picks
    the ``S_l`` depth-first among the inclusion-minimal ones. A bounded
    system has the closed form ``min(n_labels, max_size + 1)``. Past
    ``HELLY_SEARCH_NODES`` label sets and picks the search raises
    :class:`BudgetExceeded`.
    """
    n = system.n_labels
    if system.kind == "bounded":
        return min(n, system.max_size + 1)
    members = system.masks
    every = (1 << len(members)) - 1
    # bit i of holders[y] is set iff member i holds label y
    holders = [sum(1 << i for i, m in enumerate(members) if m >> y & 1) for y in range(n)]
    if every in holders:  # a label in every member: no subfamily has empty intersection
        return 1
    ticks = count(1)
    for k in range(min(n, len(members), max(map(int.bit_count, members)) + 1), 1, -1):
        # (next label, L, the members holding all of L, per label l of L the
        # members holding L but for l)
        stack = [(0, 0, every, ())]
        while stack:
            start, labels, common, private = stack.pop()
            _spend(ticks)
            if len(private) == k:
                if _empty_pick(members, labels, private, ticks):
                    return k
                continue
            for y, h in enumerate(holders[start : n - k + len(private) + 1], start):
                kept = tuple(p & h for p in private)
                own = common & ~h
                if own and all(kept) and (common & h or len(kept) == k - 1):
                    stack.append((y + 1, labels | 1 << y, common & h, (*kept, own)))
    return 1


def _empty_pick(members, labels: int, private, ticks) -> bool:
    """Can one member be picked from each member-index mask in ``private`` so
    that the picks have empty intersection?

    Every pick holds all of ``labels`` but one, and that one is held by the
    other picks, so only a pick's part outside ``labels`` decides the
    intersection, and only the inclusion-minimal parts need trying.
    """
    choices = []
    for p in private:
        rests = {members[i] & ~labels for i in iter_bits(p)}
        choices.append([r for r in rests if not any(o != r and o & r == o for o in rests)])
    choices.sort(key=len)
    stack = [(0, -1)]
    while stack:
        i, common = stack.pop()
        _spend(ticks)
        if common == 0:
            return True
        if i < len(choices):
            stack.extend((i + 1, common & r) for r in choices[i])
    return False


def _spend(ticks) -> None:
    """Count one search node; :class:`BudgetExceeded` past ``HELLY_SEARCH_NODES``."""
    spent = next(ticks)
    if spent > HELLY_SEARCH_NODES:
        raise BudgetExceeded(
            f"Helly search exceeded {HELLY_SEARCH_NODES} nodes", spent=spent, budget=HELLY_SEARCH_NODES
        )


def inseparability_report(system: SetSystem, p: int | None = None, truncated: bool = False) -> dict:
    """Check the two sufficient conditions for grid-exactness of the minimax value.

    Condition (1): every subfamily with empty intersection contains a nested
    (superset-ordered) chain with empty intersection. A finite chain's
    intersection is its smallest member, which validity keeps nonempty, so no
    finite system has such a chain, and the condition holds exactly when no
    subfamily has an empty intersection at all, i.e. when the Helly number is
    1. The condition is genuinely about infinite families; ``truncated=True``
    flags that this report was computed on a finite truncation of one, so a
    ``False`` here says nothing about the untruncated family.

    Condition (2): every subfamily with empty intersection admits an
    empty-intersection sub-subfamily of size at most ``p``. That is exactly
    ``helly_number(system) <= p``, and it is vacuously true when no subfamily
    has empty intersection (where the Helly number is 1 by convention).

    Both conditions are read off :func:`helly_number`, so the report costs
    one Helly search (a closed form on a bounded system) and no member cap.
    ``p`` defaults to the Helly number itself, the smallest ``p`` for which
    condition (2) holds; the report names the ``p`` it checked.
    """
    if p is not None:
        plain_int(p, 1, None, SpecError, "p must be a positive integer, got {value!r}")
    h = helly_number(system)
    p = h if p is None else p
    return {
        "condition1_holds": h == 1,
        "condition2_holds": h <= p,
        "helly": h,
        "p": p,
        "truncated": truncated,
    }

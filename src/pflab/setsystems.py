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

Throughout the package a label subset is an ``int`` bitmask: bit ``y`` set
means label ``y`` is in the subset. Masks are cheap to intersect, compare,
and hash, which the minimax recursions lean on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator

from .errors import BudgetExceeded, SpecError

# Most set-system analyses enumerate subcollections of the family, which is
# exponential in the family size; this cap keeps them from running away.
MAX_ANALYZED_MEMBERS = 20


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

    def __deepcopy__(self, memo):
        return self

    @classmethod
    def explicit(cls, n_labels: int, sets) -> "SetSystem":
        """Build an explicit system from an iterable of label iterables or masks."""
        if n_labels < 1:
            raise SpecError("a set system needs at least one label")
        masks = []
        for s in sets:
            m = s if isinstance(s, int) else mask_of(s)
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
        if n_labels < 1:
            raise SpecError("a set system needs at least one label")
        if not 1 <= max_size <= n_labels:
            raise SpecError(f"max_size must lie in [1, {n_labels}], got {max_size}")
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
        return mask in self._member_index()

    def superset_exists(self, mask: int) -> bool:
        """Does some member set contain every label of ``mask``?

        The empty mask always qualifies. Answered from :meth:`span_fill`.
        """
        return mask == 0 or self.span_fill(mask)[0] != 0

    def span(self, mask: int) -> int:
        """The union of the member sets that contain ``mask``, or 0 if none does.

        The first half of :meth:`span_fill`.
        """
        return self.span_fill(mask)[0]

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
        # masks is immutable, so the answer to each distinct mask is cached.
        known = getattr(self, "_answers", None)
        if known is None:
            known = {}
            object.__setattr__(self, "_answers", known)
        hit = known.get(mask)
        if hit is None:
            span = fill = 0
            for m in self.masks:
                if m & mask == mask:
                    span |= m
                    rest = m ^ mask
                    if rest & (rest - 1) == 0:
                        fill |= rest or mask
            hit = known[mask] = (span, fill)
        return hit

    def _member_index(self) -> frozenset:
        # masks is immutable, so caching on the instance is safe.
        idx = getattr(self, "_idx", None)
        if idx is None:
            idx = frozenset(self.masks)
            object.__setattr__(self, "_idx", idx)
        return idx

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
        """Is the family closed under pairwise unions?"""
        members = self.members()
        idx = set(members)
        return all(a | b in idx for a, b in combinations(members, 2))

    def singletons_included(self) -> bool:
        """Does the family contain every singleton label set?"""
        return all(self.contains(1 << y) for y in range(self.n_labels))


# -- analyses ------------------------------------------------------------------


def _analyzed_members(system: SetSystem) -> tuple[int, ...]:
    members = system.members(budget=1 << MAX_ANALYZED_MEMBERS)
    if len(members) > MAX_ANALYZED_MEMBERS:
        raise BudgetExceeded(
            f"set-system analysis supports at most {MAX_ANALYZED_MEMBERS} member sets, "
            f"got {len(members)}",
            spent=len(members),
            budget=MAX_ANALYZED_MEMBERS,
        )
    return members


def helly_number(system: SetSystem) -> int:
    """Largest size of an inclusion-minimal subfamily with empty intersection.

    A subfamily is minimal when dropping any single member makes the
    intersection nonempty. If no subfamily has empty intersection at all, the
    defining condition is vacuous at every size and the value is 1.

    Runs over all subfamilies, so the family size is capped (see
    ``MAX_ANALYZED_MEMBERS``).
    """
    members = _analyzed_members(system)
    m = len(members)
    full = (1 << system.n_labels) - 1
    # inter[s] = intersection of the members selected by subset bitmask s.
    inter = [full] * (1 << m)
    for s in range(1, 1 << m):
        low = (s & -s).bit_length() - 1
        inter[s] = inter[s & (s - 1)] & members[low]
    best = 1
    for s in range(1, 1 << m):
        if inter[s]:
            continue
        size = s.bit_count()
        if size <= best:
            continue
        if all(inter[s & ~(1 << j)] for j in iter_bits(s)):
            best = size
    return best


def nested_empty_chain(system: SetSystem):
    """A strictly nested subfamily whose intersection is empty, if one exists.

    The intersection of a finite nested chain is its smallest member, and
    member sets are nonempty by construction, so for every valid finite system
    this returns ``None``. The check is still performed rather than assumed:
    if a hand-built system smuggled in an empty set, the one-element chain
    holding it would be returned.
    """
    members = system.members()
    for i, m in enumerate(members):
        if m == 0:
            return [i]
    return None


def inseparability_report(system: SetSystem, p: int, truncated: bool = False) -> dict:
    """Check the two sufficient conditions for grid-exactness of the minimax value.

    Condition (1): every subfamily with empty intersection contains a nested
    (superset-ordered) chain with empty intersection. A finite chain's
    intersection is its smallest member, which validity keeps nonempty, so on
    a finite system this holds exactly when no subfamily has an empty
    intersection at all, i.e. when the Helly number is 1. The condition is
    genuinely about infinite families; ``truncated=True`` flags that this
    report was computed on a finite truncation of one, so a ``False`` here
    says nothing about the untruncated family.

    Condition (2): every subfamily with empty intersection admits an
    empty-intersection sub-subfamily of size at most ``p``. That is exactly
    ``helly_number(system) <= p``, and it is vacuously true when no subfamily
    has empty intersection (where the Helly number is 1 by convention).
    """
    if p < 1:
        raise SpecError(f"p must be a positive integer, got {p}")
    h = helly_number(system)
    return {
        "condition1_holds": h == 1,
        "condition2_holds": h <= p,
        "helly": h,
        "truncated": truncated,
    }

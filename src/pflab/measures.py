"""Exact probability measures over the label alphabet, and the uniform grid.

All mass arithmetic is done in ``fractions.Fraction``; nothing in the package
ever rounds a probability. The grid of resolution ``g`` consists of every
measure whose weights are integer multiples of ``1/g``; it contains all the
point masses and grows like a binomial coefficient in ``g`` and the alphabet
size, so enumeration is budget-guarded.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate
from math import comb
from operator import iadd

from .errors import GridTooLarge, SpecError, env_budget, exact_number, plain_int, plain_ints
from .setsystems import iter_bits

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class Measure:
    """An exact probability distribution over labels ``0..len(weights)-1``.

    Weights are ``Fraction``s or plain ``int``s; :meth:`of` converts others
    through ``Fraction``.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.weights:
            raise SpecError("a measure needs at least one label")
        for w in self.weights:
            # A float sums to 1 only up to rounding; a bool is no weight.
            exact_number(
                w, 0, None, SpecError, "measure weights must be nonnegative",
                "measure weight {value!r} is not a Fraction or an int",
            )
        if sum(self.weights) != 1:
            raise SpecError(f"measure weights must sum to 1, got {sum(self.weights)}")

    @classmethod
    def delta(cls, n_labels: int, label: int) -> "Measure":
        plain_int(label, 0, n_labels, SpecError, "label {value} outside range({hi})")
        return cls(tuple(ONE if y == label else ZERO for y in range(n_labels)))

    @classmethod
    def uniform_over(cls, n_labels: int, labels) -> "Measure":
        support = sorted(set(labels))
        if not support:
            raise SpecError("uniform measure needs a nonempty support")
        plain_ints(support, 0, n_labels, SpecError, "support labels outside the alphabet")
        w = Fraction(1, len(support))
        return cls(tuple(w if y in set(support) else ZERO for y in range(n_labels)))

    @classmethod
    def of(cls, pairs, n_labels: int) -> "Measure":
        """Measure from ``{label: weight}`` pairs; missing labels get zero."""
        weights = [ZERO] * n_labels
        for y, w in dict(pairs).items():
            plain_int(y, 0, n_labels, SpecError, "label {value} outside range({hi})")
            weights[y] = Fraction(w)
        return cls(tuple(weights))

    @property
    def n_labels(self) -> int:
        return len(self.weights)

    def mass(self, mask: int) -> Fraction:
        """Total weight of the labels in ``mask``."""
        return sum((self.weights[y] for y in iter_bits(mask)), ZERO)

    def miss_mass(self, mask: int) -> Fraction:
        """Total weight outside ``mask``; the per-round loss against that set."""
        return ONE - self.mass(mask)

    def support_mask(self) -> int:
        """Bitmask of the labels with positive weight.

        ``weights`` is immutable, so the mask is computed on first use and
        cached on the instance (``_support``); equality, hashing and copying
        still read ``weights`` alone.
        """
        return self._support

    @cached_property
    def _support(self) -> int:
        return sum(1 << y for y, w in enumerate(self.weights) if w)

    def is_delta(self) -> bool:
        return any(w == 1 for w in self.weights)

    def argmax_label(self) -> int:
        """Lowest label carrying maximal weight."""
        best = max(self.weights)
        return self.weights.index(best)


def as_gamma(gamma) -> Fraction:
    """``gamma`` as an event threshold in ``[0, 1]``, else :class:`SpecError`.

    As for measure weights, a float is a rounded rational and a bool is no
    threshold: only a ``Fraction`` or a plain ``int`` is taken.
    """
    gamma = exact_number(
        gamma, 0, 1, SpecError,
        "gamma must lie in [0, 1], got {value}", "gamma {value!r} is not a Fraction or an int",
    )
    return Fraction(gamma)


def grid_size(n_labels: int, g: int) -> int:
    """Number of grid measures: compositions of ``g`` into ``n_labels`` parts."""
    return comb(g + n_labels - 1, n_labels - 1)


# The packed format of the grid and of the engine's tables: value ``i`` of a
# word in the 64-bit field at bit ``64 * i``.
_WIDTH = 64
_TOP = 1 << (_WIDTH - 1)
_FIELD = (1 << _WIDTH) - 1
# A field holding 1, as the bytes of a little-endian word.
_ONE = (1).to_bytes(_WIDTH // 8, "little")


def _unpack(word: int, n: int) -> array:
    """The ``n`` lowest 64-bit fields of ``word``, lowest first."""
    words = array("Q", word.to_bytes(8 * n, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def grid_words(n_labels: int, g: int, budget: int | None = None) -> tuple[int, ...]:
    """The grid of resolution ``g`` as one packed int per label.

    Point ``i`` of the grid has label ``y``'s count in the 64-bit field at
    bit ``64 * i`` of ``words[y]``; its counts sum to ``g`` and stand for
    the measure with weights ``c[y] / g``. The points are in
    lexicographically decreasing order of their count tuples, so the point
    mass on label 0 comes first and the point mass on the top label last.
    Strategies that break ties by grid order inherit this convention.
    Raises :class:`SpecError` on fewer than two labels or a ``g`` that is
    not a plain int of at least 1, and then :class:`GridTooLarge` when the
    grid has more points than ``budget`` (default ``PFLAB_BUDGET_GRID``),
    before anything is built.

    The words are built label by label, by byte concatenation, with no
    loop over points. In grid order the points that share their counts on
    labels ``0..j-1`` (a prefix) are consecutive, and label ``j``'s counts
    over them are the first column of the grid over labels ``j..`` whose
    total is what the prefix leaves. So label ``j``'s word joins the bytes
    of one such first column per prefix. A prefix that leaves ``r`` takes
    label ``j`` counts ``r, ..., 0``, which leave ``0, ..., r`` to the next
    labels; the last label's counts are what each full prefix leaves.
    """
    if n_labels < 2:
        raise SpecError(f"need at least 2 labels, got {n_labels}")
    plain_int(g, 1, None, SpecError, "grid resolution must be a positive integer, got {value!r}")
    limit = env_budget("PFLAB_BUDGET_GRID", 1_000_000) if budget is None else budget
    n = grid_size(n_labels, g)
    if n > limit:
        raise GridTooLarge(
            f"grid({n_labels}, {g}) has {n} measures, budget {limit}", spent=n, budget=limit
        )
    left_over = [list(range(r + 1)) for r in range(g + 1)]
    # sizes[k][r]: the number of points over k + 1 labels with total r.
    sizes = [[1] * (g + 1)]
    for _ in range(n_labels - 2):
        sizes.append(list(accumulate(sizes[-1])))
    # Each count as the bytes of one field, which no host byte order changes.
    fields = [c.to_bytes(_WIDTH // 8, "little") for c in range(g + 1)]
    words = []
    # The remaining total of every prefix over the labels before the current one.
    remains = [g]
    for after in reversed(sizes):
        # firsts[r]: the current label's counts over the grid of it and the
        # labels after it with total r, as fields, where count c is followed
        # by after[r - c] points.
        firsts = [
            b"".join([fields[c] * after[r - c] for c in range(r, -1, -1)]) for r in range(g + 1)
        ]
        words.append(int.from_bytes(b"".join(map(firsts.__getitem__, remains)), "little"))
        remains = reduce(iadd, map(left_over.__getitem__, remains), [])
    words.append(int.from_bytes(b"".join(map(fields.__getitem__, remains)), "little"))
    return tuple(words)


def measure_grid(n_labels: int, g: int) -> list[Measure]:
    """All measures with weights in ``{0, 1/g, ..., g/g}``, in :func:`grid_words` order.

    Point ``i`` reads field ``i`` of every label's word, under
    :func:`grid_words`' checks and its ``PFLAB_BUDGET_GRID`` bound. The
    measures share the ``g + 1`` weights ``Fraction(c, g)``.
    """
    words = grid_words(n_labels, g)
    n = grid_size(n_labels, g)
    weights = [Fraction(c, g) for c in range(g + 1)]
    points = zip(*(_unpack(word, n) for word in words))
    return [Measure(tuple(map(weights.__getitem__, point))) for point in points]

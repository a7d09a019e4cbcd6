"""Fuzzy membership functions over the finite universe {1..N}.

The connective family is the probabilistic one: complement ``1 - f``,
intersection ``f * g``, and the union ``f + g - f*g`` obtained from them by
De Morgan.  Crisp subsets are bitstrings with element 1 leftmost, mirroring
the register convention of :mod:`qfuzzy.statevec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from ._lazy import lazy_import

np = lazy_import("numpy")

#: Universes above this size are refused by exhaustive enumeration and by
#: :func:`com_pushforward`, the classical DEFUZ law.  The bound keeps that
#: law's Python-float dynamic program at a few milliseconds (about 2 ms at
#: N = 20); past it the program grows as N^4.
MAX_ENUM_UNIVERSE = 20


@dataclass(frozen=True, eq=False)
class FuzzySet:
    """Membership values in [0, 1], one per universe element (element i at
    position i-1), held as a tuple of floats.  The set is immutable: it
    copies the sequence or 1-d array it is given, so later writes to that
    input do not reach it."""

    memberships: tuple[float, ...]

    def __post_init__(self) -> None:
        values = self.memberships
        m = ()
        text = isinstance(values, (str, bytes, bytearray))  # not memberships
        if getattr(values, "ndim", 1) == 1 and not text:  # an array must be 1-d
            try:
                m = tuple(map(float, values))
            except TypeError:  # a scalar, or a nested sequence
                pass
        if not m:
            raise ValueError("memberships must be a nonempty 1-d array")
        if not all(map(math.isfinite, m)):
            raise ValueError("memberships must be finite")
        if min(m) < 0.0 or max(m) > 1.0:
            bad = next(x for x in m if not 0.0 <= x <= 1.0)
            raise ValueError(f"memberships must lie in [0, 1], got {bad}")
        object.__setattr__(self, "memberships", m)

    @property
    def universe_size(self) -> int:
        return len(self.memberships)


@dataclass(frozen=True)
class CrispSubset:
    """Ordinary subset of {1..N} as a bitstring, element 1 leftmost."""

    bits: str

    def __post_init__(self) -> None:
        if not self.bits:
            raise ValueError("bits must be nonempty")
        if set(self.bits) - {"0", "1"}:
            raise ValueError(f"bits may contain only '0' and '1', got {self.bits!r}")

    @property
    def universe_size(self) -> int:
        return len(self.bits)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits, start=1) if b == "1")


def common_universe(a, b) -> int:
    """The universe size shared by ``a`` and ``b`` (anything with a
    ``universe_size``); raises ValueError when the sizes differ."""
    if a.universe_size != b.universe_size:
        raise ValueError(
            f"universe size mismatch: {a.universe_size} vs {b.universe_size}"
        )
    return a.universe_size


def complement(f: FuzzySet) -> FuzzySet:
    """Pointwise 1 - f(i)."""
    return FuzzySet([1.0 - a for a in f.memberships])


def intersect(f: FuzzySet, g: FuzzySet) -> FuzzySet:
    """Pointwise product f(i) * g(i)."""
    common_universe(f, g)
    return FuzzySet([a * b for a, b in zip(f.memberships, g.memberships)])


def union(f: FuzzySet, g: FuzzySet) -> FuzzySet:
    """Pointwise f(i) + g(i) - f(i)g(i), the De Morgan dual of intersect."""
    common_universe(f, g)
    return FuzzySet([a + b - a * b for a, b in zip(f.memberships, g.memberships)])


def classical_fuzzify(crisp_index: int, k: int, universe_size: int) -> FuzzySet:
    """Square-window fuzzifier: membership 1/2 within distance ``k`` of the
    crisp index, 0 elsewhere.  The window clips at the universe boundary."""
    if not 1 <= crisp_index <= universe_size:
        raise ValueError(
            f"crisp index {crisp_index} out of range 1..{universe_size}"
        )
    if k < 0:
        raise ValueError(f"window radius must be >= 0, got {k}")
    lo = max(1, crisp_index - k)
    hi = min(universe_size, crisp_index + k)
    inside = range(lo, hi + 1)
    return FuzzySet([0.5 if i in inside else 0.0 for i in range(1, universe_size + 1)])


def _bits_of(bits: CrispSubset | str) -> str:
    return bits.bits if isinstance(bits, CrispSubset) else CrispSubset(bits).bits


def com_index(bits: CrispSubset | str) -> int:
    """Center of mass of the set bits: floor(sum of set indices / their count).

    All-zero input has no mass and maps to the sentinel index 0.
    """
    b = _bits_of(bits)
    mass = b.count("1")
    if mass == 0:
        return 0
    return sum(i for i, c in enumerate(b, start=1) if c == "1") // mass


def crisp_subset_probability(f: FuzzySet, s: CrispSubset) -> float:
    """Probability that measuring the encoded register collapses onto ``s``:
    the product of f(i) over members and 1 - f(i) over non-members."""
    common_universe(f, s)
    inside = np.array([c == "1" for c in s.bits])
    m = np.asarray(f.memberships)
    return float(np.prod(np.where(inside, m, 1.0 - m)))


def oracle_distribution(f: FuzzySet) -> dict[str, float]:
    """Exact collapse distribution over all 2^N crisp subsets, by enumeration."""
    n = f.universe_size
    if n > MAX_ENUM_UNIVERSE:
        raise ValueError(
            f"universe of size {n} is too large to enumerate "
            f"(limit {MAX_ENUM_UNIVERSE})"
        )
    per_qubit = [np.array([1.0 - p, p]) for p in f.memberships]
    probs = reduce(np.kron, per_qubit)
    return {format(i, f"0{n}b"): float(p) for i, p in enumerate(probs)}


def com_law(absent, present) -> list[float]:
    """Distribution of the center-of-mass index 0..N of a random subset of
    {1..N} whose elements are independently absent or present with the
    given weights (``absent[i-1] + present[i-1]`` is 1 for each element),
    as a list of N + 1 floats.

    A dynamic program over (member count, index sum) instead of the 2^N
    subsets, in Python floats.  ``P[c][s]`` is the probability that the
    subset of elements 1..i has c members whose indices sum to s; element i
    updates it as ``P <- P absent_i + shift(P, by (1, i)) present_i``,
    touching only the block elements 1..i-1 can reach (c < i,
    s <= i(i-1)/2).  Each count row is then binned cell by cell in table
    order into the index ``s // c`` (the sentinel 0 for c = 0); adding a
    zero cell changes nothing, so those are skipped.  ``P`` holds
    (N + 1) x (N(N+1)/2 + 1) floats, 32 bytes each with their list slots,
    O(N^3) memory, and the steps take O(N^4) time in all: about 3.6 ms at
    N = 21, 31 ms at N = 40 and 1.1 s at N = 100.

    Both DEFUZ laws run it: :func:`com_pushforward` on (1 - f, f), and the
    quantum DEFUZ of a SUPERPOSE-free body on its Born weights.
    """
    n = len(absent)
    p = [[0.0] * (n * (n + 1) // 2 + 1) for _ in range(n + 1)]
    p[0][0] = 1.0
    for i, (w0, w1) in enumerate(zip(absent, present), start=1):
        reach = (i - 1) * i // 2 + 1
        for c in range(i, -1, -1):  # downwards: row c - 1 is still unscaled
            row = p[c]
            if c < i:
                row[:reach] = [x * w0 for x in row[:reach]]
            if c:
                row[i : i + reach] = [
                    x + y * w1 for x, y in zip(row[i : i + reach], p[c - 1][:reach])
                ]
    mass = [0.0] * (n + 1)
    for count, row in enumerate(p):
        for s, x in enumerate(row):
            if x > 0.0:  # a positive cell has s <= N count
                mass[s // count if count else 0] += x
    return mass


def com_pushforward(f: FuzzySet) -> dict[int, float]:
    """Exact distribution of the center-of-mass index under the collapse law,
    element i present with probability f(i): :func:`com_law` of (1 - f, f).
    Only indices of positive probability appear, in ascending order.
    Universes above :data:`MAX_ENUM_UNIVERSE` are refused.
    """
    n = f.universe_size
    if n > MAX_ENUM_UNIVERSE:
        raise ValueError(
            f"universe of size {n} exceeds the classical DEFUZ limit of "
            f"{MAX_ENUM_UNIVERSE}"
        )
    m = f.memberships
    law = com_law([1.0 - x for x in m], m)
    return {k: x for k, x in enumerate(law) if x > 0.0}

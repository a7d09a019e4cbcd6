"""A SUPERPOSE-free quantum expression as sparse real supports, in Python
floats.

Every leaf of such an expression is a product of real, non-negative qubits,
sqrt(1-m)|0> + sqrt(m)|1>, and every gate on it (X, or a Toffoli into fresh
|0>) permutes basis states within one universe element's qubits.  So the
register is a product over the N elements.  Element j's factor, its column
of 2^w amplitudes, holds one real, non-negative entry per combination of
its leaves' values and zeros elsewhere.  :class:`Supports` keeps each
column as a dict from basis pattern to that entry, leaving out the zeros.

A pattern is w bits with the column's qubit 1 most significant, as in
:mod:`qfuzzy.statevec`.  The value qubit is always the last one: a leaf's
layout ends with it, and AND and OR append it.
"""

from __future__ import annotations

import heapq
import math

from . import statevec
from .analysis import EntanglementReport
from .fuzzy import FuzzySet
from .qfs import VALUE_SEGMENT, RegisterLayout, _and_layout


class Supports:
    """A register that is a product over the universe's N elements, kept as
    one sparse column per element instead of as 2^(N*w) amplitudes.

    ``columns[j - 1]`` maps each basis pattern of element j's w qubits to
    its nonzero amplitude, and ``layout`` names those qubits, one per
    segment, as a register over a universe of one.  The register stands for
    the N*w-qubit one laid out by :meth:`dense_layout`, in which qubit s of
    element j is qubit (s - 1) * N + j.
    """

    __slots__ = ("columns", "layout")

    def __init__(self, columns: list[dict[int, float]], layout: RegisterLayout):
        self.columns = columns
        self.layout = layout

    @property
    def universe_size(self) -> int:
        return len(self.columns)

    def dense_layout(self) -> RegisterLayout:
        """The layout of the register the columns stand for: each segment N
        times as long."""
        n = self.universe_size
        return RegisterLayout(
            tuple((name, (start - 1) * n + 1, length * n)
                  for name, start, length in self.layout.segments)
        )


def _product(memberships: list[float]) -> dict[int, float]:
    """The product of the qubits sqrt(1-m)|0> + sqrt(m)|1>, the first most
    significant, without its zero entries; each entry is multiplied in the
    order of :func:`~qfuzzy.statevec._kron_columns`."""
    column = {0: 1.0}
    for m in memberships:
        qubit = (math.sqrt(1.0 - m), math.sqrt(m))
        column = {p << 1 | bit: x * y for p, x in column.items()
                  for bit, y in enumerate(qubit) if y}
    return column


def encode_supports(f: FuzzySet) -> Supports:
    """:func:`~qfuzzy.qfs.encode` as supports: element i's column is its one
    qubit sqrt(1-f(i))|0> + sqrt(f(i))|1>."""
    columns = [_product([m]) for m in f.memberships]
    return Supports(columns, RegisterLayout.single(VALUE_SEGMENT, 1))


def fuz_supports(index: int, window: FuzzySet) -> Supports:
    """:func:`~qfuzzy.qfs.fuz_isometry` of the encoded one-hot set at
    ``index`` as supports, for the square ``window`` of
    :func:`~qfuzzy.fuzzy.classical_fuzzify` (1/2 inside, 0 outside).  The
    seed is a basis state, so its image is a product: element i's column is
    its seed qubit, |1> at ``index`` and |0> elsewhere, then its value
    qubit, the window encoded."""
    columns = [_product([float(i == index), m])
               for i, m in enumerate(window.memberships, start=1)]
    layout = RegisterLayout(
        RegisterLayout.single(VALUE_SEGMENT, 1).relabeled("in.")
        + ((VALUE_SEGMENT, 2, 1),)
    )
    return Supports(columns, layout)


def support_not(c: Supports) -> Supports:
    """:func:`~qfuzzy.qfs.qnot`: X on the value qubit flips the last bit."""
    return Supports([{p ^ 1: x for p, x in col.items()} for col in c.columns], c.layout)


def _connective(a: Supports, b: Supports, disjoin: bool) -> Supports:
    """The Toffoli of :func:`~qfuzzy.qfs.qand` on each pair of columns: each
    product of an entry of a and one of b lands on the patterns pa, pb and
    their value bits' AND.  OR, as in :func:`~qfuzzy.qfs.qor`, complements
    the inputs first and the output after."""
    flip = int(disjoin)
    shift = b.layout.total_qubits + 1
    columns = []
    for col_a, col_b in zip(a.columns, b.columns):
        col_b = [(pb ^ flip, y) for pb, y in col_b.items()]
        column = {}
        for pa, x in col_a.items():
            pa ^= flip
            high = pa << shift
            column.update({high | pb << 1 | ((pa & pb & 1) ^ flip): x * y
                           for pb, y in col_b})
        columns.append(column)
    return Supports(columns, _and_layout(a.layout, b.layout))


def support_and(a: Supports, b: Supports) -> Supports:
    """:func:`~qfuzzy.qfs.qand` column by column."""
    return _connective(a, b, False)


def support_or(a: Supports, b: Supports) -> Supports:
    """:func:`~qfuzzy.qfs.qor` column by column."""
    return _connective(a, b, True)


def support_marginals(c: Supports) -> list[float]:
    """:func:`~qfuzzy.qfs.value_marginals` of the register ``c`` stands for:
    each element's probability of measuring 1 on its value qubit."""
    return [math.fsum(x * x for p, x in col.items() if p & 1) for col in c.columns]


def _qubit_top(column: dict[int, float], bit: int) -> tuple[int, float, tuple]:
    """Schmidt rank of one qubit of ``column`` against the rest, its smaller
    singular value squared, and its phase-fixed top left vector (c, s), by
    :func:`~qfuzzy.statevec._qubit_split`'s method in closed form.  The
    halves a and b are where the qubit (the pattern bit ``bit``) is 0 and 1.
    With r11 = |a|, r12 = <a, b>/r11 and r22 = |b - r12 a/r11|, the singular
    values are those of R = [[r11, r12], [0, r22]]: s1 from two hypotenuses
    and s2 = r11 r22 / s1, without cancellation.  The top vector is the
    leading eigenvector of the Gram matrix [[|a|^2, <a, b>], [<a, b>,
    |b|^2]] from its rotation angle.  All entries are real and
    non-negative, so <a, b> >= 0, and so are c and s: the phase is fixed."""
    fsum, items = math.fsum, column.items
    aa = fsum(x * x for p, x in items() if not p & bit)
    bb = fsum(x * x for p, x in items() if p & bit)
    ab = fsum(x * column.get(p | bit, 0.0) for p, x in items() if not p & bit)
    coef = ab / aa if aa > 0.0 else 0.0
    # b - coef a: at each entry of b, and at each entry of a that b lacks
    r22 = math.sqrt(fsum(
        (x - coef * column.get(p ^ bit, 0.0)) ** 2 if p & bit else (coef * x) ** 2
        for p, x in items() if p & bit or p | bit not in column
    ))
    r11 = math.sqrt(aa)
    r12 = coef * r11
    s1 = (math.hypot(r11 + r22, r12) + math.hypot(r11 - r22, r12)) / 2.0
    s2 = r11 * r22 / s1
    rank = (s1 > statevec.RANK_SV_TOL) + (s2 > statevec.RANK_SV_TOL)
    delta = aa - bb
    rho = math.hypot(delta, 2.0 * ab)
    if rho == 0.0:  # |a| = |b| and a _|_ b: rank 2, no top to fix
        return rank, s2 * s2, (1.0, 0.0)
    if delta >= 0.0:
        c = math.sqrt((rho + delta) / (2.0 * rho))
        return rank, s2 * s2, (c, ab / (rho * c))
    s = math.sqrt((rho - delta) / (2.0 * rho))
    return rank, s2 * s2, (ab / (rho * s), s)


def _entry(tops: list[tuple], pattern: int) -> float:
    """The amplitude of the product of ``tops`` (qubit 1 first) at
    ``pattern``."""
    w = len(tops)
    return math.prod([top[pattern >> (w - 1 - s) & 1] for s, top in enumerate(tops)])


def _largest_off_support(column: dict[int, float], tops: list[tuple]) -> float:
    """The largest amplitude the product of ``tops`` puts on a pattern
    outside ``column``, 0.0 if it puts none there.  The product's patterns
    are visited in order of falling amplitude, from the pattern of each
    qubit's larger component: a set of qubits flipped to their smaller
    components spawns itself with the next qubit added, and with its last
    qubit swapped for the next (qubits in order of falling ratio), so every
    set is reached once and none before its parent.  At most one pattern
    more than the column holds is visited."""
    w = len(tops)
    start, flips = 0, []
    for s, (c, t) in enumerate(tops):
        bit = 1 << (w - 1 - s)
        if t > c:
            start |= bit
        if min(c, t) > 0.0:
            flips.append((min(c, t) / max(c, t), bit))
    flips = [bit for _, bit in sorted(flips, reverse=True)]
    heap = [(-_entry(tops, start), start, -1)]
    while heap:
        value, pattern, last = heapq.heappop(heap)
        if pattern not in column:
            return -value
        if last + 1 < len(flips):
            grown = [pattern ^ flips[last + 1]]
            if last >= 0:
                grown.append(grown[0] ^ flips[last])
            for p in grown:
                heapq.heappush(heap, (-_entry(tops, p), p, last + 1))
    return 0.0


def _check_product(column: dict[int, float], tops: list, discarded: float) -> None:
    """Raise unless the product of ``tops``, scaled by its overlap with
    ``column``, lies within NORM_TOL + 2 sqrt(``discarded``) of it in every
    entry, the patterns outside the column included: the check of
    :func:`~qfuzzy.statevec._qubit_split`."""
    rebuilt = {p: _entry(tops, p) for p in column}
    overlap = math.fsum(rebuilt[p] * x for p, x in column.items())
    deviation = max(abs(overlap * rebuilt[p] - x) for p, x in column.items())
    deviation = max(deviation, overlap * _largest_off_support(column, tops))
    bound = statevec.NORM_TOL + 2.0 * math.sqrt(discarded)
    if deviation > bound:
        raise RuntimeError(
            f"product factors miss the state by {deviation:.3e} > {bound:.3e}"
        )


def support_report(c: Supports) -> EntanglementReport:
    """:func:`~qfuzzy.analysis.entanglement_report` of the register ``c``
    stands for, column by column.  A qubit's partner in every other column
    is a separate factor of unit norm, so its Schmidt rank and factor
    against the rest of the register are those against the rest of its
    column.  Each column's qubits are split by :func:`_qubit_top`, and the
    results are interleaved so that qubit s of element j is reported at
    (s - 1) * N + j.  The factors are real and non-negative, so every
    relative phase is 0."""
    w = c.layout.total_qubits
    ranks, tops = [], []
    for column in c.columns:
        splits = [_qubit_top(column, 1 << (w - s)) for s in range(1, w + 1)]
        ranks.append([rank for rank, _, _ in splits])
        tops.append([top for _, _, top in splits])
        if all(rank == 1 for rank in ranks[-1]):
            _check_product(column, tops[-1], sum(d for _, d, _ in splits))
    ranks = tuple(rank for qubit in zip(*ranks) for rank in qubit)
    if any(rank != 1 for rank in ranks):
        return EntanglementReport(ranks, False, None, None, None)
    tops = tuple(top for qubit in zip(*tops) for top in qubit)
    memberships = [min(1.0, max(0.0, s * s)) for _, s in tops]
    return EntanglementReport(
        ranks, True, FuzzySet(memberships), (0.0,) * len(tops), tops
    )

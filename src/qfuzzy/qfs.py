"""Quantum encodings of fuzzy sets and the gate-level fuzzy calculus.

A fuzzy set over {1..N} is loaded into an N-qubit register one qubit per
element; connectives act as gates.  Binary connectives grow the register
(inputs are kept, the result lands on fresh output qubits), so every
register carries a :class:`RegisterLayout` naming its segments.  The segment
named ``"value"`` always holds the current result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from ._lazy import lazy_import
from .errors import _brief, _json_text, check_int
from .fuzzy import FuzzySet, CrispSubset, common_universe
from .statevec import (
    AMP_SLICE,
    DEFAULT_QUBIT_CAP,
    NORM_TOL,
    StateVector,
    _kron_columns,
    check_register_cap,
    check_shots,
    draw_counts,
)

np = lazy_import("numpy")

VALUE_SEGMENT = "value"


@dataclass(frozen=True)
class RegisterLayout:
    """Named contiguous qubit segments tiling 1..total_qubits.

    Each segment is a ``(name, first_qubit, length)`` triple with 1-based
    qubit positions; rows given as lists are stored as tuples.
    """

    segments: tuple[tuple[str, int, int], ...]

    def __post_init__(self) -> None:
        for row in self.segments:
            if not (isinstance(row, (list, tuple)) and len(row) == 3):
                raise ValueError(
                    f"layout rows must be [name, start, length], got {_brief(row)}"
                )
            name, start, length = row
            if not isinstance(name, str):
                shown = _brief(name, _json_text)
                raise ValueError(f"layout segment names must be strings, got {shown}")
            check_int(start, "layout start", 1)
            check_int(length, "layout length", 1)
        object.__setattr__(self, "segments", tuple(map(tuple, self.segments)))
        if not self.segments:
            raise ValueError("layout needs at least one segment")
        names = [name for name, _, _ in self.segments]
        if len(set(names)) != len(names):
            shown = _brief(repr(names), str)
            raise ValueError(f"segment names must be unique, got {shown}")
        expected_start = 1
        for name, start, length in sorted(self.segments, key=lambda s: s[1]):
            if start != expected_start:
                raise ValueError(
                    f"segments must tile the register contiguously; "
                    f"{_brief(name)} starts at {_brief(start)}, "
                    f"expected {_brief(expected_start)}"
                )
            expected_start = start + length

    @staticmethod
    def single(name: str, n_qubits: int) -> "RegisterLayout":
        return RegisterLayout(((name, 1, n_qubits),))

    @property
    def total_qubits(self) -> int:
        return sum(length for _, _, length in self.segments)

    def segment(self, name: str) -> tuple[int, int]:
        """Return (first_qubit, length) of the named segment."""
        for seg_name, start, length in self.segments:
            if seg_name == name:
                return start, length
        raise KeyError(f"no segment named {name!r}")

    def qubits(self, name: str) -> range:
        start, length = self.segment(name)
        return range(start, start + length)

    def relabeled(self, prefix: str, offset: int = 0) -> tuple[tuple[str, int, int], ...]:
        """Segment rows renamed with ``prefix`` and shifted by ``offset``,
        for splicing into a larger layout."""
        return tuple(
            (prefix + name, start + offset, length)
            for name, start, length in self.segments
        )


@dataclass(frozen=True, eq=False)
class QuantumFuzzySet:
    """A register state together with the layout locating its value segment.

    ``pre_norm`` is only set by :func:`superpose`: the norm of the raw linear
    combination before renormalization (an interference diagnostic).
    """

    state: StateVector
    layout: RegisterLayout
    pre_norm: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.layout.total_qubits != self.state.n_qubits:
            raise ValueError(
                f"layout covers {self.layout.total_qubits} qubits but the "
                f"state has {self.state.n_qubits}"
            )
        self.layout.segment(VALUE_SEGMENT)

    @property
    def universe_size(self) -> int:
        return self.layout.segment(VALUE_SEGMENT)[1]

    @property
    def value_qubits(self) -> range:
        return self.layout.qubits(VALUE_SEGMENT)


class ColumnSet:
    """A register that is a product over the universe's N elements, kept as
    one column per element instead of as 2^(N*w) amplitudes.

    ``columns`` is a list of N one-dimensional registers of 2^w amplitudes
    each: ``columns[j - 1]`` holds element j's w qubits, and ``layout``
    names those qubits, one per segment, as a register over a universe of
    one.  The register stands for the N*w-qubit one laid out by
    :meth:`dense_layout`, in which qubit s of element j is qubit
    (s - 1) * N + j.  Every gate of a SUPERPOSE-free expression acts within
    one element's qubits, so it runs on each column alone, once per column.
    """

    __slots__ = ("columns", "layout")

    def __init__(self, columns: list[np.ndarray], layout: RegisterLayout):
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


def _product_amplitudes(memberships: np.ndarray) -> np.ndarray:
    """Amplitudes of the product state with qubit i in
    sqrt(1-m_i)|0> + sqrt(m_i)|1>: the kron of the per-qubit columns
    (:func:`_kron_columns`)."""
    m = np.asarray(memberships, dtype=np.float64)
    return _kron_columns(np.stack([np.sqrt(1.0 - m), np.sqrt(m)], axis=-1))


def _value_axis(layout: RegisterLayout, values: np.ndarray) -> np.ndarray:
    """``values``, one per basis index of a register with ``layout``, as a
    (before, value, after) array: the middle axis runs over the 2^N bit
    patterns of the value segment, the others over the qubits before and
    after it."""
    start, n = layout.segment(VALUE_SEGMENT)
    return values.reshape(1 << (start - 1), 1 << n, -1)


def _not_view(layout: RegisterLayout, amps: np.ndarray) -> np.ndarray:
    """X on every value qubit of the register ``amps``, as a view: X on all
    N value qubits maps value pattern p to 2^N - 1 - p, so it reverses the
    value axis of :func:`_value_axis`."""
    return _value_axis(layout, amps)[:, ::-1]


def _value_distribution(q: QuantumFuzzySet) -> np.ndarray:
    """Born probabilities of the 2^N value-segment bit patterns, summed over
    the qubits outside the segment."""
    return _value_axis(q.layout, np.abs(q.state.amplitudes) ** 2).sum(axis=(0, 2))


def encode(f: FuzzySet, cap: int = DEFAULT_QUBIT_CAP) -> QuantumFuzzySet:
    """Load a fuzzy set into a fresh register, one qubit per element.

    In the paper each qubit i is rotated from |0> to
    sqrt(1-f(i))|0> + sqrt(f(i))|1> by the reference circuit's
    :func:`~qfuzzy.reference.rotation_gate`.  The rotations act on separate
    qubits, so the register is the product state, built directly as the
    kron of those columns; its basis amplitudes are given by
    :func:`expansion_coeff`.
    """
    n = f.universe_size
    check_register_cap(n, cap)
    state = StateVector(n, _product_amplitudes(f.memberships))
    return QuantumFuzzySet(state, RegisterLayout.single(VALUE_SEGMENT, n))


def expansion_coeff(f: FuzzySet, s: CrispSubset) -> float:
    """Standard-basis amplitude of the encoded state at crisp subset ``s``:
    the product of sqrt(f(i)) over members and sqrt(1-f(i)) over the rest."""
    common_universe(f, s)
    inside = np.array([c == "1" for c in s.bits])
    m = np.asarray(f.memberships)
    return float(np.prod(np.where(inside, np.sqrt(m), np.sqrt(1.0 - m))))


def qnot(q: QuantumFuzzySet) -> QuantumFuzzySet:
    """The gate-level fuzzy complement: Pauli-X on every value qubit.

    X on all N value qubits maps value bit pattern p to 2^N - 1 - p, so on
    the register read as a (before, value, after) array it reverses the
    value axis (:func:`_not_view`).  The reversed view is flattened into a
    fresh array: a negative-stride view would alias the input.
    """
    amps = _not_view(q.layout, q.state.amplitudes).flatten()
    return QuantumFuzzySet(StateVector(q.state.n_qubits, amps), q.layout)


def _and_layout(la: RegisterLayout, lb: RegisterLayout) -> RegisterLayout:
    """The layout of AND or OR of registers laid out by ``la`` and ``lb``:
    the inputs' segments renamed ``a.`` and ``b.``, then the output as the
    value segment."""
    a_total, n = la.total_qubits, la.segment(VALUE_SEGMENT)[1]
    value = (VALUE_SEGMENT, a_total + lb.total_qubits + 1, n)
    return RegisterLayout(
        la.relabeled("a.") + lb.relabeled("b.", offset=a_total) + (value,)
    )


def _and_scatter(
    la: RegisterLayout,
    a: np.ndarray,
    lb: RegisterLayout,
    b: np.ndarray,
    disjoin: bool,
) -> np.ndarray:
    """The amplitudes of AND, or with ``disjoin`` OR, of the registers ``a``
    and ``b`` laid out by ``la`` and ``lb``, laid out by :func:`_and_layout`.
    The kron of the inputs, read as (before, value, after) arrays, is
    scattered in one assignment along the output axis onto the pattern
    pa & pb for value patterns pa, pb.  OR is NOT(NOT a AND NOT b): the
    inputs are read through :func:`_not_view` and the pattern is flipped in
    every bit."""
    n = la.segment(VALUE_SEGMENT)[1]
    view = _not_view if disjoin else _value_axis
    va, vb = view(la, a), view(lb, b)
    kron = va[:, :, :, None, None, None] * vb
    pa, pb = np.arange(1 << n)[:, None], np.arange(1 << n)
    out = (pa & pb) ^ ((1 << n) - 1 if disjoin else 0)
    out = out.reshape(1, 1 << n, 1, 1, 1 << n, 1, 1)
    amps = np.zeros(kron.shape + (1 << n,), dtype=np.complex128)
    np.put_along_axis(amps, out, kron[..., None], axis=-1)
    return amps.reshape(-1)


def _connective(
    a: QuantumFuzzySet, b: QuantumFuzzySet, cap: int, disjoin: bool
) -> QuantumFuzzySet:
    """:func:`_and_scatter` on two registers, the cap checked first."""
    n = common_universe(a, b)
    check_register_cap(a.state.n_qubits + b.state.n_qubits + n, cap)
    amps = _and_scatter(
        a.layout, a.state.amplitudes, b.layout, b.state.amplitudes, disjoin
    )
    layout = _and_layout(a.layout, b.layout)
    return QuantumFuzzySet(StateVector(layout.total_qubits, amps), layout)


def qand(
    a: QuantumFuzzySet,
    b: QuantumFuzzySet,
    cap: int = DEFAULT_QUBIT_CAP,
) -> QuantumFuzzySet:
    """Elementwise fuzzy AND via one Toffoli per universe element.

    In the paper the register a (x) b (x) |0..0> gets, for each element i, a
    Toffoli controlled by the value qubits of ``a`` and ``b`` targeting a
    fresh output qubit; as the output starts at 0, together they write
    out = pa & pb for value patterns pa, pb.  So the kron of the inputs is
    scattered onto that pattern (:func:`_and_scatter`).  The inputs are
    kept; the output segment becomes the value segment.  For encoded inputs
    the output marginal of element i is f(i) * g(i).
    """
    return _connective(a, b, cap, False)


def qor(
    a: QuantumFuzzySet,
    b: QuantumFuzzySet,
    cap: int = DEFAULT_QUBIT_CAP,
) -> QuantumFuzzySet:
    """Elementwise fuzzy OR as NOT(NOT a AND NOT b).

    In the paper: X on the value qubits of both inputs, the AND
    construction, then X on the output qubits.  The input X's are read as
    reversed views, and the AND and the output X's are one scatter onto the
    flipped pattern (:func:`_and_scatter` with ``disjoin``), so the register
    is written once, with the inputs complemented and the output pa | pb
    for the original patterns.  The output marginal is f(i) + g(i) - f(i)g(i)
    for encoded inputs.
    """
    return _connective(a, b, cap, True)


def _windows(patterns: Iterable[int], k: int, n: int) -> Iterator[tuple]:
    """Yield ``(p, window, value)`` for each n-bit value pattern p.  Its FUZ
    image is the product state with qubit i in (|0>+|1>)/sqrt(2) where a set
    bit of p lies within distance k of i, and |0> elsewhere (a radius of
    n - 1 reaches every qubit).  Read as n axes of size 2, that image holds
    one value, 2^(-j/2) for a window of j qubits, on the sub-block
    ``window`` (a full slice on each window qubit, 0 elsewhere) and 0 off
    it.  The value is multiplied in the kron chain's order, so its bits are
    the chain's."""
    shifts = range(min(k, n - 1) + 1)
    full = slice(None)
    for p in map(int, patterns):
        window = 0
        for s in shifts:
            window |= (p << s) | (p >> s)
        window &= (1 << n) - 1
        index = tuple(full if window >> i & 1 else 0 for i in reversed(range(n)))
        yield p, index, math.prod([math.sqrt(0.5)] * window.bit_count())


def fuz_isometry(
    q: QuantumFuzzySet,
    k: int,
    cap: int = DEFAULT_QUBIT_CAP,
) -> QuantumFuzzySet:
    """Fuzzification made norm-preserving by remembering the input.

    Appends a fresh N-qubit segment and sends each basis component |a>|0..0>
    to |a> (x) FUZ(|a value bits>).  Because the input copy is retained,
    images of distinct basis states stay orthogonal, so the map is an
    isometry on the zero-padded subspace (its extension off that subspace is
    deliberately left unspecified).  The appended segment becomes the value
    segment.  On the input read as a (before, value, after) array, each value
    pattern with amplitude writes its whole slab times its window's one
    value into the window's sub-block of the appended axes; the rest of the
    output stays 0.
    """
    if k < 0:
        raise ValueError(f"window radius must be >= 0, got {k}")
    n = q.universe_size
    total = q.state.n_qubits + n
    check_register_cap(total, cap)
    va = _value_axis(q.layout, q.state.amplitudes)
    out = np.zeros(va.shape + (2,) * n, dtype=np.complex128)
    # a view with the (before, after) axes last, where a slab broadcasts
    slabs_last = np.moveaxis(out, (0, 2), (-2, -1))
    for p, window, value in _windows(np.flatnonzero(va.any(axis=(0, 2))), k, n):
        slabs_last[(p,) + window] = va[:, p] * value
    layout = RegisterLayout(
        q.layout.relabeled("in.") + ((VALUE_SEGMENT, q.state.n_qubits + 1, n),)
    )
    return QuantumFuzzySet(StateVector(total, out.reshape(-1)), layout)


def _com_table(n: int) -> np.ndarray:
    """:func:`~qfuzzy.reference.com_index` of every n-bit pattern, indexed
    by the pattern: the sum of its set indices floor-divided by its
    popcount, and the sentinel 0 for the empty pattern (element 1 is the
    most significant bit), as a fresh array on each call."""
    patterns = np.arange(1 << n, dtype=np.int64)
    count = np.zeros_like(patterns)
    index_sum = np.zeros_like(patterns)
    for i in range(1, n + 1):
        bit = (patterns >> (n - i)) & 1
        count += bit
        index_sum += i * bit
    return np.where(count > 0, index_sum // np.maximum(count, 1), 0)


def defuzzify(
    q: QuantumFuzzySet,
    rng: np.random.Generator,
    trials: int,
    cap: int = DEFAULT_QUBIT_CAP,
) -> dict[int, int]:
    """Sampled center-of-mass readout: counts over crisp indices 0..N.

    In the paper each trial pads the register with N ancilla qubits in
    |0..0>, routes the value segment through the center-of-mass XOR
    permutation (the reference :func:`~qfuzzy.reference.u_com` when the
    register is just the value segment), measures the ancillas, and decodes
    the one-hot outcome (all zeros decodes to the sentinel 0).  The
    ancillas then read c with the total probability of the value bit
    patterns whose center of mass is c, so that marginal is summed from the
    unpadded register read as a (before, value, after) array: the
    distribution along the value axis, binned by :func:`_com_table`.  The cap still counts the N ancillas.  The trials
    are independent, so :func:`draw_counts` draws them in one pass from
    that marginal.  (``exprparser.evaluate`` draws a SUPERPOSE-free
    expression's counts from :func:`~qfuzzy.fuzzy.com_law` of per-element
    weights instead, in Python floats and without a register.)
    """
    check_shots(trials, "trials")
    n = q.universe_size
    check_register_cap(q.state.n_qubits + n, cap)
    index_probs = np.bincount(
        _com_table(n), weights=_value_distribution(q), minlength=n + 1
    )
    return draw_counts(index_probs, rng, trials)


def _add_scaled(vec: np.ndarray, coef: complex, term: np.ndarray) -> None:
    """``vec += coef * term`` a slice of :data:`AMP_SLICE` amplitudes at a
    time, with the same element operations, so the scaled term is never a
    whole register; ``term`` is freed as soon as the caller drops it."""
    for lo in range(0, len(vec), AMP_SLICE):
        vec[lo : lo + AMP_SLICE] += coef * term[lo : lo + AMP_SLICE]


def superpose(
    terms: Iterable[tuple[complex, FuzzySet]],
    cap: int = DEFAULT_QUBIT_CAP,
) -> QuantumFuzzySet:
    """Linear combination of encoded fuzzy sets, renormalized.

    Encoded terms are generally non-orthogonal, so the raw combination's
    norm carries interference information; it is kept on the result as
    ``pre_norm``.  A non-finite coefficient, an overflowing norm and a
    combination that cancels completely raise.  Each encoded term has unit
    norm, so sum |c_k| is the norm the combination would have without
    interference, and it cancels completely when ``pre_norm`` is at most
    NORM_TOL times that: one term never does, however small, unless it is
    0.  So that tiny coefficients do not underflow when squared, a largest
    |c_k| below 1 is first scaled into [0.5, 1) by a power of two, and
    ``pre_norm`` is scaled back; a power of two scales exactly, so the
    result is the unscaled one wherever that one does not underflow.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("superpose needs at least one term")
    n = terms[0][1].universe_size
    for c, f in terms:
        common_universe(f, terms[0][1])
        if not np.isfinite(c):
            raise ValueError(f"superposition coefficient must be finite, got {c}")
    check_register_cap(n, cap)
    peak = max(abs(complex(c)) for c, _ in terms)
    scale = 2.0 ** math.frexp(peak)[1] if 0 < peak < 1 else 1.0
    vec = np.zeros(1 << n, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, f in terms:
            _add_scaled(vec, complex(c) / scale, _product_amplitudes(f.memberships))
        norm = float(np.linalg.norm(vec))
        weight = float(np.abs([complex(c) / scale for c, _ in terms]).sum())
    if not math.isfinite(norm):
        raise ValueError("superposition norm overflows: coefficients too large")
    if norm <= NORM_TOL * weight:
        raise ValueError(
            f"superposition cancelled completely (norm {norm * scale:.3e})"
        )
    np.divide(vec, norm, out=vec)
    return QuantumFuzzySet(
        StateVector(n, vec),
        RegisterLayout.single(VALUE_SEGMENT, n),
        pre_norm=norm * scale,
    )


def value_marginals(q: QuantumFuzzySet) -> np.ndarray:
    """Per-element probabilities of measuring 1 on the value segment, from
    the Born probabilities summed once over the qubits outside it."""
    seg = _value_distribution(q)
    return np.array(
        [seg.reshape(1 << i, 2, -1)[:, 1, :].sum() for i in range(q.universe_size)]
    )


def encode_columns(f: FuzzySet) -> ColumnSet:
    """:func:`encode` as columns: element i's column is its one qubit
    sqrt(1-f(i))|0> + sqrt(f(i))|1>."""
    columns = [_product_amplitudes([m]) for m in f.memberships]
    return ColumnSet(columns, RegisterLayout.single(VALUE_SEGMENT, 1))


def fuz_columns(index: int, window: FuzzySet) -> ColumnSet:
    """:func:`fuz_isometry` of the encoded one-hot set at ``index`` as
    columns, for the square ``window`` of :func:`classical_fuzzify` (1/2
    inside, 0 outside).  The seed is a basis state, so its image is a
    product: element i's column is its seed qubit, |1> at ``index`` and |0>
    elsewhere, then its value qubit, (|0>+|1>)/sqrt(2) inside the window
    and |0> outside, which is the window encoded."""
    columns = [_product_amplitudes([float(i == index), m])
               for i, m in enumerate(window.memberships, start=1)]
    layout = RegisterLayout(
        RegisterLayout.single(VALUE_SEGMENT, 1).relabeled("in.")
        + ((VALUE_SEGMENT, 2, 1),)
    )
    return ColumnSet(columns, layout)


def column_not(c: ColumnSet) -> ColumnSet:
    """:func:`qnot` on every column."""
    return ColumnSet([_not_view(c.layout, x).flatten() for x in c.columns], c.layout)


def _column_connective(a: ColumnSet, b: ColumnSet, disjoin: bool) -> ColumnSet:
    """:func:`_and_scatter` on each pair of columns: element i's Toffoli
    reads and writes only element i's qubits."""
    pairs = zip(a.columns, b.columns)
    columns = [_and_scatter(a.layout, x, b.layout, y, disjoin) for x, y in pairs]
    return ColumnSet(columns, _and_layout(a.layout, b.layout))


def column_and(a: ColumnSet, b: ColumnSet) -> ColumnSet:
    """:func:`qand` column by column."""
    return _column_connective(a, b, False)


def column_or(a: ColumnSet, b: ColumnSet) -> ColumnSet:
    """:func:`qor` column by column."""
    return _column_connective(a, b, True)


def column_marginals(c: ColumnSet) -> np.ndarray:
    """:func:`value_marginals` of the register ``c`` stands for: each
    element's probability of measuring 1 on its value qubit."""
    return np.array([_value_axis(c.layout, np.abs(x) ** 2).sum(axis=(0, 2))[1]
                     for x in c.columns])

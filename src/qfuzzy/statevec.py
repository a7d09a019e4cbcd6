"""Dense state-vector simulation of a small qubit register.

Basis convention: the bit for register qubit ``i`` (1-based) is the
``(i - 1)``-th most significant bit of the basis index, so ``"110"`` names
the basis state with qubits 1 and 2 set, at index 6.  Qubit indices in the
public API are therefore 1-based throughout.

``StateVector`` values are treated as immutable: every operation returns a
fresh instance and never writes through an input.  The constructor does not
copy the amplitude array it is given, so callers must not mutate arrays they
hand over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._lazy import lazy_import
from .errors import ResourceLimitError, _brief

np = lazy_import("numpy")

#: Largest register allocated by default (2**24 amplitudes).
DEFAULT_QUBIT_CAP = 24

#: Normalization / unitarity decision tolerance.
NORM_TOL = 1e-10
#: Singular values below this count as zero when ranking bipartitions.
RANK_SV_TOL = 1e-8
#: Entrywise tolerance for exact structural comparisons.
EXACT_TOL = 1e-12
#: Most trials one sampling call draws: ``Generator.multinomial`` takes its
#: count as an int64.
MAX_SHOTS = 2**63 - 1

#: Single-qubit gates as nested tuples, which every gate argument accepts.
IDENTITY = ((1.0, 0.0), (0.0, 1.0))
PAULI_X = ((0.0, 1.0), (1.0, 0.0))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Complex amplitudes of an ``n_qubits`` register, in basis-index order."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {amps.shape}"
            )
        # a NaN or +-inf real or imaginary part shows in their min or max;
        # the (real, imag) rows are a view, so no per-amplitude array is made
        parts = amps[:, None].view(np.float64)
        if not np.isfinite([parts.min(), parts.max()]).all():
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def check_register_cap(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> None:
    """Raise :class:`ResourceLimitError` if a register would exceed ``cap``."""
    if n_qubits > cap:
        raise ResourceLimitError(
            f"register of {_brief(n_qubits, str)} qubits exceeds the cap of "
            f"{_brief(cap, str)} qubits"
        )


def ground_state(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Return ``|00...0>`` on ``n_qubits`` qubits."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    check_register_cap(n_qubits, cap)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def bits_to_index(n_qubits: int, bits: str) -> int:
    """Translate a bitstring (qubit 1 leftmost) into a basis index."""
    if len(bits) != n_qubits:
        raise ValueError(f"expected {n_qubits} bits, got {len(bits)}")
    if set(bits) - {"0", "1"}:
        raise ValueError(f"bitstring may contain only '0' and '1', got {bits!r}")
    return int(bits, 2)


def basis_state(bits: str, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Return the computational basis state named by ``bits``, e.g. ``"0110"``."""
    n = len(bits)
    if n == 0:
        raise ValueError("bitstring must be nonempty")
    check_register_cap(n, cap)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[bits_to_index(n, bits)] = 1.0
    return StateVector(n, amps)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    """Join two registers; ``a``'s qubits become the leading (leftmost) ones."""
    return StateVector(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def _as_gate(gate: np.ndarray) -> np.ndarray:
    m = np.asarray(gate, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"single-qubit gate must be 2x2, got shape {m.shape}")
    deviation = float(np.max(np.abs(m @ m.conj().T - np.eye(2))))
    if deviation > NORM_TOL:
        raise ValueError(f"gate is not unitary (max deviation {deviation:.3e})")
    return m


def _check_qubit(state: StateVector, qubit: int, what: str = "qubit") -> None:
    if not 1 <= qubit <= state.n_qubits:
        raise ValueError(f"{what} {qubit} out of range 1..{state.n_qubits}")


def apply_single(state: StateVector, gate: np.ndarray, target: int) -> StateVector:
    """Apply a 2x2 unitary to qubit ``target``, identity elsewhere."""
    m = _as_gate(gate)
    _check_qubit(state, target, "target")
    axis = target - 1
    psi = state.amplitudes.reshape([2] * state.n_qubits)
    out = np.tensordot(m, psi, axes=([1], [axis]))
    out = np.moveaxis(out, 0, axis)
    return StateVector(state.n_qubits, np.ascontiguousarray(out).reshape(-1))


def apply_controlled(
    state: StateVector,
    gate: np.ndarray,
    controls: Iterable[int],
    target: int,
) -> StateVector:
    """Apply ``gate`` to ``target`` on components where every control bit is 1.

    With two controls and a Pauli-X this is the Toffoli gate.
    """
    m = _as_gate(gate)
    controls = list(controls)
    for q in controls:
        _check_qubit(state, q, "control")
    _check_qubit(state, target, "target")
    if len({*controls, target}) != len(controls) + 1:
        raise ValueError(
            f"controls {controls} and target {target} must be pairwise distinct"
        )
    n = state.n_qubits
    tmask = 1 << (n - target)
    cmask = 0
    for q in controls:
        cmask |= 1 << (n - q)
    idx = np.arange(1 << n)
    sel0 = np.nonzero(((idx & cmask) == cmask) & ((idx & tmask) == 0))[0]
    sel1 = sel0 | tmask
    amps = state.amplitudes.copy()
    a0 = state.amplitudes[sel0]
    a1 = state.amplitudes[sel1]
    amps[sel0] = m[0, 0] * a0 + m[0, 1] * a1
    amps[sel1] = m[1, 0] * a0 + m[1, 1] * a1
    return StateVector(n, amps)


def inner_product(a: StateVector, b: StateVector) -> complex:
    """Return ``<a|b>``, conjugate-linear in the first argument."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(
            f"size mismatch: {a.n_qubits} vs {b.n_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def basis_probability(state: StateVector, bits: str) -> float:
    """Probability that a full measurement collapses onto basis state ``bits``."""
    idx = bits_to_index(state.n_qubits, bits)
    return float(abs(state.amplitudes[idx]) ** 2)


def measure_qubits(
    state: StateVector,
    targets: Sequence[int],
    rng: np.random.Generator,
) -> tuple[str, StateVector]:
    """Measure ``targets`` (in the order given) and collapse the register.

    The outcome is drawn from the Born marginal over the remaining qubits;
    the returned state is renormalized and consistent with the outcome.
    """
    targets = list(targets)
    if not targets:
        raise ValueError("at least one target qubit is required")
    for q in targets:
        _check_qubit(state, q, "target")
    measured = set(targets)
    if len(measured) != len(targets):
        raise ValueError(f"measurement targets must be distinct, got {targets}")
    n, k = state.n_qubits, len(targets)
    # the register as a tensor with the targets' axes first, in target order
    order = [t - 1 for t in targets] + [q for q in range(n) if q + 1 not in measured]
    psi = state.amplitudes.reshape([2] * n).transpose(order)
    probs = (np.abs(psi) ** 2).reshape(1 << k, -1).sum(axis=1)
    total = probs.sum()
    if total < NORM_TOL:
        raise ValueError("cannot measure a state of vanishing norm")
    # Generator.choice(1 << k, p=probs / total) draws one uniform and
    # searches this CDF; doing it here skips choice's per-call validation
    cdf = (probs / total).cumsum()
    cdf /= cdf[-1]
    drawn = int(cdf.searchsorted(rng.random(), side="right"))
    bits = format(drawn, f"0{k}b")
    block = tuple(map(int, bits))
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps.reshape([2] * n).transpose(order)[block] = psi[block] / math.sqrt(probs[drawn])
    return bits, StateVector(n, amps)


def check_shots(shots: int, what: str = "shots") -> None:
    """Raise ``ValueError`` unless 1 <= ``shots`` <= :data:`MAX_SHOTS`."""
    if shots < 1:
        raise ValueError(f"{what} must be >= 1, got {shots}")
    if shots > MAX_SHOTS:
        raise ValueError(f"{what} must be <= {MAX_SHOTS} (2^63 - 1), got {shots}")


def sample_distribution(
    state: StateVector,
    rng: np.random.Generator,
    shots: int,
) -> dict[str, int]:
    """Counts of full-register measurement outcomes over ``shots`` trials."""
    check_shots(shots)
    n = state.n_qubits
    counts = draw_counts(np.abs(state.amplitudes) ** 2, rng, shots)
    return {format(i, f"0{n}b"): c for i, c in counts.items()}


def draw_counts(
    probs: np.ndarray, rng: np.random.Generator, trials: int
) -> dict[int, int]:
    """Counts of ``trials`` independent draws of an index from ``probs``,
    renormalized first, in one multinomial draw; only the indices drawn at
    least once appear."""
    counts = rng.multinomial(trials, probs / probs.sum())
    return {int(i): int(c) for i, c in enumerate(counts) if c}


def one_probabilities(state: StateVector) -> np.ndarray:
    """Per-qubit probabilities of measuring 1, as an array indexed by qubit-1."""
    n = state.n_qubits
    probs = (np.abs(state.amplitudes) ** 2).reshape([2] * n)
    return np.array([np.take(probs, 1, axis=q).sum() for q in range(n)])


def schmidt_rank(state: StateVector, left: Iterable[int]) -> int:
    """Numerical Schmidt rank of ``state`` across the ``left`` vs rest split."""
    left = sorted(set(left))
    n = state.n_qubits
    if not left:
        raise ValueError("left part of the bipartition must be nonempty")
    for q in left:
        _check_qubit(state, q, "bipartition qubit")
    if len(left) == n:
        raise ValueError("left part must be a proper subset of the qubits")
    right = [q for q in range(1, n + 1) if q not in left]
    psi = state.amplitudes.reshape([2] * n)
    perm = [q - 1 for q in left] + [q - 1 for q in right]
    mat = np.transpose(psi, perm).reshape(1 << len(left), -1)
    singular = np.linalg.svd(mat, compute_uv=False)
    return int(np.count_nonzero(singular > RANK_SV_TOL))


def _kron_columns(columns: np.ndarray) -> np.ndarray:
    """The kron of the n 2-vectors along the second-to-last axis of the
    (..., n, 2) array ``columns``, as a (..., 2^n) array with the leading
    axes kept: a chain of outer products (the products of ``np.kron``,
    without its per-call overhead)."""
    lead = columns.shape[:-2]
    out = np.ones(lead + (1,))
    for column in np.moveaxis(columns, -2, 0):
        out = (out[..., :, None] * column[..., None, :]).reshape(lead + (-1,))
    return out


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> of each pair of equally shaped (batch, rows, cols) views,
    reduced along the longer of rows and cols first."""
    return np.vecdot(x, y, axis=1 + int(x.shape[1] <= x.shape[2])).sum(axis=-1)


def _qubit_split(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Schmidt rank of every 1-vs-rest bipartition of each register in the
    (batch, 2^n) array ``amps``, as a (batch, n) array, and, when all are 1,
    the phase-fixed factors as a (batch, n, 2) array.  The qubit-vs-rest
    matrix m has two rows, the halves a and b of the register where the
    qubit is 0 and 1, read as strided views without a copy.  One
    Gram-Schmidt step gives the R factor of the QR decomposition
    m.T = [a b] = QR: r11 = |a|, r12 = <a, b>/r11 and r22 = |b - r12 a/r11|,
    each within about eps |m| of the Householder R (when |a|^2 is subnormal
    r11 loses digits, but r11 then scales every error it causes in the
    singular values).  As m = R.T Q.T, the 2x2 SVD of R.T gives m's singular
    values and left vectors (Chan's R-SVD, ACM TOMS 8(1), 1982).  The one
    temporary, the residual, is half the batch.  A product rebuilt from the
    top left vectors lies within sqrt(sum of discarded s^2) of its register;
    farther off than twice that is a numerical fault.  Each step is one
    array operation over the batch, and a batch of one computes what a
    scalar step would, bit for bit."""
    batch, dim = amps.shape
    n = dim.bit_length() - 1
    ranks = np.empty((batch, n), dtype=np.int64)
    tops = np.empty((batch, n, 2), dtype=np.complex128)
    discarded = np.zeros(batch)
    r_t = np.zeros((batch, 2, 2), dtype=np.complex128)
    for q in range(n):
        halves = amps.reshape(batch, 1 << q, 2, -1)
        a, b = halves[:, :, 0], halves[:, :, 1]
        aa = _inner(a, a).real
        ab = _inner(a, b)
        # r12 / r11, 0 where a = 0; dividing each part by the real aa, as
        # Python's complex / float does, not by numpy's complex division
        coef = np.zeros(batch, dtype=np.complex128)
        np.divide(ab.real, aa, out=coef.real, where=aa > 0.0)
        np.divide(ab.imag, aa, out=coef.imag, where=aa > 0.0)
        residual = a * coef[:, None, None]
        np.subtract(b, residual, out=residual)
        flat = residual.reshape(batch, -1)
        r11 = np.sqrt(aa)
        r_t[:, 0, 0] = r11
        r_t[:, 1, 0] = coef * r11
        r_t[:, 1, 1] = np.sqrt(np.vecdot(flat, flat).real)
        u, s, _ = np.linalg.svd(r_t)
        ranks[:, q] = np.count_nonzero(s > RANK_SV_TOL, axis=1)
        # fix the phase: |0> coefficient (|1> if that is 0) real non-negative;
        # np.hypot gives abs()'s bits, where np.abs of a complex array rounds
        # differently
        top = u[:, :, 0]
        pivot = np.where(np.hypot(top[:, 0].real, top[:, 0].imag) > EXACT_TOL,
                         top[:, 0], top[:, 1])
        tops[:, q] = top * (pivot.conj() / np.hypot(pivot.real, pivot.imag))[:, None]
        discarded += np.sum(s[:, 1:] ** 2, axis=1)
    if (ranks != 1).any():
        return ranks, None
    rebuilt = _kron_columns(tops)
    rebuilt *= np.vecdot(rebuilt, amps)[:, None]
    rebuilt -= amps
    deviation = np.max(np.abs(rebuilt), axis=1)
    bound = NORM_TOL + 2.0 * np.sqrt(discarded)
    worst = int(np.argmax(deviation - bound))
    if deviation[worst] > bound[worst]:
        raise RuntimeError(
            f"product factors miss the state by {deviation[worst]:.3e} > "
            f"{bound[worst]:.3e}"
        )
    return ranks, tops


def factor_product_state(state: StateVector) -> list[StateVector] | None:
    """Split ``state`` into phase-fixed per-qubit factors (|0> coefficient
    real non-negative), or return None unless :func:`schmidt_rank` is 1 on
    every 1-vs-rest bipartition.  Scaled by its overlap with ``state``, their
    kron matches it within NORM_TOL + 2 sqrt(sum of discarded singular values^2)."""
    tops = _qubit_split(state.amplitudes[None])[1]
    return None if tops is None else [StateVector(1, f) for f in tops[0]]


def bloch_point(q: StateVector) -> tuple[float, float, float]:
    """Coordinates of a single-qubit state on the unit sphere.

    The state is first put in the normal form cos(t)|0> + e^{i p} sin(t)|1>
    with a real non-negative |0> coefficient; when that coefficient is zero
    the phase is undefined and taken to be 0.  Returns
    (sin(2t) cos(p), sin(2t) sin(p), cos(2t)); |0> maps to the north pole
    (0, 0, 1) and |1> to the south pole (0, 0, -1).
    """
    if q.n_qubits != 1:
        raise ValueError(f"bloch_point needs a single qubit, got {q.n_qubits}")
    if abs(q.norm() - 1.0) > NORM_TOL:
        raise ValueError("bloch_point needs a normalized state")
    a, b = q.amplitudes
    theta = math.atan2(abs(b), abs(a))
    phi = float(np.angle(b) - np.angle(a)) if abs(a) > 0 and abs(b) > 0 else 0.0
    return (
        math.sin(2 * theta) * math.cos(phi),
        math.sin(2 * theta) * math.sin(phi),
        math.cos(2 * theta),
    )

"""Dense state-vector simulation of a small qubit register.

Basis convention: the bit for register qubit ``i`` (1-based) is the
``(i - 1)``-th most significant bit of the basis index, so ``"110"`` names
the basis state with qubits 1 and 2 set, at index 6.  Qubit indices in the
public API are therefore 1-based throughout.

``StateVector`` values are treated as immutable: every operation returns a
fresh instance and never writes through an input.  The constructor does not
copy the amplitude array it is given, so callers must not mutate arrays they
hand over.

This module keeps what the runtime runs: the register, products, sampling
and the per-qubit splits behind the entanglement report.  The paper's
circuits, applied one gate at a time (``apply_single``,
``apply_controlled``, ``measure_qubits``), are oracles and live in
:mod:`qfuzzy.reference`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
#: Amplitudes per slice where a whole register is written out or summed a
#: slice at a time, so that the temporaries stay this small.
AMP_SLICE = 1 << 12
#: Most trials one sampling call draws: ``Generator.multinomial`` takes its
#: count as an int64.
MAX_SHOTS = 2**63 - 1
#: Trials a quantum DEFUZ or a ``sample`` draws by default.
DEFAULT_TRIALS = 10000


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


def _check_qubit(state: StateVector, qubit: int, what: str = "qubit") -> None:
    if not 1 <= qubit <= state.n_qubits:
        raise ValueError(f"{what} {qubit} out of range 1..{state.n_qubits}")


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


def check_shots(shots: int, what: str = "shots") -> None:
    """Raise ``ValueError`` unless 1 <= ``shots`` <= :data:`MAX_SHOTS`."""
    if shots < 1:
        raise ValueError(f"{what} must be >= 1, got {_brief(shots)}")
    if shots > MAX_SHOTS:
        raise ValueError(
            f"{what} must be <= {MAX_SHOTS} (2^63 - 1), got {_brief(shots)}"
        )


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
    drawn = np.flatnonzero(counts)
    return dict(zip(drawn.tolist(), counts[drawn].tolist()))


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
    """The kron of the n 2-vectors in ``columns``, an (n, 2) array or a
    list of its rows, as 2^n amplitudes: a chain of outer products (the
    products of ``np.kron``, without its per-call overhead)."""
    out = np.ones(1)
    for column in columns:
        out = (out[:, None] * column).reshape(-1)
    return out


def _inner(x: np.ndarray, y: np.ndarray) -> complex:
    """<x, y> of two equally shaped (rows, cols) views, reduced along the
    longer of rows and cols first."""
    return complex(np.vecdot(x, y, axis=int(x.shape[0] <= x.shape[1])).sum())


def _qubit_split(amps: np.ndarray) -> tuple[list[int], list[np.ndarray] | None]:
    """Schmidt rank of every 1-vs-rest bipartition of the register ``amps``
    (2^n amplitudes), one per qubit, and, when all are 1, the phase-fixed
    factors, one 2-vector per qubit.  The qubit-vs-rest matrix m has two
    rows, the halves a and b of the register where the qubit is 0 and 1,
    read as strided views without a copy.  One Gram-Schmidt step gives the
    R factor of the QR decomposition m.T = [a b] = QR: r11 = |a|,
    r12 = <a, b>/r11 and r22 = |b - r12 a/r11|, each within about eps |m| of
    the Householder R (when |a|^2 is subnormal r11 loses digits, but r11
    then scales every error it causes in the singular values).  As
    m = R.T Q.T, the 2x2 SVD of R.T gives m's singular values and left
    vectors (Chan's R-SVD, ACM TOMS 8(1), 1982).  The one temporary, the
    residual, is half the register.  A product rebuilt from the top left
    vectors lies within sqrt(sum of discarded s^2) of its register; farther
    off than twice that is a numerical fault."""
    ranks, tops, discarded = [], [], 0.0
    for q in range(len(amps).bit_length() - 1):
        halves = amps.reshape(1 << q, 2, -1)
        a, b = halves[:, 0], halves[:, 1]
        aa = _inner(a, a).real
        # r12 / r11, 0 where a = 0; Python's complex / float divides each
        # part by the real aa, where numpy's complex division would not
        coef = _inner(a, b) / aa if aa > 0.0 else 0j
        residual = a * coef
        np.subtract(b, residual, out=residual)
        flat = residual.reshape(-1)
        r11 = math.sqrt(aa)
        r22 = math.sqrt(np.vecdot(flat, flat).real)
        u, s, _ = np.linalg.svd(np.array([[r11, 0.0], [coef * r11, r22]]))
        ranks.append(int(np.count_nonzero(s > RANK_SV_TOL)))
        # fix the phase: |0> coefficient (|1> if that is 0) real non-negative;
        # np.hypot gives abs()'s bits, where np.abs of a complex array rounds
        # differently
        top = u[:, 0]
        pivot = top[0] if np.hypot(top[0].real, top[0].imag) > EXACT_TOL else top[1]
        tops.append(top * (pivot.conj() / np.hypot(pivot.real, pivot.imag)))
        discarded += s[1] * s[1]
    if any(rank != 1 for rank in ranks):
        return ranks, None
    rebuilt = _kron_columns(tops)
    rebuilt *= np.vecdot(rebuilt, amps)
    rebuilt -= amps
    deviation = float(np.max(np.abs(rebuilt)))
    bound = NORM_TOL + 2.0 * math.sqrt(discarded)
    if deviation > bound:
        raise RuntimeError(
            f"product factors miss the state by {deviation:.3e} > {bound:.3e}"
        )
    return ranks, tops


def factor_product_state(state: StateVector) -> list[StateVector] | None:
    """Split ``state`` into phase-fixed per-qubit factors (|0> coefficient
    real non-negative), or return None unless :func:`schmidt_rank` is 1 on
    every 1-vs-rest bipartition.  Scaled by its overlap with ``state``, their
    kron matches it within NORM_TOL + 2 sqrt(sum of discarded singular values^2)."""
    tops = _qubit_split(state.amplitudes)[1]
    return None if tops is None else [StateVector(1, f) for f in tops]


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

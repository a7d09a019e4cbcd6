"""Reference implementations that the fast paths are tested against.

The paper states each operation as a circuit: a rotation per element to
encode, Pauli-X to complement, one Toffoli per element to intersect, a linear
window map to fuzzify and the U_COM permutation to defuzzify.  This module
keeps those circuits one gate at a time, and the enumerations over all 2^N
crisp subsets, as oracles.  The runtime builds the same states and laws in
other ways (:mod:`qfuzzy.qfs`, :mod:`qfuzzy.fuzzy`), and no runtime module
imports this one.  Three oracles do share runtime code with what they check:
:func:`u_com` bins by ``qfs._com_table``, the table ``defuzzify`` bins by;
:func:`fuz_linear` writes ``qfs._windows``, the windows ``fuz_isometry``
writes; and :func:`sampling_vs_oracle` samples through ``encode`` and
``sample_distribution``, the runtime paths it holds against the
enumeration.  The two private helpers are each checked against
a program of their own (``tests/test_qfs.py``'s
``test_com_table_equals_com_index``,
``test_fuz_linear_equals_per_amplitude_reference`` and
``test_fuz_isometry_equals_per_amplitude_reference``).  :mod:`qfuzzy`
re-exports the circuits and oracles by name.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Mapping, Sequence

from ._lazy import lazy_import
from .fuzzy import MAX_ENUM_UNIVERSE, CrispSubset, FuzzySet
from .qfs import _com_table, _windows, encode
from .statevec import DEFAULT_QUBIT_CAP, NORM_TOL, StateVector, _check_qubit
from .statevec import check_register_cap, check_shots, sample_distribution

np = lazy_import("numpy")

#: Single-qubit gates as nested tuples, which every gate argument accepts.
IDENTITY = ((1.0, 0.0), (0.0, 1.0))
PAULI_X = ((0.0, 1.0), (1.0, 0.0))

#: Largest universe accepted by the sampling-vs-enumeration comparison.
MAX_SAMPLING_UNIVERSE = 12


def ground_state(n_qubits: int, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Return ``|00...0>`` on ``n_qubits`` qubits."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    check_register_cap(n_qubits, cap)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def _as_gate(gate: np.ndarray) -> np.ndarray:
    m = np.asarray(gate, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError(f"single-qubit gate must be 2x2, got shape {m.shape}")
    deviation = float(np.max(np.abs(m @ m.conj().T - np.eye(2))))
    if deviation > NORM_TOL:
        raise ValueError(f"gate is not unitary (max deviation {deviation:.3e})")
    return m


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


def one_probabilities(state: StateVector) -> np.ndarray:
    """Per-qubit probabilities of measuring 1, as an array indexed by qubit-1."""
    n = state.n_qubits
    probs = (np.abs(state.amplitudes) ** 2).reshape([2] * n)
    return np.array([np.take(probs, 1, axis=q).sum() for q in range(n)])


def rotation_gate(p: float) -> np.ndarray:
    """Real rotation taking |0> to sqrt(1-p)|0> + sqrt(p)|1>."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"membership must lie in [0, 1], got {p}")
    c = math.sqrt(1.0 - p)
    s = math.sqrt(p)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def fuz_linear(state: StateVector, k: int, renormalize: bool = False) -> StateVector:
    """Square-window fuzzification as a linear (not unitary) map.

    Each basis state maps to the product state with qubit i in
    (|0>+|1>)/sqrt(2) whenever some set bit lies within distance ``k`` of i,
    and |0> otherwise: one value on a sub-block of the output read as N axes
    of size 2.  A superposition maps to the sum of those images, so each
    nonzero amplitude adds amplitude x value into its pattern's sub-block.
    Distinct basis states can share an image, so norm is generally not
    preserved; with ``renormalize`` the output is rescaled to unit norm and
    a complete cancellation raises.
    """
    if k < 0:
        raise ValueError(f"window radius must be >= 0, got {k}")
    n = state.n_qubits
    out = np.zeros((2,) * n, dtype=np.complex128)
    for p, window, value in _windows(np.flatnonzero(state.amplitudes), k, n):
        out[window] += state.amplitudes[p] * value
    if renormalize:
        norm = np.linalg.norm(out)
        if norm < NORM_TOL:
            raise ValueError(
                "fuzzified state cancelled to norm ~0 and cannot be renormalized"
            )
        out = out / norm
    return StateVector(n, out.reshape(-1))


def u_com(state: StateVector) -> StateVector:
    """Center-of-mass defuzzification as a unitary on a doubled register.

    On a 2n-qubit register, maps |u>|v> to |u>|v XOR c(u)> where c(u) is the
    one-hot bitstring of the center-of-mass index of u (all zeros for the
    massless input).  A basis permutation and an involution (the XOR mask
    reads only u, which it leaves alone), so its action on amplitudes is one
    gather ``amps[i XOR mask(i)]``; u is the top n bits of index i.
    """
    if state.n_qubits % 2:
        raise ValueError(
            f"u_com needs an even register, got {state.n_qubits} qubits"
        )
    n = state.n_qubits // 2
    com = _com_table(n)
    one_hot = np.where(com > 0, 1 << (n - com), 0)
    idx = np.arange(state.dim, dtype=np.int64)
    idx ^= one_hot[idx >> n]
    return StateVector(state.n_qubits, state.amplitudes[idx])


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


def total_variation(p: Mapping, q: Mapping) -> float:
    """Total-variation distance between two discrete distributions,
    half the L1 distance over the union of their keys."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def sampling_vs_oracle(
    f: FuzzySet,
    rng: np.random.Generator,
    shots: int,
) -> float:
    """Total-variation distance between sampled measurement frequencies of
    the encoded state and the exact enumeration of collapse probabilities."""
    if f.universe_size > MAX_SAMPLING_UNIVERSE:
        raise ValueError(
            f"universe of size {f.universe_size} is too large to compare "
            f"(limit {MAX_SAMPLING_UNIVERSE})"
        )
    check_shots(shots)
    counts = sample_distribution(encode(f).state, rng, shots)
    empirical = {bits: c / shots for bits, c in counts.items()}
    return total_variation(empirical, oracle_distribution(f))

"""Structural diagnostics: orthogonality and entanglement.

The sampling-vs-enumeration check lives with the other oracles in
:mod:`qfuzzy.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import lazy_import
from .fuzzy import FuzzySet, common_universe
from .qfs import ColumnSet, QuantumFuzzySet
from .statevec import StateVector, _qubit_split

np = lazy_import("numpy")

#: Phases below this magnitude are reported as exactly 0.
PHASE_SNAP_TOL = 1e-10


@dataclass(frozen=True)
class OrthogonalityVerdict:
    """Outcome of the encoded-state orthogonality test for a pair of fuzzy
    sets: they are orthogonal exactly when some element is crisply in one
    set and crisply out of the other."""

    orthogonal: bool
    witness: int | None
    inner_product_value: complex


@dataclass(frozen=True, eq=False)
class EntanglementReport:
    """Per-qubit structure of a register state.

    ``canonical_fuzzy_set``, ``phases`` and ``factors`` are present exactly
    when the state is a product: each phase-fixed factor a|0> + b|1> (from
    :func:`factor_product_state`) contributes membership |b|^2 and relative
    phase arg(b) - arg(a).
    """

    per_qubit_schmidt_ranks: tuple[int, ...]
    is_product: bool
    canonical_fuzzy_set: FuzzySet | None
    phases: tuple[float, ...] | None
    factors: tuple[StateVector, ...] | None


def cfs_inner(f: FuzzySet, g: FuzzySet) -> float:
    """Closed-form inner product of two encoded fuzzy sets:
    the product over i of sqrt(f(i)g(i)) + sqrt((1-f(i))(1-g(i)))."""
    common_universe(f, g)
    fm, gm = np.asarray(f.memberships), np.asarray(g.memberships)
    return float(np.prod(np.sqrt(fm * gm) + np.sqrt((1.0 - fm) * (1.0 - gm))))


def check_orthogonality(f: FuzzySet, g: FuzzySet) -> OrthogonalityVerdict:
    """Decide orthogonality of the encoded states.

    The witness condition is exact: element i with (f(i), g(i)) equal to
    (0, 1) or (1, 0) as stored.  Memberships merely close to 0 or 1 do not
    produce orthogonal states and yield no witness.
    """
    common_universe(f, g)
    witness = None
    for i, (a, b) in enumerate(zip(f.memberships, g.memberships), start=1):
        if (a == 0.0 and b == 1.0) or (a == 1.0 and b == 0.0):
            witness = i
            break
    return OrthogonalityVerdict(
        orthogonal=witness is not None,
        witness=witness,
        inner_product_value=complex(cfs_inner(f, g)),
    )


def entanglement_report(q: QuantumFuzzySet | StateVector) -> EntanglementReport:
    """Schmidt ranks of every 1-vs-rest bipartition, and, for product states,
    the fuzzy set and per-qubit phases recovered by rotating each factor back
    to the zero-phase meridian."""
    state = q.state if isinstance(q, QuantumFuzzySet) else q
    return _report(*_qubit_split(state.amplitudes))


def column_report(c: ColumnSet) -> EntanglementReport:
    """:func:`entanglement_report` of the register ``c`` stands for, from
    one split of each column.  A qubit's partner in every other column is
    a separate factor of unit norm, so its Schmidt rank and factor against
    the rest of the register are those against the rest of its column; the
    columns' results are interleaved so that qubit s of element j is
    reported at (s - 1) * N + j."""
    ranks, tops = zip(*map(_qubit_split, c.columns))
    ranks = [rank for qubit in zip(*ranks) for rank in qubit]
    if any(t is None for t in tops):
        return _report(ranks, None)
    return _report(ranks, [factor for qubit in zip(*tops) for factor in qubit])


def _report(ranks: list[int], tops: list[np.ndarray] | None) -> EntanglementReport:
    """The report on qubits with these ranks and, for a product, these
    phase-fixed factors a|0> + b|1>, one 2-vector each."""
    ranks = tuple(ranks)
    if tops is None:
        return EntanglementReport(ranks, False, None, None, None)
    memberships = []
    phases = []
    for a, b in tops:
        memberships.append(min(1.0, max(0.0, float(abs(b) ** 2))))
        if abs(a) < PHASE_SNAP_TOL or abs(b) < PHASE_SNAP_TOL:
            phi = 0.0  # phase is undefined on a pole; report the convention
        else:
            phi = float(np.angle(b) - np.angle(a))
        phases.append(0.0 if abs(phi) < PHASE_SNAP_TOL else phi)
    factors = tuple(StateVector(1, f) for f in tops)
    return EntanglementReport(
        ranks, True, FuzzySet(memberships), tuple(phases), factors
    )

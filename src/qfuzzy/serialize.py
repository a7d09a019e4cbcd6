"""JSON wire formats, with reals printed to 17 significant digits.

17 significant digits identify a binary double uniquely, so every value
survives a print/parse round trip bit-exactly; together with insertion-order
objects and lexicographically sorted distribution keys this makes command
output byte-stable, which the golden tests rely on.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

from .analysis import EntanglementReport
from .fuzzy import CrispSubset, FuzzySet
from .qfs import QuantumFuzzySet, RegisterLayout
from .statevec import StateVector, check_register_cap


def format_real(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


def _emit(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_real(obj))
    elif isinstance(obj, Mapping):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                out.append(", ")
            if not isinstance(key, str):
                raise TypeError(f"object keys must be strings, got {key!r}")
            out.append(json.dumps(key))
            out.append(": ")
            _emit(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    """Deterministic JSON text: insertion-order objects, 17-digit reals."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _require(d: Mapping, key: str, what: str) -> Any:
    if key not in d:
        raise ValueError(f"{what} is missing the {key!r} field")
    return d[key]


def fuzzy_set_to_dict(f: FuzzySet) -> dict:
    return {
        "universe_size": f.universe_size,
        "memberships": [float(m) for m in f.memberships],
    }


def fuzzy_set_from_dict(d: Mapping) -> FuzzySet:
    if not isinstance(d, Mapping):
        raise ValueError(f"fuzzy set must be a JSON object, got {type(d).__name__}")
    n = _require(d, "universe_size", "fuzzy set")
    memberships = _require(d, "memberships", "fuzzy set")
    if not isinstance(memberships, (list, tuple)):
        raise ValueError("memberships must be an array")
    f = FuzzySet(np.array(memberships, dtype=np.float64))
    if f.universe_size != n:
        raise ValueError(
            f"universe_size {n} does not match {f.universe_size} memberships"
        )
    return f


def crisp_subset_to_dict(s: CrispSubset) -> dict:
    return {"universe_size": s.universe_size, "bits": s.bits}


def crisp_subset_from_dict(d: Mapping) -> CrispSubset:
    if not isinstance(d, Mapping):
        raise ValueError(f"crisp subset must be a JSON object, got {type(d).__name__}")
    n = _require(d, "universe_size", "crisp subset")
    bits = _require(d, "bits", "crisp subset")
    if not isinstance(bits, str):
        raise ValueError("bits must be a string")
    s = CrispSubset(bits)
    if s.universe_size != n:
        raise ValueError(f"universe_size {n} does not match {len(bits)} bits")
    return s


def qfs_to_dict(q: QuantumFuzzySet) -> dict:
    return {
        "layout": [[name, start, length] for name, start, length in q.layout.segments],
        "universe_size": q.universe_size,
        "amplitudes": [[float(a.real), float(a.imag)] for a in q.state.amplitudes],
    }


def qfs_from_dict(d: Mapping, cap: int) -> QuantumFuzzySet:
    """Parse a state document; a layout wider than ``cap`` qubits raises
    :class:`ResourceLimitError` before any amplitude is read."""
    if not isinstance(d, Mapping):
        raise ValueError(f"state must be a JSON object, got {type(d).__name__}")
    layout_rows = _require(d, "layout", "state")
    raw = _require(d, "amplitudes", "state")
    segments = []
    for row in layout_rows:
        if not (isinstance(row, (list, tuple)) and len(row) == 3):
            raise ValueError(f"layout rows must be [name, start, length], got {row!r}")
        name, start, length = row
        segments.append((str(name), int(start), int(length)))
    layout = RegisterLayout(tuple(segments))
    check_register_cap(layout.total_qubits, cap)
    if not isinstance(raw, (list, tuple)):
        raise ValueError("amplitudes must be an array of [re, im] pairs")
    amps = np.zeros(len(raw), dtype=np.complex128)
    for i, pair in enumerate(raw):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ValueError(f"amplitude {i} must be a [re, im] pair, got {pair!r}")
        amps[i] = complex(float(pair[0]), float(pair[1]))
    if len(raw) != 1 << layout.total_qubits:
        raise ValueError(
            f"expected {1 << layout.total_qubits} amplitudes for "
            f"{layout.total_qubits} qubits, got {len(raw)}"
        )
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (norm {norm:.9f})")
    if abs(norm - 1.0) > 1e-12:
        # hand-written inputs are often rounded; renormalize them, but leave
        # machine-precision values untouched so round trips stay bit-exact
        amps = amps / norm
    state = StateVector(layout.total_qubits, amps)
    q = QuantumFuzzySet(state, layout)
    declared = _require(d, "universe_size", "state")
    if declared != q.universe_size:
        raise ValueError(
            f"universe_size {declared} does not match the value segment "
            f"({q.universe_size} qubits)"
        )
    return q


def report_to_dict(
    report: EntanglementReport,
    bloch_points: list[tuple[float, float, float]] | None = None,
) -> dict:
    d: dict[str, Any] = {
        "per_qubit_schmidt_ranks": list(report.per_qubit_schmidt_ranks),
        "is_product": report.is_product,
        "canonical_fuzzy_set": (
            fuzzy_set_to_dict(report.canonical_fuzzy_set)
            if report.canonical_fuzzy_set is not None
            else None
        ),
        "phases": list(report.phases) if report.phases is not None else None,
    }
    d["bloch_points"] = (
        [list(p) for p in bloch_points] if bloch_points is not None else None
    )
    return d


def distribution_to_dict(dist: Mapping) -> dict:
    """Distribution with string keys, sorted lexicographically."""
    return {str(k): dist[k] for k in sorted(dist, key=str)}

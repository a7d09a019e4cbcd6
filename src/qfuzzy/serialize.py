"""JSON wire formats, with reals printed to 17 significant digits.

17 significant digits identify a binary double uniquely, so every value
survives a print/parse round trip bit-exactly; together with insertion-order
objects and lexicographically sorted distribution keys this makes command
output byte-stable, which the golden tests rely on.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Any, Iterable, Mapping

from ._lazy import lazy_import
from .analysis import EntanglementReport
from .errors import _brief
from .fuzzy import CrispSubset, FuzzySet
from .qfs import VALUE_SEGMENT, QuantumFuzzySet, RegisterLayout
from .statevec import StateVector, check_register_cap

np = lazy_import("numpy")


def format_real(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


def _complex_pairs(amps: np.ndarray) -> str:
    """``[[re, im], ...]`` for a complex vector in one join; "%.17g" % x is
    the text of format(x, ".17g"), and the +0.0 folds -0.0 as in
    :func:`format_real`."""
    pairs = zip((amps.real + 0.0).tolist(), (amps.imag + 0.0).tolist())
    return "[" + ", ".join(map("[%.17g, %.17g]".__mod__, pairs)) + "]"


def _emit(obj: Any, out: list[str]) -> None:
    # the built-in types come first, so that a document of them never reads
    # ``np`` (which would load numpy), and the slow Mapping ABC check last
    if isinstance(obj, float):
        out.append(format_real(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, value in enumerate(obj):
            if i:
                out.append(", ")
            _emit(value, out)
        out.append("]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, dict):
        _emit_object(obj, out)
    elif isinstance(obj, np.floating):
        out.append(format_real(obj))
    elif isinstance(obj, np.integer):
        out.append(str(int(obj)))
    elif isinstance(obj, Mapping):
        _emit_object(obj, out)
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.complex128:
        out.append(_complex_pairs(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_object(obj: Mapping, out: list[str]) -> None:
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


def dumps(obj: Any) -> str:
    """Deterministic JSON text: insertion-order objects, 17-digit reals; a
    1-D complex array is written as a list of [re, im] pairs."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def json_int(value: Any, what: str, minimum: int) -> int:
    """A JSON integer (not a bool, a float or a string) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(
            f"{what} must be an integer >= {minimum}, got {_brief(value, json.dumps)}"
        )
    return value


def _all_json_numbers(values: Iterable) -> bool:
    """Whether every value is a JSON number, checked in bulk by type: a bool
    or a numeric string is not one, though numpy would read it as a number."""
    return set(map(type, values)) <= {int, float}


def _floats(values: Iterable, count: int, what: str) -> np.ndarray:
    try:
        return np.fromiter(values, np.float64, count)
    except OverflowError:
        raise ValueError(f"{what} must be finite") from None


def json_numbers(values: Any, what: str) -> tuple[float, ...]:
    """A JSON array of numbers (ints or floats, not bools or strings) as a
    tuple of floats, each int rounded to the nearest float."""
    if not (isinstance(values, (list, tuple)) and _all_json_numbers(values)):
        raise ValueError(f"{what} must be an array of JSON numbers")
    try:
        return tuple(map(float, values))
    except OverflowError:
        raise ValueError(f"{what} must be finite") from None


def _require(d: Mapping, key: str, what: str) -> Any:
    if key not in d:
        raise ValueError(f"{what} is missing the {key!r} field")
    return d[key]


def fuzzy_set_to_dict(f: FuzzySet) -> dict:
    return {
        "universe_size": f.universe_size,
        "memberships": list(f.memberships),
    }


def fuzzy_set_from_dict(d: Mapping) -> FuzzySet:
    if not isinstance(d, Mapping):
        raise ValueError(f"fuzzy set must be a JSON object, got {type(d).__name__}")
    n = json_int(_require(d, "universe_size", "fuzzy set"), "universe_size", 1)
    f = FuzzySet(json_numbers(_require(d, "memberships", "fuzzy set"), "memberships"))
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
    n = json_int(_require(d, "universe_size", "crisp subset"), "universe_size", 1)
    bits = _require(d, "bits", "crisp subset")
    if not isinstance(bits, str):
        raise ValueError("bits must be a string")
    s = CrispSubset(bits)
    if s.universe_size != n:
        raise ValueError(f"universe_size {n} does not match {len(bits)} bits")
    return s


def qfs_to_dict(q: QuantumFuzzySet) -> dict:
    """The state document; ``amplitudes`` is the complex amplitude array,
    which :func:`dumps` writes as [re, im] pairs."""
    return {
        "layout": [[name, start, length] for name, start, length in q.layout.segments],
        "universe_size": q.universe_size,
        "amplitudes": q.state.amplitudes,
    }


def qfs_from_dict(d: Mapping, cap: int) -> QuantumFuzzySet:
    """Parse a state document; a layout wider than ``cap`` qubits raises
    :class:`ResourceLimitError`, and an amplitude count that does not match
    the layout a ValueError, before any amplitude is read."""
    if not isinstance(d, Mapping):
        raise ValueError(f"state must be a JSON object, got {type(d).__name__}")
    layout_rows = _require(d, "layout", "state")
    raw = _require(d, "amplitudes", "state")
    declared = json_int(_require(d, "universe_size", "state"), "universe_size", 1)
    if not isinstance(layout_rows, (list, tuple)):
        raise ValueError("layout must be an array of [name, start, length] rows")
    segments = []
    for row in layout_rows:
        if not (isinstance(row, (list, tuple)) and len(row) == 3):
            raise ValueError(
                f"layout rows must be [name, start, length], got {_brief(row)}"
            )
        name, start, length = row
        if not isinstance(name, str):
            raise ValueError(
                f"layout segment names must be strings, got {_brief(name, json.dumps)}"
            )
        start = json_int(start, "layout start", 1)
        segments.append((name, start, json_int(length, "layout length", 1)))
    layout = RegisterLayout(tuple(segments))
    if VALUE_SEGMENT not in (name for name, _, _ in segments):
        raise ValueError(f"layout has no {VALUE_SEGMENT!r} segment")
    total = layout.total_qubits
    check_register_cap(total, cap)
    if not isinstance(raw, (list, tuple)):
        raise ValueError("amplitudes must be an array of [re, im] pairs")
    if len(raw) != 1 << total:
        raise ValueError(
            f"expected {1 << total} amplitudes for {total} qubits, got {len(raw)}"
        )
    # checked in bulk: every pair a 2-element array of JSON numbers
    if not (
        set(map(type, raw)) <= {list, tuple}
        and set(map(len, raw)) == {2}
        and _all_json_numbers(chain.from_iterable(raw))
    ):
        raise ValueError("amplitudes must be [re, im] pairs of JSON numbers")
    parts = _floats(chain.from_iterable(raw), 2 * len(raw), "amplitudes")
    amps = parts.view(np.complex128)
    norm = float(np.linalg.norm(amps))
    if abs(norm - 1.0) > 1e-6:
        raise ValueError(f"state is not normalized (norm {norm:.9f})")
    if abs(norm - 1.0) > 1e-12:
        # hand-written inputs are often rounded; renormalize them, but leave
        # machine-precision values untouched so round trips stay bit-exact
        amps = amps / norm
    state = StateVector(total, amps)
    q = QuantumFuzzySet(state, layout)
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

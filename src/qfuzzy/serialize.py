"""Every document the CLI reads or writes: the fuzzy set, the register
state, the pipeline spec and the command outputs, with reals printed to 17
significant digits.

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
from .errors import _brief, _json_text, check_int
from .exprparser import Environment
from .fuzzy import FuzzySet
from .qfs import VALUE_SEGMENT, QuantumFuzzySet, RegisterLayout
from .statevec import AMP_SLICE, StateVector, check_register_cap

np = lazy_import("numpy")


def format_real(x: float) -> str:
    return format(float(x) + 0.0, ".17g")  # +0.0 folds -0.0 into 0


#: One amplitude's text as :func:`_complex_pairs` writes it, with the ", "
#: that separates it from the next.
_PAIR = "[%.17g, %.17g], "


def _complex_pairs(amps: np.ndarray, out: list[str]) -> None:
    """Append ``[[re, im], ...]`` for a complex vector to ``out``, one slice
    of :data:`AMP_SLICE` amplitudes at a time, each in one ``%``-format over
    its interleaved (re, im) parts: "%.17g" % x is the text of
    format(x, ".17g"), and the +0.0 folds -0.0 as in :func:`format_real`."""
    parts = amps[:, None].view(np.float64)
    pattern = _PAIR * min(len(parts), AMP_SLICE)
    out.append("[")
    for lo in range(0, len(parts), AMP_SLICE):
        chunk = parts[lo : lo + AMP_SLICE]
        if lo:
            out.append(", ")
        # a slice of k amplitudes takes k patterns, less the last separator
        text = pattern[: len(chunk) * len(_PAIR) - 2]
        out.append(text % tuple((chunk + 0.0).ravel().tolist()))
    out.append("]")


def _emit(obj: Any, out: list[str]) -> None:
    # the built-in types come first, so that a document of them never reads
    # ``np`` (which would load numpy)
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
    elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype == np.complex128:
        _complex_pairs(obj, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_object(obj: dict, out: list[str]) -> None:
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


def _json_object(d: Any, what: str) -> None:
    """Check that the document ``d``, which ``what`` names, is a JSON object."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")


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
    _json_object(d, "fuzzy set")
    n = check_int(_require(d, "universe_size", "fuzzy set"), "universe_size", 1)
    f = FuzzySet(json_numbers(_require(d, "memberships", "fuzzy set"), "memberships"))
    if f.universe_size != n:
        raise ValueError(
            f"universe_size {_brief(n)} does not match {f.universe_size} memberships"
        )
    return f


def spec_from_dict(d: Mapping) -> tuple[str, Environment]:
    """The expression of the pipeline spec ``d`` and the :class:`Environment`
    to evaluate it in.  Every field is checked, whether or not a caller then
    overrides it: the document's shape here, the run parameters by
    Environment; a run parameter the spec leaves out takes the Environment
    default."""
    _json_object(d, "pipeline spec")
    for key in ("universe_size", "sets", "expression"):
        _require(d, key, "pipeline spec")
    n = check_int(d["universe_size"], "universe_size", 1)
    if not isinstance(d["sets"], dict):
        raise ValueError("sets must be an object mapping names to membership arrays")
    sets = {
        name: FuzzySet(json_numbers(memberships, f"set {_brief(name)}"))
        for name, memberships in d["sets"].items()
    }
    if not isinstance(d["expression"], str):
        shown = _brief(d["expression"], _json_text)
        raise ValueError(f"expression must be a JSON string, got {shown}")
    run = {key: d[key] for key in ("mode", "seed", "trials", "qubit_cap") if key in d}
    return d["expression"], Environment(universe_size=n, bindings=sets, **run)


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
    the layout a ValueError, before any amplitude is converted."""
    _json_object(d, "state")
    rows = _require(d, "layout", "state")
    raw = _require(d, "amplitudes", "state")
    declared = check_int(_require(d, "universe_size", "state"), "universe_size", 1)
    if not isinstance(rows, (list, tuple)):
        raise ValueError("layout must be an array of [name, start, length] rows")
    layout = RegisterLayout(tuple(rows))
    if VALUE_SEGMENT not in (name for name, _, _ in layout.segments):
        raise ValueError(f"layout has no {VALUE_SEGMENT!r} segment")
    total = layout.total_qubits
    check_register_cap(total, cap)
    if not isinstance(raw, (list, tuple)):
        raise ValueError("amplitudes must be an array of [re, im] pairs")
    if len(raw) != 1 << min(total, 63):  # no document holds 2^63 amplitudes
        expected = 1 << total if total < 63 else "2^" + _brief(total, str)
        raise ValueError(
            f"expected {_brief(expected, str)} amplitudes for "
            f"{_brief(total, str)} qubits, got {len(raw)}"
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
        np.divide(amps, norm, out=amps)
    state = StateVector(total, amps)
    q = QuantumFuzzySet(state, layout)
    if declared != q.universe_size:
        raise ValueError(
            f"universe_size {_brief(declared)} does not match the value segment "
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

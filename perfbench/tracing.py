"""Traced in-process replay of benchmark specs, and per-layer metrics.

The replay calls ``qfuzzy.cli.main`` in this process with the same arguments
the CLI processes got, so it follows the real evaluation path and must print
the same bytes.  Spans are recorded by the benchmark, not the program: for
the duration of the replay the names one module imports from another are
replaced by recording wrappers, at these boundaries:

- cli -> exprparser (``parse``, ``evaluate``), analysis, qfs, statevec
- cli -> serialize (``dumps``, ``qfs_to_dict``, ``qfs_from_dict``,
  ``report_to_dict``)
- exprparser -> qfs (the gates, ``superpose``, ``defuzzify``) and fuzzy
  (membership arithmetic, ``com_pushforward``)

Calls a module makes to its own functions or to statevec (``apply_single``,
``apply_controlled``, ``schmidt_rank``, ``factor_product_state``) are not
boundaries: their time is the self time of the calling span.  ``qor``'s
inner ``qnot``/``qand`` and ``superpose``'s inner ``encode`` count as ``qor``
and ``superpose``.  Timing those would need spans inside the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

AMP_BYTES = 16  # one complex128 amplitude
MIB = float(1 << 20)

GATES = ("encode", "qnot", "qand", "qor", "fuz_isometry", "superpose")
MEMBERSHIP_OPS = ("complement", "intersect", "union", "classical_fuzzify")

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = tuple(
    [(f"qfs.{g}.{stat}", unit) for g in GATES
     for stat, unit in (("calls", "count"), ("self_s", "s"), ("amp_mb", "MiB"), ("qubits_max", "qubits"))]
    + [(f"qfs.{g}.errors", "count") for g in ("qand", "qor", "fuz_isometry")]
    + [
        ("qfs.defuzzify.calls", "count"),
        ("qfs.defuzzify.self_s", "s"),
        ("qfs.defuzzify.amp_mb", "MiB"),
        ("qfs.defuzzify.qubits_max", "qubits"),
        ("qfs.defuzzify.errors", "count"),
        ("qfs.value_marginals.self_s", "s"),
        ("qfs.nonzero_amp_frac", "frac"),
        ("exprparser.parse.calls", "count"),
        ("exprparser.parse.self_s", "s"),
        ("exprparser.parse.errors", "count"),
        ("exprparser.evaluate.calls", "count"),
        ("exprparser.evaluate.self_s", "s"),
        ("exprparser.evaluate.errors", "count"),
        ("exprparser.evaluate.refused", "count"),
        ("exprparser.evaluate.refused_s", "s"),
        ("analysis.entanglement_report.calls", "count"),
        ("analysis.entanglement_report.self_s", "s"),
        ("analysis.entanglement_report.qubits_max", "qubits"),
        ("analysis.product_frac", "frac"),
        ("serialize.dumps.self_s", "s"),
        ("serialize.qfs_to_dict.calls", "count"),
        ("serialize.qfs_to_dict.self_s", "s"),
        ("serialize.qfs_from_dict.calls", "count"),
        ("serialize.qfs_from_dict.self_s", "s"),
        ("serialize.report_to_dict.self_s", "s"),
        ("statevec.sample_distribution.calls", "count"),
        ("statevec.sample_distribution.self_s", "s"),
        ("fuzzy.com_pushforward.calls", "count"),
        ("fuzzy.com_pushforward.self_s", "s"),
        ("fuzzy.membership_ops.calls", "count"),
        ("fuzzy.membership_ops.self_s", "s"),
        ("cli.main.calls", "count"),
        ("cli.main.self_s", "s"),
        ("cli.main.errors", "count"),
        ("cli.import_s", "s"),
        ("cli.startup_frac", "frac"),
        ("trace.cli_total_s", "s"),
        ("trace.replay_total_s", "s"),
    ]
)


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    #: When the recorder finished its own bookkeeping for this span; the
    #: parent's self time excludes [start, cover_end], so that bookkeeping
    #: is charged to no layer.
    cover_end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.  The
    wrappers nest on one thread, so children never overlap and each ends
    (cover_end included) before its parent does."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.cover_end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


class Recorder:
    """Collects spans from wrapped calls, single-threaded and in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """``fn`` recording a span per call; ``note(span, args, result)``
        adds attributes after the span's end is taken."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span.end = time.perf_counter()
                if note is not None:
                    note(span, args, result)
                return result
            except Exception as exc:
                span.end = span.end or time.perf_counter()
                span.error = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                span.cover_end = time.perf_counter()

        return traced


def _note_register(span: Span, args, result) -> None:
    span.attrs["qubits"] = result.state.n_qubits
    span.attrs["nonzero"] = int(np.count_nonzero(result.state.amplitudes))


def _note_defuzzify(span: Span, args, result) -> None:
    # the padded register the call allocates: input plus N appended qubits
    q = args[0]
    span.attrs["qubits"] = q.state.n_qubits + q.universe_size


def _note_report(span: Span, args, result) -> None:
    span.attrs["qubits"] = args[0].state.n_qubits
    span.attrs["product"] = bool(result.is_product)


def _note_exit(span: Span, args, result) -> None:
    span.attrs["exit"] = result


def _boundaries():
    """(module, attribute, span name, note) for every wrapped import."""
    out = [
        ("qfuzzy.cli", "parse", "exprparser.parse", None),
        ("qfuzzy.cli", "evaluate", "exprparser.evaluate", None),
        ("qfuzzy.cli", "entanglement_report", "analysis.entanglement_report", _note_report),
        ("qfuzzy.cli", "encode", "qfs.encode", _note_register),
        ("qfuzzy.cli", "value_marginals", "qfs.value_marginals", None),
        ("qfuzzy.cli", "sample_distribution", "statevec.sample_distribution", None),
        ("qfuzzy.exprparser", "defuzzify", "qfs.defuzzify", _note_defuzzify),
        ("qfuzzy.exprparser", "com_pushforward", "fuzzy.com_pushforward", None),
    ]
    out += [("qfuzzy.serialize", f, f"serialize.{f}", None)
            for f in ("dumps", "qfs_to_dict", "qfs_from_dict", "report_to_dict")]
    out += [("qfuzzy.exprparser", g, f"qfs.{g}", _note_register) for g in GATES]
    out += [("qfuzzy.exprparser", f, "fuzzy.membership_ops", None) for f in MEMBERSHIP_OPS]
    return out


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Install recording wrappers at the layer boundaries; restore on exit."""
    saved = []
    try:
        for module_name, attr, name, note in _boundaries():
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, recorder.wrap(name, original, note))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def replay(items) -> tuple[Recorder, list[tuple[int, bytes]]]:
    """Run ``qfuzzy.cli.main(argv)`` for each argv in ``items`` under the
    recorder; return the recorder and each call's (exit code, stdout).  An
    exception escaping ``main`` gives exit 1, as it would in a process."""
    cli = importlib.import_module("qfuzzy.cli")
    recorder = Recorder()
    main = recorder.wrap("cli.main", cli.main, _note_exit)
    results = []
    with patched(recorder):
        for argv in items:
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc(file=sys.stderr)
                code = 1
            results.append((code, out.getvalue().encode("utf-8")))
    return recorder, results


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics from a replay's spans; the cli.import_s,
    cli.startup_frac and trace.* entries are the caller's to fill in."""
    selfs = self_times(spans)
    m: dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    nonzero = allocated = reports = products = 0

    def add(key: str, value) -> None:
        if key in m:
            m[key] += value

    for s, self_s in zip(spans, selfs):
        add(f"{s.name}.calls", 1)
        add(f"{s.name}.self_s", self_s)
        error = s.error is not None or s.attrs.get("exit", 0) != 0
        add(f"{s.name}.errors", int(error))
        qubits = s.attrs.get("qubits")
        if qubits is not None:
            key = f"{s.name}.qubits_max"
            if key in m:
                m[key] = max(m[key], qubits)
            add(f"{s.name}.amp_mb", AMP_BYTES * 2.0 ** qubits / MIB)
        if "nonzero" in s.attrs:
            nonzero += s.attrs["nonzero"]
            allocated += 1 << qubits
        if "product" in s.attrs:
            reports += 1
            products += s.attrs["product"]
        if s.name == "exprparser.evaluate" and s.error == "ResourceLimitError":
            m["exprparser.evaluate.refused"] += 1
            m["exprparser.evaluate.refused_s"] += s.end - s.start
    m["qfs.nonzero_amp_frac"] = nonzero / allocated if allocated else 0.0
    m["analysis.product_frac"] = products / reports if reports else 0.0
    return m

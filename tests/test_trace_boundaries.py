"""The benchmark's traced replay wraps names the program imports across its
modules; these tests keep those names in place and the replay faithful."""

import ast
import importlib
import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

from qfuzzy.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return _load(monkeypatch, "tracing")


@pytest.fixture
def workloads(monkeypatch):
    return _load(monkeypatch, "workloads")


def test_trace_boundaries_resolve(tracing):
    for module_name, attr, _, _ in tracing._boundaries():
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)


def test_trace_boundaries_are_called(tracing):
    """A wrapped name that its module imports must also be read in that
    module's code: one kept importable only so that the replay resolves
    would leave its per-layer row reading 0."""
    names = {}
    for module_name, attr, _, _ in tracing._boundaries():
        module = importlib.import_module(module_name)
        if getattr(module, attr).__module__ == module_name:
            continue  # defined there, so the caller is another module
        if module_name not in names:
            nodes = list(ast.walk(ast.parse(inspect.getsource(module))))
            names[module_name] = (
                {
                    alias.asname or alias.name
                    for node in nodes
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names
                },
                {
                    node.id
                    for node in nodes
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                },
            )
        imported, read = names[module_name]
        assert attr in imported, (module_name, attr)
        assert attr in read, (module_name, attr)


def test_replay_records_gate_spans_and_cli_bytes(tracing, tmp_path, capsys):
    spec = {
        "universe_size": 2,
        "sets": {"A": [0.5, 0.3]},
        "expression": "SUPERPOSE(1.0 * A) AND FUZ(1, 0)",
        "mode": "quantum",
        "seed": 1,
        "trials": 10,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["eval", "--input", str(path)]
    recorder, results = tracing.replay([argv])
    names = {span.name for span in recorder.spans}
    assert {"qfs.qand", "qfs.fuz_isometry", "qfs.encode"} <= names
    capsys.readouterr()
    code = main(argv)
    assert results == [(code, capsys.readouterr().out.encode("utf-8"))]
    assert code == 0


def test_replay_of_superpose_free_defuz_has_no_register_spans(tracing, tmp_path, capsys):
    spec = {
        "universe_size": 3,
        "sets": {"A": [0.5, 0.3, 1.0], "B": [0.0, 0.9, 0.4]},
        "expression": "DEFUZ(A AND B)",
        "mode": "quantum",
        "seed": 2,
        "trials": 100,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["eval", "--input", str(path)]
    recorder, results = tracing.replay([argv])
    names = {span.name for span in recorder.spans}
    assert "exprparser.evaluate" in names
    assert not names & {"qfs.qand", "qfs.encode", "qfs.defuzzify"}
    capsys.readouterr()
    code = main(argv)
    assert results == [(code, capsys.readouterr().out.encode("utf-8"))]
    assert code == 0


def test_replay_of_superpose_free_eval_has_no_register_spans(tracing, tmp_path, capsys):
    spec = {
        "universe_size": 3,
        "sets": {"A": [0.5, 0.3, 1.0], "B": [0.0, 0.9, 0.4]},
        "expression": "(A AND FUZ(1, 0)) OR NOT B",
        "mode": "quantum",
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["eval", "--input", str(path)]
    recorder, results = tracing.replay([argv])
    names = {span.name for span in recorder.spans}
    assert "exprparser.evaluate" in names
    assert "serialize.dumps" in names
    assert not {n for n in names if n.startswith("qfs.")}
    assert "analysis.entanglement_report" not in names
    capsys.readouterr()
    code = main(argv)
    assert results == [(code, capsys.readouterr().out.encode("utf-8"))]
    assert code == 0


@pytest.mark.parametrize("workload", ["quantum-defuz", "quantum-state", "classical"])
def test_every_parsed_expression_is_evaluated_in_a_traced_call(
    tracing, workloads, tmp_path, workload
):
    argvs = []
    for i, spec in enumerate(workloads.generate(workload, 1, cycles=1)):
        path = tmp_path / f"spec{i:03d}.json"
        path.write_text(spec["input"], encoding="utf-8")
        argvs.append([spec["cmd"], "--input", str(path), *spec["args"]])
    recorder, _ = tracing.replay(argvs)
    parsed = [s for s in recorder.spans if s.name == "exprparser.parse" and s.error is None]
    evaluated = [s for s in recorder.spans if s.name == "exprparser.evaluate"]
    assert parsed
    assert len(evaluated) == len(parsed)


def test_over_cap_superpose_free_eval_is_a_traced_refusal(tracing, tmp_path):
    spec = {
        "universe_size": 3,
        "sets": {"A": [0.5, 0.3, 1.0], "B": [0.0, 0.9, 0.4]},
        "expression": "(A AND B) OR NOT A",
        "mode": "quantum",
        "qubit_cap": 8,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    recorder, results = tracing.replay([["eval", "--input", str(path)]])
    assert results == [(3, b"")]
    assert tracing.layer_metrics(recorder.spans)["exprparser.evaluate.refused"] == 1

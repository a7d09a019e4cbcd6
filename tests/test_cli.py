import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import peak_bytes, perfbench_workloads

import qfuzzy
from qfuzzy import serialize
from qfuzzy.analysis import column_report
from qfuzzy.cli import _quantum_payload, main
from qfuzzy.exprparser import Environment, _born_weights, eval_classical, evaluate, parse
from qfuzzy.fuzzy import MAX_ENUM_UNIVERSE, FuzzySet, com_law, com_pushforward
from qfuzzy.qfs import column_marginals


def run_cli(capsys, monkeypatch, argv, stdin=""):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_spec(**overrides):
    spec = {
        "universe_size": 1,
        "sets": {"A": [0.5], "B": [0.5]},
        "expression": "A AND B",
        "mode": "classical",
        "seed": 42,
        "trials": 1000,
    }
    spec.update(overrides)
    return json.dumps(spec)


# --- encode -------------------------------------------------------------------


def test_encode_crisp_set(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["encode"], '{"universe_size": 2, "memberships": [1, 0]}'
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["layout"] == [["value", 1, 2]]
    amps = payload["amplitudes"]
    assert amps[0b10] == [1, 0]
    assert sum(abs(re) + abs(im) for re, im in amps) == 1


def test_encode_uniform(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["encode"], '{"universe_size": 2, "memberships": [0.5, 0.5]}'
    )
    assert code == 0
    amps = json.loads(out)["amplitudes"]
    assert all(re == pytest.approx(0.5) and im == 0 for re, im in amps)


def test_encode_rejects_bad_membership(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, monkeypatch, ["encode"], '{"universe_size": 1, "memberships": [1.5]}'
    )
    assert code == 2
    assert "[0, 1]" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"universe_size": 2, "memberships": ["0.25", False]}, "JSON numbers"),
        ({"universe_size": 2, "memberships": [{}, 0.5]}, "JSON numbers"),
        ({"universe_size": 2.0, "memberships": [0.25, 0.5]}, "universe_size"),
        ({"universe_size": True, "memberships": [0.25]}, "universe_size"),
    ],
)
def test_encode_rejects_non_number_fields(capsys, monkeypatch, doc, message):
    code, out, err = run_cli(capsys, monkeypatch, ["encode"], json.dumps(doc))
    assert code == 2
    assert out == ""
    assert message in err


def test_encode_rejects_malformed_json(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["encode"], "{not json")
    assert code == 2
    assert "malformed JSON" in err


@pytest.mark.parametrize("command", ["encode", "eval", "report", "sample"])
def test_deeply_nested_json_is_an_input_error(capsys, monkeypatch, command):
    doc = "[" * 100_000 + "]" * 100_000
    code, out, err = run_cli(capsys, monkeypatch, [command], doc)
    assert (code, out) == (2, "")
    assert err == "error: malformed JSON: nested too deeply\n"


def test_encode_respects_cap(capsys, monkeypatch):
    payload = json.dumps({"universe_size": 25, "memberships": [0.5] * 25})
    code, _, err = run_cli(capsys, monkeypatch, ["encode"], payload)
    assert code == 3
    assert "cap of 24" in err


# --- eval ----------------------------------------------------------------------


def test_eval_classical_intersection(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, monkeypatch, ["eval"], eval_spec())
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "classical"
    assert payload["memberships"] == pytest.approx([0.25])


def test_eval_quantum_matches_classical(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["eval"], eval_spec(mode="quantum", seed=42)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "quantum"
    assert payload["value_marginals"] == pytest.approx([0.25], abs=1e-10)
    assert payload["entanglement"]["per_qubit_schmidt_ranks"] == [2, 2, 2]


def test_eval_classical_defuz(capsys, monkeypatch):
    spec = eval_spec(
        universe_size=2,
        sets={"A": [0.5, 0.5]},
        expression="DEFUZ(A)",
    )
    code, out, _ = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 0
    dist = json.loads(out)["distribution"]
    assert dist == pytest.approx({"0": 0.25, "1": 0.5, "2": 0.25})


def test_eval_classical_defuz_refuses_large_universe(capsys, monkeypatch):
    spec = eval_spec(universe_size=21, sets={"A": [0.5] * 21}, expression="DEFUZ(A)")
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 2
    assert out == ""
    assert "exceeds the classical DEFUZ limit of 20" in err


def test_eval_quantum_defuz_counts(capsys, monkeypatch):
    spec = eval_spec(
        universe_size=2,
        sets={"A": [1, 0]},
        expression="DEFUZ(A)",
        mode="quantum",
        trials=123,
    )
    code, out, _ = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == {"1": 123}
    assert payload["trials"] == 123


@pytest.mark.parametrize(
    "spec_trials, argv",
    [(2**63, ["eval"]), (123, ["eval", "--trials", "99999999999999999999"])],
)
def test_eval_rejects_trials_beyond_int64(capsys, monkeypatch, spec_trials, argv):
    spec = eval_spec(expression="DEFUZ(A)", mode="quantum", trials=spec_trials)
    code, out, err = run_cli(capsys, monkeypatch, argv, spec)
    assert code == 2
    assert out == ""
    assert "trials must be <= 9223372036854775807" in err


@pytest.mark.parametrize("expression", [None, True])
def test_eval_rejects_non_string_expression(capsys, monkeypatch, expression):
    spec = eval_spec(sets={"A": [0.5], "B": [0.5], "None": [0.5], "True": [0.5]})
    spec = json.dumps({**json.loads(spec), "expression": expression})
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 2
    assert out == ""
    assert "expression must be a JSON string" in err


def test_eval_unbound_identifier(capsys, monkeypatch):
    spec = eval_spec(expression="A AND C")
    code, _, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 4
    assert "unbound identifier 'C' at 1:7" in err


def test_eval_syntax_error_position(capsys, monkeypatch):
    spec = eval_spec(expression="A AND")
    code, _, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 4
    assert "expected expression, found end of input" in err


def test_eval_superpose_classical_rejected(capsys, monkeypatch):
    spec = eval_spec(expression="SUPERPOSE(1.0 * A)")
    code, _, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 4
    assert "not available in classical mode" in err


def test_eval_quantum_fuz_radius_beyond_universe(capsys, monkeypatch):
    outputs = []
    for k in (2, 99999999999999999999):
        spec = eval_spec(
            universe_size=3,
            sets={"A": [0.5, 0.3, 0.2]},
            expression=f"FUZ(2, {k})",
            mode="quantum",
        )
        code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "expression, message",
    [
        ("SUPERPOSE(1e160 * A)", "superposition norm overflows"),
        ("SUPERPOSE(1e300 * A, 1e300 * A)", "superposition norm overflows"),
        ("SUPERPOSE(1e400 * A)", "superposition coefficient must be finite, got inf"),
    ],
)
def test_eval_superpose_overflow_refused(capsys, monkeypatch, expression, message):
    spec = eval_spec(
        universe_size=2, sets={"A": [0.5, 0.3]}, expression=expression, mode="quantum"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + message)
    assert err.count("\n") == 1
    assert not caught


@pytest.mark.parametrize(
    "small, unit",
    [
        ("SUPERPOSE(1e-11 * A)", "SUPERPOSE(1 * A)"),
        ("SUPERPOSE(3e-12 * A, 4e-12 * B)", "SUPERPOSE(3 * A, 4 * B)"),
        ("SUPERPOSE(1e-200 * A)", "SUPERPOSE(1 * A)"),
    ],
)
def test_eval_superpose_small_coefficients_renormalize(capsys, monkeypatch, small, unit):
    marginals = []
    for expression in (small, unit):
        spec = eval_spec(
            universe_size=2,
            sets={"A": [0.5, 0.3], "B": [0.2, 0.9]},
            expression=expression,
            mode="quantum",
        )
        code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
        assert (code, err) == (0, "")
        marginals.append(json.loads(out)["value_marginals"])
    np.testing.assert_allclose(marginals[0], marginals[1], rtol=0, atol=1e-12)


def test_eval_superpose_of_zero_cancels(capsys, monkeypatch):
    spec = eval_spec(
        universe_size=2, sets={"A": [0.5, 0.3]}, expression="SUPERPOSE(0 * A)",
        mode="quantum",
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: superposition cancelled completely")
    assert not caught


def test_eval_cap_exceeded(capsys, monkeypatch):
    spec = eval_spec(mode="quantum", qubit_cap=2)
    code, _, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 3
    assert "register of 3 qubits exceeds the cap of 2" in err


def test_eval_refuses_over_cap_tree_before_building_a_register(capsys, monkeypatch):
    import qfuzzy.exprparser

    def unreachable(*args, **kwargs):
        raise AssertionError("a register was built")

    monkeypatch.setattr(qfuzzy.exprparser, "qand", unreachable)
    monkeypatch.setattr(qfuzzy.exprparser, "encode", unreachable)
    spec = eval_spec(
        universe_size=4,
        sets={name: [0.5] * 4 for name in "ABC"},
        expression="DEFUZ(((A AND B) OR C) AND A)",
        mode="quantum",
    )
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert (code, out) == (3, "")
    assert err == "error: register of 32 qubits exceeds the cap of 24 qubits\n"


def test_eval_superpose_fuz_leaf_fits_a_cap_of_one_segment(capsys, monkeypatch):
    spec = eval_spec(
        universe_size=3,
        sets={"A": [0.5] * 3},
        expression="SUPERPOSE(1.0 * FUZ(2, 0))",
        mode="quantum",
        qubit_cap=3,
    )
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert (code, err) == (0, "")
    assert json.loads(out)["total_qubits"] == 3


@pytest.mark.parametrize(
    "expression, exit_code, message",
    [
        ("(A AND A) AND C", 4, "unbound identifier 'C' at 1:15"),
        (
            "SUPERPOSE(1.0 * A, -1.0 * A) AND A",
            3,
            "register of 6 qubits exceeds the cap of 4 qubits",
        ),
    ],
)
def test_eval_fault_precedence(capsys, monkeypatch, expression, exit_code, message):
    spec = eval_spec(
        universe_size=2,
        sets={"A": [0.5, 0.3]},
        expression=expression,
        mode="quantum",
        qubit_cap=4,
    )
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert (code, out) == (exit_code, "")
    assert err == f"error: {message}\n"


def library_payload(expression, mode):
    """The stdout of ``eval`` on ``eval_spec(expression=..., mode=...)``,
    built from the library's own evaluation of the same tree."""
    sets = {name: FuzzySet(m) for name, m in json.loads(eval_spec())["sets"].items()}
    env = Environment(1, sets, mode=mode, seed=42, trials=1000)
    result = evaluate(parse(expression), env)
    if mode == "classical":
        payload = {
            "mode": "classical",
            "universe_size": result.universe_size,
            "memberships": list(result.memberships),
        }
    else:
        payload = _quantum_payload(
            result.dense_layout(), column_report(result), column_marginals(result)
        )
    return serialize.dumps(payload) + "\n"


RIGHT_NESTED = "A AND (" * 3000 + "A" + ")" * 3000
DEFUZ_NESTED = "DEFUZ(" * 3000 + "A" + ")" * 3000
SUPERPOSE_NESTED = "SUPERPOSE(1.0 * " * 3000 + "A" + ")" * 3000


@pytest.mark.parametrize(
    "expression, mode, exit_code, message",
    [
        ("(" * 300 + "A" + ")" * 300, "classical", 0, None),
        ("NOT " * 990 + "A", "classical", 0, None),
        ("NOT " * 3000 + "A", "classical", 0, None),
        ("NOT " * 3000 + "A", "quantum", 0, None),
        ("(" * 3000 + "A" + ")" * 3000, "classical", 0, None),
        ("(" * 3000 + "A" + ")" * 3000, "quantum", 0, None),
        (RIGHT_NESTED, "classical", 0, None),
        (RIGHT_NESTED, "quantum", 3,
         "register of 6001 qubits exceeds the cap of 24 qubits"),
        (DEFUZ_NESTED, "classical", 4, "DEFUZ is only allowed at the top level at 1:7"),
        (DEFUZ_NESTED, "quantum", 4, "DEFUZ is only allowed at the top level at 1:7"),
        (SUPERPOSE_NESTED, "classical", 4,
         "SUPERPOSE is not available in classical mode at 1:1"),
        (SUPERPOSE_NESTED, "quantum", 4,
         "SUPERPOSE terms must be identifiers or FUZ leaves at 1:17"),
    ],
    ids=[
        "parentheses", "not", "not-3000-classical", "not-3000-quantum",
        "parentheses-3000-classical", "parentheses-3000-quantum",
        "right-nested-3000-classical", "right-nested-3000-quantum",
        "defuz-3000-classical", "defuz-3000-quantum",
        "superpose-3000-classical", "superpose-3000-quantum",
    ],
)
def test_eval_deeply_nested_expression(
    capsys, monkeypatch, expression, mode, exit_code, message
):
    # no nesting costs the parser or a walker a Python frame, so a deep
    # expression succeeds or fails as a shallow one of its shape does
    spec = eval_spec(expression=expression, mode=mode)
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    if exit_code == 0:
        assert (code, err) == (0, "")
        assert out == library_payload(expression, mode)
    else:
        assert (code, out) == (exit_code, "")
        assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "connective, membership", [("AND", 0.5**990), ("OR", 1.0)], ids=["and", "or"]
)
def test_eval_long_flat_chain(capsys, monkeypatch, connective, membership):
    # a flat chain is a left-deep tree: plan and the evaluator walk it in a loop
    spec = eval_spec(expression=f" {connective} ".join(["A"] * 990))
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert (code, err) == (0, "")
    assert json.loads(out)["memberships"] == [membership]


def test_eval_long_flat_chain_quantum_defuz(capsys, monkeypatch):
    # 990 identifiers, 989 ANDs and the DEFUZ ancilla at N=1: 1980 qubits
    expression = "DEFUZ(" + " AND ".join(["A"] * 990) + ")"
    spec = eval_spec(expression=expression, mode="quantum", qubit_cap=1980)
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert (code, err) == (0, "")
    assert json.loads(out)["counts"] == {"0": 1000}


@pytest.mark.parametrize(
    "message, shown",
    [
        ("Unable to allocate 1.00 TiB", "Unable to allocate 1.00 TiB"),
        ("", "allocation failed"),
    ],
)
def test_eval_out_of_memory_is_a_resource_error(capsys, monkeypatch, message, shown):
    import qfuzzy.exprparser

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    # the register's AND and, for this SUPERPOSE-free expression, the columns'
    monkeypatch.setattr(qfuzzy.exprparser, "qand", exhausted)
    monkeypatch.setattr(qfuzzy.exprparser, "column_and", exhausted)
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], eval_spec(mode="quantum"))
    assert (code, out) == (3, "")
    assert err == f"error: out of memory: {shown}\n"


def test_eval_missing_field(capsys, monkeypatch):
    for document, field in [
        ('{"universe_size": 1}', "sets"),
        # every field is looked for before any is checked
        ('{"universe_size": 0, "sets": 1}', "expression"),
        ('{"sets": 1, "expression": 1}', "universe_size"),
    ]:
        code, out, err = run_cli(capsys, monkeypatch, ["eval"], document)
        assert (code, out) == (2, "")
        assert err == f"error: pipeline spec is missing the {field!r} field\n"


@pytest.mark.parametrize(
    "field, value",
    [("universe_size", 2.7), ("seed", True), ("qubit_cap", -5)],
)
def test_eval_rejects_non_integer_spec_fields(capsys, monkeypatch, field, value):
    spec = eval_spec(universe_size=2, sets={"A": [0.5, 0.5], "B": [0.5, 0.5]})
    spec = json.dumps({**json.loads(spec), field: value})
    code, _, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 2
    assert field in err


def test_eval_rejects_non_number_memberships(capsys, monkeypatch):
    spec = eval_spec(universe_size=2, sets={"A": ["0.5", True], "B": [0.5, 0.5]})
    code, out, err = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 2
    assert out == ""
    assert "set 'A' must be an array of JSON numbers" in err


def test_internal_type_error_is_not_an_input_error(capsys, monkeypatch):
    import qfuzzy.cli

    def broken(args):
        raise TypeError("an internal bug")

    monkeypatch.setattr(qfuzzy.cli, "_cmd_eval", broken)
    with pytest.raises(TypeError, match="an internal bug"):
        run_cli(capsys, monkeypatch, ["eval"], eval_spec())


def test_eval_flag_overrides_mode(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, monkeypatch, ["eval", "--mode", "quantum"], eval_spec(mode="classical")
    )
    assert code == 0
    assert json.loads(out)["mode"] == "quantum"


def test_eval_deterministic_bytes(capsys, monkeypatch):
    spec = eval_spec(
        universe_size=2,
        sets={"A": [0.3, 0.9]},
        expression="DEFUZ(NOT A)",
        mode="quantum",
        seed=11,
        trials=5000,
    )
    _, out1, _ = run_cli(capsys, monkeypatch, ["eval"], spec)
    _, out2, _ = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert out1 == out2


# --- report --------------------------------------------------------------------


def encoded_state_json(capsys, monkeypatch, memberships):
    payload = json.dumps(
        {"universe_size": len(memberships), "memberships": memberships}
    )
    code, out, _ = run_cli(capsys, monkeypatch, ["encode"], payload)
    assert code == 0
    return out


def test_report_round_trip(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [0.3, 0.7])
    code, out, _ = run_cli(capsys, monkeypatch, ["report"], state)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_product"] is True
    assert payload["canonical_fuzzy_set"]["memberships"] == pytest.approx([0.3, 0.7])
    assert payload["phases"] == [0, 0]


def test_report_bell_state(capsys, monkeypatch):
    r = math.sqrt(0.5)
    state = json.dumps(
        {
            "layout": [["value", 1, 2]],
            "universe_size": 2,
            "amplitudes": [[0, 0], [r, 0], [r, 0], [0, 0]],
        }
    )
    code, out, _ = run_cli(capsys, monkeypatch, ["report"], state)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_product"] is False
    assert payload["per_qubit_schmidt_ranks"] == [2, 2]
    assert payload["canonical_fuzzy_set"] is None
    assert payload["bloch_points"] is None


def test_report_near_product_state(capsys, monkeypatch):
    # singular values 1 and 5e-9: below the rank cutoff, so a product, though
    # the best product state is 5e-9 away from the input
    state = json.dumps(
        {
            "layout": [["value", 1, 2]],
            "universe_size": 2,
            "amplitudes": [[1, 0], [0, 0], [0, 0], [5e-9, 0]],
        }
    )
    code, out, _ = run_cli(capsys, monkeypatch, ["report"], state)
    assert code == 0
    payload = json.loads(out)
    assert payload["per_qubit_schmidt_ranks"] == [1, 1]
    assert payload["is_product"] is True
    assert payload["canonical_fuzzy_set"]["memberships"] == pytest.approx([0, 0])


def test_report_bloch_point_on_equator(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [0.5])
    code, out, _ = run_cli(capsys, monkeypatch, ["report"], state)
    assert code == 0
    (point,) = json.loads(out)["bloch_points"]
    assert point == pytest.approx([1, 0, 0], abs=1e-10)


def test_report_rejects_malformed_state(capsys, monkeypatch):
    code, _, err = run_cli(capsys, monkeypatch, ["report"], '{"layout": []}')
    assert code == 2


def two_qubit_state(layout=None, amplitudes=None):
    return json.dumps(
        {
            "layout": layout or [["value", 1, 2]],
            "universe_size": 2,
            "amplitudes": amplitudes or [[0.5, 0]] * 4,
        }
    )


@pytest.mark.parametrize(
    "command, row",
    [("report", ["value", 1.9, 2.7]), ("sample", ["value", True, 2])],
)
def test_state_commands_reject_non_integer_layout(capsys, monkeypatch, command, row):
    code, out, err = run_cli(capsys, monkeypatch, [command], two_qubit_state([row]))
    assert code == 2
    assert out == ""
    assert "layout start must be an integer" in err


@pytest.mark.parametrize(
    "name, quoted", [(None, "null"), (7, "7"), (["x"], "an array of size 1")]
)
@pytest.mark.parametrize("command", ["report", "sample"])
def test_state_commands_reject_non_string_segment_name(
    capsys, monkeypatch, command, name, quoted
):
    state = json.dumps(
        {
            "layout": [[name, 1, 1], ["value", 2, 2]],
            "universe_size": 2,
            "amplitudes": [[0.5**1.5, 0]] * 8,
        }
    )
    code, out, err = run_cli(capsys, monkeypatch, [command], state)
    assert code == 2
    assert out == ""
    assert f"layout segment names must be strings, got {quoted}" in err


@pytest.mark.parametrize("pair", [["1", 0], [0, False]])
def test_report_rejects_non_number_amplitudes(capsys, monkeypatch, pair):
    state = two_qubit_state(amplitudes=[pair] + [[0.5, 0]] * 3)
    code, out, err = run_cli(capsys, monkeypatch, ["report"], state)
    assert code == 2
    assert out == ""
    assert "pairs of JSON numbers" in err


@pytest.mark.parametrize(
    "command, document, message",
    [
        ("encode", "[0.5]", "fuzzy set must be a JSON object, got list"),
        ("report", "[1]", "state must be a JSON object, got list"),
        ("sample", '"x"', "state must be a JSON object, got str"),
        (
            "report",
            json.dumps({**json.loads(two_qubit_state()), "layout": {}}),
            "layout must be an array of [name, start, length] rows",
        ),
        (
            "report",
            two_qubit_state(amplitudes={"a": 1}),
            "amplitudes must be an array of [re, im] pairs",
        ),
        ("eval", "[1, 2]", "pipeline spec must be a JSON object, got list"),
        (
            "eval",
            eval_spec(sets=[]),
            "sets must be an object mapping names to membership arrays",
        ),
    ],
    ids=["encode-list", "report-list", "sample-str", "layout", "amplitudes",
         "eval-list", "sets"],
)
def test_input_of_the_wrong_shape_is_refused(
    capsys, monkeypatch, command, document, message
):
    code, out, err = run_cli(capsys, monkeypatch, [command], document)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


HUGE_INTEGER = "1" * 400  # json.loads keeps it an int, too large for a float


@pytest.mark.parametrize(
    "command, document, message",
    [
        (
            "encode",
            f'{{"universe_size": 1, "memberships": [{HUGE_INTEGER}]}}',
            "memberships must be finite",
        ),
        (
            "eval",
            eval_spec().replace('"A": [0.5]', f'"A": [{HUGE_INTEGER}]'),
            "set 'A' must be finite",
        ),
        (
            "report",
            two_qubit_state().replace("0.5", HUGE_INTEGER, 1),
            "amplitudes must be finite",
        ),
    ],
    ids=["encode", "eval", "report"],
)
def test_integer_too_large_for_a_float_is_refused(
    capsys, monkeypatch, command, document, message
):
    code, out, err = run_cli(capsys, monkeypatch, [command], document)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


LONG_ARRAY = list(range(20000))
LONG_NAME = "N" * 5000
HUGE_UNIVERSE = {"universe_size": int("1" * 4001), "mode": "quantum"}


@pytest.mark.parametrize(
    "command, document, exit_code",
    [
        ("eval", eval_spec(seed=LONG_ARRAY), 2),
        ("eval", eval_spec(universe_size="1" * 20000), 2),
        ("eval", eval_spec(mode=LONG_ARRAY), 2),
        ("eval", eval_spec(sets={"A" * 20000: "0.5"}), 2),
        ("eval", eval_spec().replace('"A AND B"', "[" * 900 + "]" * 900), 2),
        ("eval", eval_spec(expression="A AND " + "C" * 20000), 4),
        ("report", two_qubit_state([LONG_ARRAY]), 2),
        ("eval", eval_spec(expression="A " + "B" * 5000), 4),
        ("eval", eval_spec(expression="FUZ(" + "1" * 3000 + ", 1)"), 4),
        ("report", two_qubit_state([[LONG_NAME, 5, 1], ["value", 1, 2]]), 2),
        ("report", two_qubit_state([[LONG_NAME, 1, 1], [LONG_NAME, 2, 1]]), 2),
        ("eval", eval_spec(**HUGE_UNIVERSE, sets={}, expression="FUZ(1, 0)"), 3),
        ("eval", eval_spec(expression="FUZ(1, " + "1" * 5000 + ")"), 4),
        ("eval", eval_spec(**HUGE_UNIVERSE), 2),
    ],
    ids=[
        "seed", "universe_size", "mode", "set_name", "expression", "identifier",
        "layout_row", "token", "fuz_index", "segment_place", "segment_twice",
        "planned_qubits", "integer_literal", "set_size",
    ],
)
def test_rejected_value_is_not_echoed_whole(
    capsys, monkeypatch, command, document, exit_code
):
    code, out, err = run_cli(capsys, monkeypatch, [command], document)
    assert code == exit_code
    assert out == ""
    assert err.count("\n") == 1 and len(err.encode()) < 200


@pytest.mark.parametrize("flag", ["--qubit-cap", "--seed", "--trials"])
@pytest.mark.parametrize(
    "value", ["9" * 5000, "-" + "9" * 3000], ids=["long", "long_negative"]
)
def test_flag_value_is_not_echoed_whole(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["eval", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.encode()) < 400
    assert not re.search(r"\d{40}", captured.err)


# --- sample --------------------------------------------------------------------


def test_sample_crisp_state(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [1, 0])
    code, out, _ = run_cli(
        capsys, monkeypatch, ["sample", "--shots", "50", "--seed", "1"], state
    )
    assert code == 0
    assert json.loads(out) == {"shots": 50, "counts": {"10": 50}}


def test_sample_binomial_bound(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [0.5])
    code, out, _ = run_cli(
        capsys, monkeypatch, ["sample", "--shots", "100000", "--seed", "7"], state
    )
    assert code == 0
    counts = json.loads(out)["counts"]
    sigma = math.sqrt(100_000 * 0.25)
    assert abs(counts["1"] - 50_000) <= 3 * sigma


def test_sample_rejects_zero_shots(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [0.5])
    code, _, err = run_cli(capsys, monkeypatch, ["sample", "--shots", "0"], state)
    assert code == 2
    assert "shots must be >= 1" in err


def test_sample_rejects_shots_beyond_int64(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [0.5])
    argv = ["sample", "--shots", "99999999999999999999"]
    code, out, err = run_cli(capsys, monkeypatch, argv, state)
    assert code == 2
    assert out == ""
    assert "shots must be <= 9223372036854775807" in err


def test_sample_accepts_largest_shots(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [1.0])
    argv = ["sample", "--shots", str(2**63 - 1)]
    code, out, _ = run_cli(capsys, monkeypatch, argv, state)
    assert code == 0
    assert json.loads(out) == {"shots": 2**63 - 1, "counts": {"1": 2**63 - 1}}


def test_sample_deterministic(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [0.3, 0.6])
    _, out1, _ = run_cli(capsys, monkeypatch, ["sample", "--seed", "9"], state)
    _, out2, _ = run_cli(capsys, monkeypatch, ["sample", "--seed", "9"], state)
    assert out1 == out2


def test_sample_accepts_trials_alias(capsys, monkeypatch):
    state = encoded_state_json(capsys, monkeypatch, [1.0])
    code, out, _ = run_cli(capsys, monkeypatch, ["sample", "--trials", "7"], state)
    assert code == 0
    assert json.loads(out) == {"shots": 7, "counts": {"1": 7}}


@pytest.mark.parametrize("command", ["report", "sample"])
def test_state_commands_respect_cap(capsys, monkeypatch, command):
    state = encoded_state_json(capsys, monkeypatch, [0.5, 0.2, 0.9])
    code, out, err = run_cli(capsys, monkeypatch, [command, "--qubit-cap", "1"], state)
    assert code == 3
    assert out == ""
    assert "3 qubits exceeds the cap of 1" in err


# --- files ----------------------------------------------------------------------


def test_input_and_output_paths(tmp_path, capsys, monkeypatch):
    src = tmp_path / "set.json"
    dst = tmp_path / "state.json"
    src.write_text('{"universe_size": 1, "memberships": [0.25]}')
    code = main(["encode", "--input", str(src), "--output", str(dst)])
    assert code == 0
    payload = json.loads(dst.read_text())
    assert payload["amplitudes"][1][0] == pytest.approx(0.5)


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (
            ["encode"],
            json.dumps(
                {"universe_size": 15, "memberships": [(i % 9) / 9 + 0.05 for i in range(15)]}
            ),
        ),
        (
            ["eval"],
            eval_spec(
                universe_size=2,
                sets={"A": [0.3, 0.9], "B": [0.6, 0.2]},
                expression="NOT A OR B",
                mode="quantum",
            ),
        ),
    ],
    ids=["encode_15", "quantum_eval"],
)
def test_output_file_gets_the_bytes_of_stdout(tmp_path, capsys, monkeypatch, argv, stdin):
    """``--output`` writes exactly what stdout gets, the newline included,
    for a state written in several slices and for a quantum eval."""
    code, out, _ = run_cli(capsys, monkeypatch, argv, stdin)
    dst = tmp_path / "out.json"
    assert run_cli(capsys, monkeypatch, [*argv, "--output", str(dst)], stdin) == (0, "", "")
    assert code == 0 and out.endswith("}\n")
    assert dst.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_unwritable_output_path_is_an_input_error(tmp_path, capsys, monkeypatch, target):
    """A missing directory or a directory as the path: one error line and
    exit 2, not a traceback."""
    argv = ["eval", "--output", str(tmp_path / target)]
    code, out, err = run_cli(capsys, monkeypatch, argv, eval_spec())
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_input_file(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, monkeypatch, ["encode", "--input", "/no/such/file.json"]
    )
    assert code == 2


def test_report_requires_value_segment(capsys, monkeypatch):
    state = json.dumps(
        {
            "layout": [["data", 1, 1]],
            "universe_size": 1,
            "amplitudes": [[1, 0], [0, 0]],
        }
    )
    code, _, err = run_cli(capsys, monkeypatch, ["report"], state)
    assert code == 2


def test_eval_quantum_product_result_includes_canonical_set(capsys, monkeypatch):
    spec = eval_spec(expression="NOT A", mode="quantum")
    code, out, _ = run_cli(capsys, monkeypatch, ["eval"], spec)
    assert code == 0
    ent = json.loads(out)["entanglement"]
    assert ent["is_product"] is True
    assert ent["canonical_fuzzy_set"]["memberships"] == pytest.approx([0.5])


def test_report_accepts_hand_rounded_state(capsys, monkeypatch):
    amp = 0.50000003
    state = json.dumps(
        {
            "layout": [["value", 1, 2]],
            "universe_size": 2,
            "amplitudes": [[amp, 0]] * 4,
        }
    )
    code, out, _ = run_cli(capsys, monkeypatch, ["report"], state)
    assert code == 0
    payload = json.loads(out)
    assert payload["is_product"] is True
    assert payload["canonical_fuzzy_set"]["memberships"] == pytest.approx([0.5, 0.5])


# --- quantum eval as columns ------------------------------------------------------


def test_superpose_free_eval_peak_memory(tmp_path, capsys):
    """NOT A at N=20 reports from 20 two-amplitude columns; a register would
    be 2^20 amplitudes, 16 MiB."""
    spec = eval_spec(
        universe_size=20,
        sets={"A": [0.05 * i for i in range(20)]},
        expression="NOT A",
        mode="quantum",
    )
    path = tmp_path / "spec.json"
    path.write_text(spec)
    peak = peak_bytes(main, ["eval", "--input", str(path)])
    out = capsys.readouterr().out
    assert json.loads(out)["total_qubits"] == 20
    assert peak < 2 * 2**20


def test_superpose_free_eval_past_any_register(tmp_path, capsys):
    """768 logical qubits: a register would hold 2^768 amplitudes."""
    rng = np.random.default_rng(17)
    n = 64
    sets = {name: rng.random(n) for name in "ABCDE"}
    for m in sets.values():
        m[rng.random(n) < 0.3] = 1.0
    expression = "((A AND B) OR (C AND NOT D)) AND (FUZ(3, 2) OR E)"
    spec = eval_spec(
        universe_size=n,
        sets={k: m.tolist() for k, m in sets.items()},
        expression=expression,
        mode="quantum",
    )
    path = tmp_path / "spec.json"
    path.write_text(spec)
    code = main(["eval", "--input", str(path), "--qubit-cap", "1024"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["total_qubits"] == 768
    assert len(payload["entanglement"]["per_qubit_schmidt_ranks"]) == 768
    env = Environment(n, {k: FuzzySet(m) for k, m in sets.items()})
    classical = eval_classical(parse(expression), env).memberships
    np.testing.assert_allclose(
        payload["value_marginals"], classical, rtol=0, atol=1e-12
    )


# --- start-up -----------------------------------------------------------------

#: Imports qfuzzy, runs ``main`` on its arguments if there are any, and ends
#: stderr with the exit code and whether numpy was executed.
_NUMPY_PROBE = """
import sys
import qfuzzy
code = None
if sys.argv[1:]:
    from qfuzzy.cli import main
    code = main(sys.argv[1:])
print(code, "numpy._core" in sys.modules, file=sys.stderr)
"""


WORKLOADS = perfbench_workloads()


def _malformed(kind):
    """The first seed's malformed classical spec of this kind."""
    for seed in itertools.count():
        spec = WORKLOADS._malformed(random.Random(seed), 8)
        if spec["expect"]["malformed"] == kind:
            return ["eval"], spec["input"], spec["expect"]["exit"], False


PROBE_SETS = {"A": [0.5, 0.25, 1.0], "B": [0.0, 0.75, 0.5]}


def _probe_spec(**overrides):
    return eval_spec(universe_size=3, sets=PROBE_SETS, **overrides)


@pytest.mark.parametrize(
    "argv, stdin, exit_code, loads_numpy",
    [
        ([], "", None, False),
        (["eval"], '{"universe_size": 1, "sets": {"A": [0.5]}, "expression": "A"}', 0, False),
        (["eval"], _probe_spec(expression="NOT A AND (B OR FUZ(2, 1))"), 0, False),
        *[_malformed(kind) for kind in WORKLOADS._MALFORMED],
        (["eval"], _probe_spec(mode="quantum", qubit_cap=8), 3, False),
        (["eval"], _probe_spec(mode="quantum"), 0, True),
        (["eval"], _probe_spec(mode="quantum", expression="DEFUZ(A AND B)"), 0, True),
        (["eval"], _probe_spec(expression="DEFUZ(A OR B)"), 0, False),
        (["eval"], eval_spec(
            universe_size=MAX_ENUM_UNIVERSE,
            sets={"A": [i / MAX_ENUM_UNIVERSE for i in range(MAX_ENUM_UNIVERSE)]},
            expression="DEFUZ(NOT A)",
        ), 0, False),
    ],
    ids=[
        "import", "one_element", "connectives",
        *[f"malformed_{kind}" for kind in WORKLOADS._MALFORMED],
        "quantum_over_cap", "quantum", "quantum_defuz", "classical_defuz",
        "classical_defuz_at_limit",
    ],
)
def test_numpy_loads_only_where_arrays_are_used(argv, stdin, exit_code, loads_numpy):
    """A fresh interpreter executes numpy only for a register, a quantum
    DEFUZ law or a sample: not for an import, a classical expression (DEFUZ
    included), or a spec refused before any register is built."""
    src = Path(qfuzzy.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_PROBE, *argv],
        input=stdin,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.stderr.splitlines()[-1] == f"{exit_code} {loads_numpy}"


#: Prints both DEFUZ laws of the probe sets, then whether numpy was imported.
_LAW_PROBE = """
import sys
from qfuzzy.exprparser import Environment, _born_weights, parse
from qfuzzy.fuzzy import FuzzySet, com_law, com_pushforward
sets = {name: FuzzySet(m) for name, m in %r.items()}
env = Environment(universe_size=3, bindings=sets, mode="quantum")
ast = parse("NOT A AND (B OR FUZ(2, 1))")
print(com_law(*_born_weights(ast, env)), com_pushforward(sets["A"]))
print("numpy._core" in sys.modules)
""" % PROBE_SETS


def test_defuz_laws_need_no_numpy():
    """Both DEFUZ laws, the quantum one of a SUPERPOSE-free body's Born
    weights and the classical one, run in a fresh interpreter without
    numpy, and print what they give in this process."""
    src = Path(qfuzzy.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _LAW_PROBE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    sets = {name: FuzzySet(m) for name, m in PROBE_SETS.items()}
    env = Environment(universe_size=3, bindings=sets, mode="quantum")
    law = com_law(*_born_weights(parse("NOT A AND (B OR FUZ(2, 1))"), env))
    assert proc.stdout.splitlines() == [f"{law} {com_pushforward(sets['A'])}", "False"]

"""Tests of the benchmark itself: generator, checker, span arithmetic, tail
rule and the metric names BENCHMARK.json declares.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools
import json
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import checker
import run
import tracing
import workloads
from tracing import Span

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_files(tmp_path, workload):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = run._write_inputs(workloads.generate(workload, 7, cycles=1), tmp_path / "a")
    second = run._write_inputs(workloads.generate(workload, 7, cycles=1), tmp_path / "b")
    assert [p.read_bytes() for p in first] == [p.read_bytes() for p in second]
    other = workloads.generate(workload, 8, cycles=1)
    assert [s["input"] for s in other] != [p.read_text() for p in first]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_mix_is_the_same_for_every_seed(workload):
    assert workloads.mix(workload, 1) == workloads.mix(workload, 2)


def _classical_spec():
    return next(s for s in workloads.generate("classical", 3, cycles=1) if s["slot"] == "long")


def _classical_output(spec) -> dict:
    exp = spec["expect"]
    m = checker.memberships(exp["tree"], exp["sets"], exp["n"])
    return {"mode": "classical", "universe_size": exp["n"], "memberships": [float(x) for x in m]}


def _dump(obj) -> bytes:
    return (json.dumps(obj) + "\n").encode()


def test_checker_accepts_right_and_flags_corrupted_membership():
    spec = _classical_spec()
    out = _classical_output(spec)
    assert checker.check(spec, 0, _dump(out)) is None
    out["memberships"][3] += 1e-9
    assert "memberships" in checker.check(spec, 0, _dump(out))


def _defuz_spec_and_counts():
    spec = next(s for s in workloads.generate("quantum-defuz", 3, cycles=1)
                if s["slot"] == "d16_n4_2leaf")
    exp = spec["expect"]
    law = checker.com_distribution(checker.memberships(exp["tree"][1], exp["sets"], exp["n"]))
    counts = {str(k): int(round(p * exp["trials"])) for k, p in law.items()}
    top = max(counts, key=counts.get)
    counts[top] += exp["trials"] - sum(counts.values())
    return spec, {"mode": "quantum", "trials": exp["trials"], "counts": counts}


def test_checker_flags_wrong_count_total():
    spec, out = _defuz_spec_and_counts()
    assert checker.check(spec, 0, _dump(out)) is None
    key = next(iter(out["counts"]))
    out["counts"][key] += 1
    assert "sum to" in checker.check(spec, 0, _dump(out))


def test_checker_flags_counts_far_from_the_law():
    spec, out = _defuz_spec_and_counts()
    keys = sorted(out["counts"], key=out["counts"].get)
    moved = out["counts"][keys[-1]] // 2
    out["counts"][keys[-1]] -= moved
    out["counts"][keys[0]] += moved
    assert "TV distance" in checker.check(spec, 0, _dump(out))


def test_checker_flags_wrong_exit_code_and_output_on_refusal():
    spec = _classical_spec()
    assert "exit code 3" in checker.check(spec, 3, b"")
    refused = next(s for s in workloads.generate("quantum-defuz", 3, cycles=1)
                   if s["expect"]["exit"] == 3)
    assert checker.check(refused, 3, b"") is None
    assert "exit code 0" in checker.check(refused, 0, b"{}\n")
    assert "stdout" in checker.check(refused, 3, b"{}\n")


def test_com_distribution_matches_enumeration():
    rng = np.random.default_rng(0)
    m = rng.random(7)
    m[2] = 0.0
    want: dict[int, float] = {}
    for bits in itertools.product((0, 1), repeat=7):
        p = math.prod(mi if b else 1 - mi for mi, b in zip(m, bits))
        members = [i for i, b in enumerate(bits, start=1) if b]
        idx = sum(members) // len(members) if members else 0
        if p > 0:
            want[idx] = want.get(idx, 0.0) + p
    got = checker.com_distribution(m)
    assert got.keys() == want.keys()
    assert max(abs(got[k] - want[k]) for k in want) < 1e-15


def test_superposed_marginals_match_a_dense_sum():
    rng = np.random.default_rng(1)
    n = 5
    sets = {"A": list(rng.random(n)), "B": list(rng.random(n))}
    terms = (("0.300000", ("id", "A")), ("0.700000", ("fuz", 2, 1)))
    vec = sum(float(c) * reduce(np.kron, [np.array([math.sqrt(1 - p), math.sqrt(p)])
                                            for p in checker.memberships(t, sets, n)])
              for c, t in terms)
    probs = (vec / np.linalg.norm(vec)) ** 2
    dense = [probs.reshape([2] * n).take(1, axis=q).sum() for q in range(n)]
    assert np.allclose(checker.superposed_marginals(terms, sets, n), dense, atol=1e-14)


def test_entangled_pair_state_has_rank_two_on_the_pair():
    desc = {"n": 4, "factors": [[0.6, 0.8, 0.3], None, [1.0, 0.0, 0.0], None],
            "pair": [2, 4, 0.6, 0.8]}
    psi = workloads.build_state(desc).reshape([2] * 4)
    for q in range(4):
        s = np.linalg.svd(np.moveaxis(psi, q, 0).reshape(2, -1), compute_uv=False)
        assert int(np.sum(s > 1e-8)) == (2 if q in (1, 3) else 1)


def _span(name, parent, start, end, cover_end=None):
    return Span(name, parent, start, end, end if cover_end is None else cover_end)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0, cover_end=4.5),  # 0.5 s of recorder bookkeeping
        _span("b", 0, 5.0, 7.0),
        _span("b.child", 2, 5.5, 6.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([10.0 - 3.5 - 2.0, 3.0, 1.0, 1.0])


def test_layer_metrics_attribute_refusals_and_registers():
    spans = [
        _span("cli.main", None, 0.0, 4.0),
        Span("exprparser.evaluate", 0, 0.5, 3.5, 3.5, error="ResourceLimitError"),
        Span("qfs.qand", 1, 1.0, 3.0, 3.0, attrs={"qubits": 20, "nonzero": 1 << 18}),
    ]
    spans[0].attrs["exit"] = 3
    m = tracing.layer_metrics(spans)
    assert m["exprparser.evaluate.refused"] == 1
    assert m["exprparser.evaluate.refused_s"] == pytest.approx(3.0)
    assert m["exprparser.evaluate.self_s"] == pytest.approx(1.0)
    assert m["qfs.qand.qubits_max"] == 20
    assert m["qfs.qand.amp_mb"] == pytest.approx(16.0)
    assert m["qfs.nonzero_amp_frac"] == pytest.approx(0.25)
    assert m["cli.main.errors"] == 1


@pytest.mark.parametrize(
    "n, percentile, value",
    [(100, 90.0, 90), (40, 75.0, 30), (21, 100 * 11 / 21, 11), (20, 50.0, 10.5), (19, 50.0, 10)],
)
def test_tail_rule_leaves_ten_samples_beyond(n, percentile, value):
    values = list(range(n, 0, -1))
    p, v = run.tail(values)
    assert (p, v) == (percentile, value)
    if n > 20:
        assert sum(x > v for x in values) == 10


def test_benchmark_json_declares_what_the_runner_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)

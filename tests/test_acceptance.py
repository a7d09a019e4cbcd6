"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Everything is seeded, so reruns are bit-identical.
"""

import json
import math
import time
from functools import reduce
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from helpers import random_ast, random_fuzzy, random_marginal_expr

from qfuzzy.analysis import check_orthogonality, entanglement_report
from qfuzzy.exprparser import (
    Environment,
    ParseError,
    eval_classical,
    eval_quantum,
    parse,
    pretty_print,
)
from qfuzzy.fuzzy import CrispSubset, FuzzySet, com_pushforward, complement
from qfuzzy.qfs import (
    defuzzify,
    encode,
    expansion_coeff,
    qand,
    qnot,
    superpose,
    value_marginals,
)
from qfuzzy.reference import sampling_vs_oracle, total_variation, u_com
from qfuzzy.statevec import StateVector, basis_state, inner_product, schmidt_rank

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
_MODULE_START = time.monotonic()


def _passed(number, label):
    print(f"criterion {number:2d} ({label}): PASS")


def _grid_sets(n):
    return [FuzzySet(values) for values in product(GRID, repeat=n)]


def _random_grid_set(rng, n):
    return FuzzySet([GRID[int(rng.integers(len(GRID)))] for _ in range(n)])


def test_criterion_01_encoding_fidelity():
    start = time.monotonic()
    rng = np.random.default_rng(20_250_101)

    def check(f):
        state = encode(f).state
        n = f.universe_size
        for idx in range(1 << n):
            coeff = expansion_coeff(f, CrispSubset(format(idx, f"0{n}b")))
            assert abs(state.amplitudes[idx] - coeff) <= 1e-12

    for n in (1, 2):
        for f in _grid_sets(n):
            check(f)
    for _ in range(10_000):
        check(_random_grid_set(rng, 3))
    assert time.monotonic() - start < 30.0
    _passed(1, "encoding fidelity on the membership grid")


def test_criterion_02_collapse_law():
    start = time.monotonic()
    rng = np.random.default_rng(20_250_102)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        f = random_fuzzy(rng, n)
        assert sampling_vs_oracle(f, rng, 100_000) < 0.01
    assert time.monotonic() - start < 60.0
    _passed(2, "sampled collapse matches enumeration")


def test_criterion_03_and_probability_law():
    rng = np.random.default_rng(20_250_103)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        f, g = random_fuzzy(rng, n), random_fuzzy(rng, n)
        out = qand(encode(f), encode(g))
        expected = np.asarray(f.memberships) * g.memberships
        assert np.max(np.abs(value_marginals(out) - expected)) <= 1e-12
    half = FuzzySet([0.5])
    got = value_marginals(qand(encode(half), encode(half)))[0]
    assert abs(got - 0.25) <= 1e-12
    _passed(3, "AND output marginals multiply memberships")


def test_criterion_04_orthogonality_condition():
    counterexamples = 0

    def agreeing(f, g):
        verdict = check_orthogonality(f, g)
        state_ip = inner_product(encode(f).state, encode(g).state)
        return verdict.orthogonal == (abs(state_ip) <= 1e-10)

    for n in (1, 2):
        sets = _grid_sets(n)
        for f in sets:
            for g in sets:
                counterexamples += not agreeing(f, g)
    rng = np.random.default_rng(20_250_104)
    for _ in range(10_000):
        counterexamples += not agreeing(
            _random_grid_set(rng, 3), _random_grid_set(rng, 3)
        )
    assert counterexamples == 0
    _passed(4, "orthogonality iff a crisp membership clash")


def test_criterion_05_encoded_states_unentangled():
    rng = np.random.default_rng(20_250_105)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        state = encode(random_fuzzy(rng, n)).state
        if n > 1:
            assert all(schmidt_rank(state, {q}) == 1 for q in range(1, n + 1))
    _passed(5, "encoded fuzzy sets are product states")


def test_criterion_06_canonicalization_round_trip():
    rng = np.random.default_rng(20_250_106)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        memberships = rng.random(n)
        phases = rng.uniform(-math.pi, math.pi, size=n)
        factors = [
            np.array([math.sqrt(1 - m), np.exp(1j * p) * math.sqrt(m)])
            for m, p in zip(memberships, phases)
        ]
        state = StateVector(n, reduce(np.kron, factors))
        report = entanglement_report(state)
        assert report.is_product
        assert (
            np.max(np.abs(report.canonical_fuzzy_set.memberships - memberships))
            <= 1e-10
        )
        for got, want in zip(report.phases, phases):
            delta = (got - want) % (2 * math.pi)
            assert min(delta, 2 * math.pi - delta) <= 1e-8
    _passed(6, "product states round-trip to memberships and phases")


def test_criterion_07_u_com_permutation_involution():
    for n in range(1, 6):
        hit = set()
        for idx in range(1 << (2 * n)):
            start = basis_state(format(idx, f"0{2 * n}b"))
            once = u_com(start)
            nonzero = np.nonzero(np.abs(once.amplitudes) > 1e-12)[0]
            assert len(nonzero) == 1
            assert abs(abs(once.amplitudes[nonzero[0]]) - 1.0) <= 1e-12
            hit.add(int(nonzero[0]))
            again = u_com(once)
            assert np.max(np.abs(again.amplitudes - start.amplitudes)) <= 1e-12
        assert len(hit) == 1 << (2 * n)
    _passed(7, "center-of-mass unitary is a self-inverse permutation")


def test_criterion_08_defuzzifier_distribution():
    f = FuzzySet([0.5, 0.5])
    counts = defuzzify(encode(f), np.random.default_rng(20_250_108), 100_000)
    empirical = {k: v / 100_000 for k, v in counts.items()}
    expected = com_pushforward(f)
    assert expected == pytest.approx({0: 0.25, 1: 0.5, 2: 0.25})
    assert total_variation(empirical, expected) < 0.01
    _passed(8, "sampled defuzzification matches the exact pushforward")


def test_criterion_09_connective_linearity():
    rng = np.random.default_rng(20_250_109)
    done = 0
    while done < 50:
        n = int(rng.integers(1, 5))
        f, g = random_fuzzy(rng, n), random_fuzzy(rng, n)
        c1 = complex(rng.normal(), rng.normal())
        c2 = complex(rng.normal(), rng.normal())
        combined = superpose([(c1, f), (c2, g)])
        if combined.pre_norm < 1e-6:
            continue
        lhs = qnot(combined).state.amplitudes
        rhs = superpose([(c1, complement(f)), (c2, complement(g))]).state.amplitudes
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
        done += 1
    _passed(9, "complement distributes over superpositions")


def test_criterion_10_mode_agreement():
    rng = np.random.default_rng(20_250_110)
    names = ["A", "B", "C"]
    for _ in range(100):
        n = int(rng.integers(1, 5))
        bindings = {name: random_fuzzy(rng, n) for name in names}
        ast = random_marginal_expr(rng, names, n, depth=4, budget=14)
        classical = eval_classical(ast, Environment(universe_size=n, bindings=bindings))
        quantum = eval_quantum(
            ast, Environment(universe_size=n, bindings=bindings, mode="quantum")
        )
        assert (
            np.max(np.abs(value_marginals(quantum) - classical.memberships)) <= 1e-10
        )
    _passed(10, "quantum marginals equal classical evaluation")


def test_criterion_11_parser_golden_and_fixpoint():
    golden = json.loads(
        (Path(__file__).parent / "golden" / "parser_golden.json").read_text()
    )
    assert len(golden["ok"]) >= 20
    assert len(golden["errors"]) >= 5
    for case in golden["ok"]:
        ast = parse(case["input"])
        assert pretty_print(ast) == case["canonical"]
        assert parse(case["canonical"]) == ast
    for case in golden["errors"]:
        with pytest.raises(ParseError) as err:
            parse(case["input"])
        assert str(err.value) == case["error"]
    rng = np.random.default_rng(20_250_111)
    for _ in range(1000):
        ast = random_ast(rng, depth=int(rng.integers(0, 5)))
        assert parse(pretty_print(ast)) == ast
    _passed(11, "parser golden suite and print/parse fixpoint")


def test_criterion_12_runtime_budget():
    elapsed = time.monotonic() - _MODULE_START
    assert elapsed < 300.0
    _passed(12, f"acceptance module ran in {elapsed:.1f}s, within the 5 minute budget")

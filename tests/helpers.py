"""Randomized construction helpers shared across the test modules."""

from __future__ import annotations

import importlib.util
import tracemalloc
from functools import reduce
from pathlib import Path

import numpy as np

from qfuzzy.exprparser import And, Defuz, ExprAst, Fuz, Ident, Not, Or, Superpose
from qfuzzy.exprparser import Environment, plan
from qfuzzy.fuzzy import FuzzySet
from qfuzzy.statevec import StateVector


def peak_bytes(fn, *args) -> int:
    """Peak bytes tracemalloc sees allocated while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def perfbench_workloads():
    """The benchmark's spec generator, ``perfbench/workloads.py``, loaded by
    path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_unitary(rng: np.random.Generator, dim: int = 2) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng: np.random.Generator, n_qubits: int) -> StateVector:
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return StateVector(n_qubits, amps / np.linalg.norm(amps))


def random_qubit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def random_product_state(rng: np.random.Generator, n_qubits: int) -> StateVector:
    factors = [random_qubit(rng) for _ in range(n_qubits)]
    return StateVector(n_qubits, reduce(np.kron, factors))


def random_fuzzy(rng: np.random.Generator, n: int) -> FuzzySet:
    return FuzzySet(rng.random(n))


def random_marginal_expr(
    rng: np.random.Generator,
    names: list[str],
    n: int,
    depth: int,
    budget: int,
) -> ExprAst:
    """Random Superpose/Defuz-free expression whose quantum register fits in
    ``budget`` qubits."""
    assert budget >= n
    kinds = ["ident"]
    if budget >= 2 * n:
        kinds.append("fuz")
    if depth > 0:
        kinds.append("not")
        if budget >= 3 * n:
            kinds.extend(["and", "or"])
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "ident":
        return Ident(names[int(rng.integers(len(names)))])
    if kind == "fuz":
        return Fuz(int(rng.integers(1, n + 1)), int(rng.integers(0, 3)))
    if kind == "not":
        return Not(random_marginal_expr(rng, names, n, depth - 1, budget))
    left_budget = int(rng.integers(n, budget - 2 * n + 1))
    left = random_marginal_expr(rng, names, n, depth - 1, left_budget)
    env = Environment(n, {name: FuzzySet(np.zeros(n)) for name in names})
    right_budget = budget - n - plan(left, env)
    right = random_marginal_expr(rng, names, n, depth - 1, right_budget)
    make = And if kind == "and" else Or
    return make(left, right)


_NAMES = ["A", "B", "C", "x_1", "wide_band"]


def random_ast(rng: np.random.Generator, depth: int) -> ExprAst:
    """Random grammar-shaped tree for parse/print round trips."""
    kinds = ["ident", "fuz"]
    if depth > 0:
        kinds += ["not", "and", "or", "defuz", "superpose"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "ident":
        return Ident(_NAMES[int(rng.integers(len(_NAMES)))])
    if kind == "fuz":
        return Fuz(int(rng.integers(1, 10)), int(rng.integers(0, 4)))
    if kind == "not":
        return Not(random_ast(rng, depth - 1))
    if kind == "and":
        return And(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == "or":
        return Or(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == "defuz":
        return Defuz(random_ast(rng, depth - 1))
    terms = tuple(
        (float(rng.uniform(-2.0, 2.0)), random_ast(rng, depth - 1))
        for _ in range(int(rng.integers(1, 4)))
    )
    return Superpose(terms)

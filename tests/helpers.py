"""Randomized construction helpers and references shared by the test modules."""

from __future__ import annotations

import importlib.util
import re
import tracemalloc
from dataclasses import dataclass, field, make_dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from qfuzzy.errors import _brief
from qfuzzy.exprparser import And, Defuz, ExprAst, Fuz, Ident, Not, Or, Superpose
from qfuzzy.exprparser import Environment, ParseError, Token, plan, tokenize
from qfuzzy.exprparser import _fold, _leaf
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


def com_of_sums(count, index_sum):
    """Center-of-mass index of subsets with ``count`` members whose indices
    add up to ``index_sum``, elementwise on integer arrays: ``index_sum //
    count``, and the sentinel 0 for the empty set."""
    return np.where(count > 0, index_sum // np.maximum(count, 1), 0)


def reference_com_law(absent, present) -> np.ndarray:
    """The (count, index-sum) dynamic program in numpy, with its table
    binned in one ``bincount`` over ``np.indices`` grids of every cell, in
    row-major order."""
    absent, present = np.asarray(absent), np.asarray(present)
    n = absent.size
    p = np.zeros((n + 1, n * (n + 1) // 2 + 1))
    p[0, 0] = 1.0
    for i, (w0, w1) in enumerate(zip(absent, present), start=1):
        reach = (i - 1) * i // 2 + 1
        block = p[:i, :reach]
        joined = block * w1
        block *= w0
        p[1 : i + 1, i : i + reach] += joined
    count, index_sum = np.indices(p.shape)
    mass = np.bincount(com_of_sums(count, index_sum).ravel(), weights=p.ravel())
    return mass[: n + 1]


def reference_born_weights(node: ExprAst, env: Environment) -> np.ndarray:
    """(2, N) Born weights of each element's value bit being 0 and 1, with
    numpy rows: a leaf stacks (1 - m, m), NOT swaps the rows, AND gives
    (a0 (b0 + b1) + a1 b0, a1 b1), and OR is NOT(NOT a AND NOT b)."""

    def leaf(node: Ident | Fuz) -> np.ndarray:
        m = np.asarray(_leaf(node, env).memberships)
        return np.stack((1.0 - m, m))

    def negate(w: np.ndarray) -> np.ndarray:
        return w[::-1]

    def conj(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.stack((a[0] * (b[0] + b[1]) + a[1] * b[0], a[1] * b[1]))

    def disj(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return negate(conj(negate(a), negate(b)))

    return _fold(node, leaf, negate, conj, disj)


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


# --- references for the expression tree and its parser -------------------------


@dataclass(frozen=True, kw_only=True)
class _ReferenceNode:
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


# the fields of each node class, in the order its constructor takes them
NODE_FIELDS = {
    Ident: ("name",),
    Not: ("child",),
    And: ("left", "right"),
    Or: ("left", "right"),
    Fuz: ("index", "k"),
    Defuz: ("child",),
    Superpose: ("terms",),
}

# a frozen dataclass per node class, with its name and fields: generated ==
# and repr that recurse, the definition the node classes' loops must match
REFERENCE_NODES = {
    cls: make_dataclass(cls.__name__, fields, bases=(_ReferenceNode,), frozen=True)
    for cls, fields in NODE_FIELDS.items()
}


def reference_tree(value):
    """``value`` rebuilt recursively from the reference dataclasses."""
    if isinstance(value, tuple):
        return tuple(map(reference_tree, value))
    if type(value) not in REFERENCE_NODES:
        return value
    fields = [reference_tree(getattr(value, name)) for name in NODE_FIELDS[type(value)]]
    return REFERENCE_NODES[type(value)](*fields, pos=value.pos)


def described(value):
    """``value`` as nested tuples that hold each node's class and ``pos``, so
    two trees compare equal only with the same positions everywhere."""
    if isinstance(value, tuple):
        return tuple(map(described, value))
    if type(value) not in NODE_FIELDS:
        return value
    fields = tuple(described(getattr(value, name)) for name in NODE_FIELDS[type(value)])
    return type(value).__name__, value.pos, fields


# binding strength and node class of each binary connective
_BINARY = {"OR": (1, Or), "AND": (2, And)}


class _ReferenceParser:
    """Recursive descent over the grammar in ``qfuzzy.exprparser``'s module
    docstring, spending a Python frame per right operand and per DEFUZ or
    SUPERPOSE argument: the definition ``parse``'s one loop must match."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.idx = 0

    def peek(self) -> Token:
        return self.tokens[self.idx]

    def advance(self) -> Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def fail(self, expected: str) -> None:
        tok = self.peek()
        found = "end of input" if tok.kind == "EOF" else f"'{_brief(tok.text, str)}'"
        raise ParseError(
            f"syntax error at {tok.line}:{tok.col}: expected {expected}, "
            f"found {found}",
            tok.line,
            tok.col,
        )

    def expect(self, kind: str, expected: str) -> Token:
        if self.peek().kind != kind:
            self.fail(expected)
        return self.advance()

    def expr(self, floor: int = 1) -> ExprAst:
        prefixes: list[list[Token]] = [[]]
        while self.peek().kind in ("NOT", "LPAREN"):
            tok = self.advance()
            if tok.kind == "NOT":
                prefixes[-1].append(tok)
            else:
                prefixes.append([])
        value = self.primary()
        while True:
            for tok in reversed(prefixes.pop()):
                value = Not(value, pos=(tok.line, tok.col))
            level = 1 if prefixes else floor
            while (binary := _BINARY.get(self.peek().kind)) and binary[0] >= level:
                tok = self.advance()
                strength, node = binary
                value = node(value, self.expr(strength + 1), pos=(tok.line, tok.col))
            if not prefixes:
                return value
            self.expect("RPAREN", "')'")

    def primary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind not in ("IDENT", "FUZ", "DEFUZ", "SUPERPOSE"):
            self.fail("expression")
        self.advance()
        pos = (tok.line, tok.col)
        if tok.kind == "IDENT":
            return Ident(tok.text, pos=pos)
        self.expect("LPAREN", "'('")
        if tok.kind == "FUZ":
            index = self.integer()
            self.expect("COMMA", "','")
            node = Fuz(index, self.integer(), pos=pos)
        elif tok.kind == "DEFUZ":
            node = Defuz(self.expr(), pos=pos)
        else:
            terms = [self.superpose_term()]
            while self.peek().kind == "COMMA":
                self.advance()
                terms.append(self.superpose_term())
            node = Superpose(tuple(terms), pos=pos)
        self.expect("RPAREN", "')'")
        return node

    def superpose_term(self) -> tuple[float, ExprAst]:
        num = self.expect("NUMBER", "coefficient")
        self.expect("STAR", "'*'")
        return float(num.text), self.expr()

    def integer(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or not re.fullmatch(r"\d+", tok.text):
            self.fail("integer")
        try:
            value = int(tok.text)
        except ValueError:  # more digits than int() converts
            raise ParseError(
                f"syntax error at {tok.line}:{tok.col}: integer of "
                f"{len(tok.text)} digits is too long",
                tok.line,
                tok.col,
            ) from None
        self.advance()
        return value


def reference_parse(text: str) -> ExprAst:
    """``qfuzzy.exprparser.parse`` as a recursive-descent parser."""
    parser = _ReferenceParser(tokenize(text))
    node = parser.expr()
    parser.expect("EOF", "end of input")
    return node

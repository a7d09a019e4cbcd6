"""Surface language for fuzzy pipelines: parsing, printing, evaluation.

Grammar (keywords are case-sensitive; ``NOT`` binds tightest, then ``AND``,
then ``OR``; the binary connectives associate to the left)::

    expr    := term ("OR" term)*
    term    := factor ("AND" factor)*
    factor  := "NOT" factor | primary
    primary := IDENT | "(" expr ")" | "FUZ" "(" INT "," INT ")"
             | "DEFUZ" "(" expr ")"
             | "SUPERPOSE" "(" NUM "*" expr ("," NUM "*" expr)* ")"

Identifiers match ``[A-Za-z_][A-Za-z0-9_]*``; NUM is a decimal real (an
optional minus sign, digits, optional fraction and exponent).  ``DEFUZ`` may only
appear at the top level of an evaluated expression, and ``SUPERPOSE`` is
quantum-only with subterms restricted to identifiers and ``FUZ`` leaves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from operator import or_
from typing import Mapping, Union

import numpy as np

from .errors import _brief
from .fuzzy import (
    FuzzySet,
    classical_fuzzify,
    com_law,
    com_pushforward,
    complement,
    intersect,
    union,
)
from .qfs import (
    ColumnSet,
    QuantumFuzzySet,
    column_and,
    column_not,
    column_or,
    defuzzify,
    encode,
    encode_columns,
    fuz_columns,
    fuz_isometry,
    qand,
    qnot,
    qor,
    superpose,
)
from .statevec import (
    DEFAULT_QUBIT_CAP,
    check_register_cap,
    check_shots,
    draw_counts,
)


class ParseError(Exception):
    """Lexical or syntax error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col


class EvalError(Exception):
    """Semantic error during evaluation, with the offending node's position
    when one is known."""

    def __init__(self, message: str, pos: tuple[int, int] | None = None):
        if pos is not None:
            message = f"{message} at {pos[0]}:{pos[1]}"
        super().__init__(message)
        self.message = message
        self.pos = pos


# --- tokens ---------------------------------------------------------------

KEYWORDS = frozenset({"NOT", "AND", "OR", "FUZ", "DEFUZ", "SUPERPOSE"})

_TOKEN_RE = re.compile(
    r"(?P<NUMBER>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<LPAREN>\()"
    r"|(?P<RPAREN>\))"
    r"|(?P<COMMA>,)"
    r"|(?P<STAR>\*)"
    r"|(?P<NEWLINE>\n)"
    r"|(?P<SPACE>[ \t\r]+)"
    r"|(?P<OTHER>.)"
)

_INT_RE = re.compile(r"\d+")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for match in _TOKEN_RE.finditer(text):
        kind, tok_text = match.lastgroup, match.group()
        col = match.start() - line_start + 1
        if kind == "NEWLINE":
            line += 1
            line_start = match.end()
        elif kind == "OTHER":
            raise ParseError(
                f"lexical error at {line}:{col}: unexpected character {tok_text!r}",
                line,
                col,
            )
        elif kind != "SPACE":
            if kind == "IDENT" and tok_text in KEYWORDS:
                kind = tok_text
            tokens.append(Token(kind, tok_text, line, col))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


# --- syntax tree ----------------------------------------------------------


@dataclass(frozen=True)
class Ident:
    name: str
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Not:
    child: "ExprAst"
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class And:
    left: "ExprAst"
    right: "ExprAst"
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Or:
    left: "ExprAst"
    right: "ExprAst"
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Fuz:
    index: int
    k: int
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Defuz:
    child: "ExprAst"
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Superpose:
    terms: tuple[tuple[float, "ExprAst"], ...]
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)


ExprAst = Union[Ident, Not, And, Or, Fuz, Defuz, Superpose]


# --- parser ---------------------------------------------------------------


class _Parser:
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

    def expr(self) -> ExprAst:
        node = self.term()
        while self.peek().kind == "OR":
            tok = self.advance()
            node = Or(node, self.term(), pos=(tok.line, tok.col))
        return node

    def term(self) -> ExprAst:
        node = self.factor()
        while self.peek().kind == "AND":
            tok = self.advance()
            node = And(node, self.factor(), pos=(tok.line, tok.col))
        return node

    def factor(self) -> ExprAst:
        if self.peek().kind == "NOT":
            tok = self.advance()
            return Not(self.factor(), pos=(tok.line, tok.col))
        return self.primary()

    def primary(self) -> ExprAst:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.advance()
            return Ident(tok.text, pos=(tok.line, tok.col))
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "FUZ":
            self.advance()
            self.expect("LPAREN", "'('")
            index = self.integer()
            self.expect("COMMA", "','")
            k = self.integer()
            self.expect("RPAREN", "')'")
            return Fuz(index, k, pos=(tok.line, tok.col))
        if tok.kind == "DEFUZ":
            self.advance()
            self.expect("LPAREN", "'('")
            node = self.expr()
            self.expect("RPAREN", "')'")
            return Defuz(node, pos=(tok.line, tok.col))
        if tok.kind == "SUPERPOSE":
            self.advance()
            self.expect("LPAREN", "'('")
            terms = [self.superpose_term()]
            while self.peek().kind == "COMMA":
                self.advance()
                terms.append(self.superpose_term())
            self.expect("RPAREN", "')'")
            return Superpose(tuple(terms), pos=(tok.line, tok.col))
        self.fail("expression")
        raise AssertionError("unreachable")

    def superpose_term(self) -> tuple[float, ExprAst]:
        num = self.expect("NUMBER", "coefficient")
        self.expect("STAR", "'*'")
        return float(num.text), self.expr()

    def integer(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or not _INT_RE.fullmatch(tok.text):
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


def parse(text: str) -> ExprAst:
    """Parse an expression, raising :class:`ParseError` with the 1-based
    position of the offending token on bad input."""
    parser = _Parser(tokenize(text))
    node = parser.expr()
    if parser.peek().kind != "EOF":
        parser.fail("end of input")
    return node


def pretty_print(ast: ExprAst) -> str:
    """Fully parenthesized canonical text; reparsing it reproduces ``ast``."""
    if isinstance(ast, Ident):
        return ast.name
    if isinstance(ast, Not):
        return f"(NOT {pretty_print(ast.child)})"
    if isinstance(ast, And):
        return f"({pretty_print(ast.left)} AND {pretty_print(ast.right)})"
    if isinstance(ast, Or):
        return f"({pretty_print(ast.left)} OR {pretty_print(ast.right)})"
    if isinstance(ast, Fuz):
        return f"FUZ({ast.index}, {ast.k})"
    if isinstance(ast, Defuz):
        return f"DEFUZ({pretty_print(ast.child)})"
    if isinstance(ast, Superpose):
        terms = ", ".join(f"{c!r} * {pretty_print(t)}" for c, t in ast.terms)
        return f"SUPERPOSE({terms})"
    raise TypeError(f"not an expression node: {ast!r}")


# --- evaluation -----------------------------------------------------------


@dataclass(frozen=True)
class Environment:
    """Immutable evaluation context: the universe, the named fuzzy sets, and
    the run parameters for the quantum mode."""

    universe_size: int
    bindings: Mapping[str, FuzzySet]
    mode: str = "classical"
    seed: int = 0
    trials: int = 10000
    qubit_cap: int = DEFAULT_QUBIT_CAP

    def __post_init__(self) -> None:
        if self.universe_size < 1:
            raise ValueError(f"universe_size must be >= 1, got {self.universe_size}")
        if self.mode not in ("classical", "quantum"):
            shown = _brief(self.mode)
            raise ValueError(f"mode must be 'classical' or 'quantum', got {shown}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        check_shots(self.trials, "trials")
        for name, f in self.bindings.items():
            if f.universe_size != self.universe_size:
                raise ValueError(
                    f"set {_brief(name)} has universe size {f.universe_size}, "
                    f"expected {_brief(self.universe_size, str)}"
                )


def plan(ast: ExprAst, env: Environment) -> int:
    """Qubits the quantum evaluation of ``ast`` ends with, found before any
    register is built; raises the tree's first :class:`EvalError` in the
    order the evaluators meet its nodes.

    A connective keeps its inputs and writes to N fresh qubits, so a node
    has N * w qubits: w is 1 for an identifier or SUPERPOSE (which encodes
    windows only), 2 for FUZ, w(child) for NOT and w(left) + w(right) + 1
    for AND and OR; a top-level DEFUZ adds N ancillas.  Each register built
    on the way is part of the root's, so no gate allocates more than this;
    OR included, as it writes its register once.
    """
    if isinstance(ast, Defuz):
        return env.universe_size * (_width(ast.child, env) + 1)
    return env.universe_size * _width(ast, env)


def _fold(node: ExprAst, leaf, negate, conj, disj):
    """Bottom-up value of ``node``: ``leaf(node)`` at a leaf, ``negate`` at
    NOT, and ``conj`` or ``disj`` of the left and right values at AND or OR,
    with children taken left to right.  A left-deep AND/OR chain, which is
    what the parser makes of ``A AND B AND ...``, is walked in a loop, so
    its length does not count against the recursion limit."""
    if isinstance(node, Not):
        return negate(_fold(node.child, leaf, negate, conj, disj))
    if not isinstance(node, (And, Or)):
        return leaf(node)
    links = []
    while isinstance(node, (And, Or)):
        links.append(node)
        node = node.left
    value = _fold(node, leaf, negate, conj, disj)
    for link in reversed(links):
        right = _fold(link.right, leaf, negate, conj, disj)
        value = (conj if isinstance(link, And) else disj)(value, right)
    return value


def _width(node: ExprAst, env: Environment) -> int:
    def connective(left: int, right: int) -> int:
        return left + right + 1

    return _fold(node, lambda leaf: _leaf_width(leaf, env), int, connective, connective)


def _leaf_width(node: ExprAst, env: Environment) -> int:
    if isinstance(node, Defuz):
        raise EvalError("DEFUZ is only allowed at the top level", node.pos)
    if isinstance(node, Superpose):
        if env.mode == "classical":
            raise EvalError("SUPERPOSE is not available in classical mode", node.pos)
        for _, term in node.terms:  # superpose adds encoded sets: terms stay leaves
            if not isinstance(term, (Ident, Fuz)):
                raise EvalError(
                    "SUPERPOSE terms must be identifiers or FUZ leaves", term.pos
                )
            _leaf_width(term, env)
        return 1
    if isinstance(node, Fuz):
        if not 1 <= node.index <= env.universe_size:
            n = _brief(env.universe_size, str)
            raise EvalError(
                f"FUZ index {_brief(node.index, str)} out of range 1..{n}", node.pos
            )
        return 2
    if node.name not in env.bindings:
        raise EvalError(f"unbound identifier {_brief(node.name)}", node.pos)
    return 1


def evaluate(ast: ExprAst, env: Environment):
    """Evaluate ``ast`` with the exact backend its mode and shape allow.
    This is the one place that choice is made.  Every quantum route checks
    the planned register (:func:`plan`) against ``env.qubit_cap`` before
    anything is built, with :func:`eval_quantum`'s refusals.

    1. Classical mode goes to :func:`eval_classical`.
    2. A quantum tree, or a top-level DEFUZ's body, that contains SUPERPOSE
       goes to :func:`eval_quantum`, the dense register.
    3. Any other top-level DEFUZ builds no register.  It draws its counts
       over ``env.trials`` trials, seeded by ``env.seed``, from
       :func:`com_law` of its body's Born weights (:func:`_born_weights`),
       as :func:`defuzzify` draws them from the register.
    4. Any other quantum tree returns the register :func:`eval_quantum`
       would build as one w-qubit column per universe element
       (:class:`ColumnSet`), read with :func:`column_report` and
       :func:`column_marginals`; the columns, N * 2^w amplitudes, are never
       larger than that register.

    Routes 3 and 4 are exact.  A leaf's register is a product over the
    elements, and each gate the evaluator applies (X, or a Toffoli into
    fresh |0>) acts within one element's qubits, so every node's register
    is the product of its N columns.  An identifier gives the columns
    (sqrt(1-m), sqrt(m)) and a FUZ leaf its seed and window qubits
    (:func:`fuz_columns`); NOT, AND and OR run :func:`qnot`'s reversal and
    the :func:`qand` and :func:`qor` scatter on all columns at once.  So
    the value bits are independent, and the readout law is the dynamic
    program over each bit's Born weights.  Those weights keep the
    register's exact zeros, which fix the drawn counts.  A superposed
    state is not a product across elements, so it needs the register.
    """
    if env.mode == "classical":
        return eval_classical(ast, env)
    body = ast.child if isinstance(ast, Defuz) else ast
    if _fold(body, lambda leaf: isinstance(leaf, Superpose), bool, or_, or_):
        return eval_quantum(ast, env)
    check_register_cap(plan(ast, env), env.qubit_cap)
    if isinstance(ast, Defuz):
        rng = np.random.default_rng(env.seed)
        return draw_counts(com_law(*_born_weights(body, env)), rng, env.trials)
    return _fold(
        ast, lambda leaf: _leaf_columns(leaf, env), column_not, column_and, column_or
    )


def eval_classical(ast: ExprAst, env: Environment) -> FuzzySet | dict[int, float]:
    """Membership arithmetic; a top-level DEFUZ returns the exact
    center-of-mass distribution instead of a set."""
    plan(ast, env)
    if isinstance(ast, Defuz):
        return com_pushforward(_classical_set(ast.child, env))
    return _classical_set(ast, env)


def _classical_set(node: ExprAst, env: Environment) -> FuzzySet:
    return _fold(node, lambda leaf: _leaf(leaf, env), complement, intersect, union)


def eval_quantum(ast: ExprAst, env: Environment) -> QuantumFuzzySet | dict[int, int]:
    """Register simulation of any expression, the dense oracle; a top-level
    DEFUZ returns the counts :func:`defuzzify` samples from its body's
    register over ``env.trials`` trials seeded by ``env.seed``.  The planned
    register is checked against ``env.qubit_cap`` before anything is built.

    For a SUPERPOSE-free expression the register is the product of the
    columns :func:`evaluate` returns, and its DEFUZ law is the one
    :func:`evaluate` draws from without building it.
    """
    check_register_cap(plan(ast, env), env.qubit_cap)
    if not isinstance(ast, Defuz):
        return _quantum_state(ast, env)
    rng = np.random.default_rng(env.seed)
    return defuzzify(_quantum_state(ast.child, env), rng, env.trials, cap=env.qubit_cap)


def _leaf_columns(node: Ident | Fuz, env: Environment) -> ColumnSet:
    if isinstance(node, Fuz):
        return fuz_columns(node.index, _leaf(node, env))
    return encode_columns(_leaf(node, env))


def _quantum_state(node: ExprAst, env: Environment) -> QuantumFuzzySet:
    return _fold(
        node,
        lambda leaf: _leaf_state(leaf, env),
        qnot,
        lambda a, b: qand(a, b, cap=env.qubit_cap),
        lambda a, b: qor(a, b, cap=env.qubit_cap),
    )


def _leaf_state(node: Ident | Fuz | Superpose, env: Environment) -> QuantumFuzzySet:
    if isinstance(node, Fuz):
        one_hot = np.zeros(env.universe_size)
        one_hot[node.index - 1] = 1.0
        seeded = encode(FuzzySet(one_hot), cap=env.qubit_cap)
        return fuz_isometry(seeded, node.k, cap=env.qubit_cap)
    if isinstance(node, Superpose):
        terms = [(c, _leaf(t, env)) for c, t in node.terms]
        return superpose(terms, cap=env.qubit_cap)
    return encode(_leaf(node, env), cap=env.qubit_cap)


def _born_weights(node: ExprAst, env: Environment) -> np.ndarray:
    """(2, N) Born weights of each element's value bit being 0 and 1 in the
    register a SUPERPOSE-free ``node`` evaluates to.  A leaf encodes
    (1 - m, m), which for a FUZ window is (1/2, 1/2) inside and (1, 0)
    outside; NOT swaps the rows; AND's Toffoli sets the bit with weight
    a1 b1; OR is NOT(NOT a AND NOT b), as :func:`qor` is.  Pairs, not the
    memberships of :func:`_classical_set`, keep the register's exact zeros:
    the union f + g - fg with f = 1 can leave about 1e-17 on a bit the
    register holds crisply, and that moves the sampled counts.
    """

    def leaf(node: Ident | Fuz) -> np.ndarray:
        m = _leaf(node, env).memberships
        return np.stack((1.0 - m, m))

    def negate(w: np.ndarray) -> np.ndarray:
        return w[::-1]

    def conj(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.stack((a[0] * (b[0] + b[1]) + a[1] * b[0], a[1] * b[1]))

    def disj(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return negate(conj(negate(a), negate(b)))

    return _fold(node, leaf, negate, conj, disj)


def _leaf(node: Ident | Fuz, env: Environment) -> FuzzySet:
    """The set an identifier names, or the window a FUZ leaf spans."""
    if isinstance(node, Ident):
        return env.bindings[node.name]
    return classical_fuzzify(node.index, node.k, env.universe_size)

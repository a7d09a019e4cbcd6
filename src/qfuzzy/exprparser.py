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

import math
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from operator import or_
from typing import Mapping, Union

from ._lazy import lazy_import
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

np = lazy_import("numpy")


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

Token = namedtuple("Token", "kind text line col")


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


class _Node:
    """Base of the seven node classes.  ``pos`` is the 1-based (line, column)
    of the token that starts the node (the operator's, for AND and OR), or
    None for a tree built by hand; ``==``, ``hash`` and ``repr`` ignore it.
    A node takes its fields in the order of its class's ``__slots__``,
    cannot be changed, and pickles and copies with its ``pos``.  ``repr``
    reads ``Cls(field=value, ...)``; it, ``==`` and ``hash`` are one
    :func:`_walk` each, so they take a tree of any depth."""

    __slots__ = ("pos",)

    def __init__(self, *fields, pos: tuple[int, int] | None = None):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes the fields {self.__slots__}")
        for name, value in zip(("pos", *self.__slots__), (pos, *fields)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__  # which is why ``value`` is optional

    def __reduce__(self):
        fields = tuple(map(self.__getattribute__, self.__slots__))
        return partial(type(self), pos=self.pos), fields

    def __repr__(self) -> str:
        return "".join(_walk(self, partial(_fields, show=repr)))

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return _walk(self, _key) == _walk(other, _key)

    def __hash__(self) -> int:
        return hash(tuple(_walk(self, _key)))


class Ident(_Node):
    """An identifier: ``name`` (str)."""

    __slots__ = ("name",)


class Not(_Node):
    """``NOT child``."""

    __slots__ = ("child",)


class And(_Node):
    """``left AND right``."""

    __slots__ = ("left", "right")


class Or(_Node):
    """``left OR right``."""

    __slots__ = ("left", "right")


class Fuz(_Node):
    """``FUZ(index, k)``, both ints."""

    __slots__ = ("index", "k")


class Defuz(_Node):
    """``DEFUZ(child)``."""

    __slots__ = ("child",)


class Superpose(_Node):
    """``SUPERPOSE(c * t, ...)``: ``terms`` is a tuple of (float, node)
    pairs."""

    __slots__ = ("terms",)


ExprAst = Union[Ident, Not, And, Or, Fuz, Defuz, Superpose]


def _walk(node: ExprAst, form) -> list:
    """The parts of ``node`` in pre-order.  ``form(node)`` lists a node's
    parts in reading order: a part that is a ``str`` or a ``tuple`` is kept
    as it is, and any other part is a subtree, listed by ``form`` in turn.
    One loop over a stack of the parts still to read, so no depth costs a
    Python frame."""
    parts, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, (str, tuple)):
            parts.append(item)
        else:
            stack += reversed(form(item))
    return parts


def _fields(node: _Node, show) -> list:
    """The ``Cls(field=value, ...)`` form of any node for :func:`_walk`."""
    parts = [f"{type(node).__qualname__}("]
    for i, name in enumerate(node.__slots__):
        parts += [f", {name}=" if i else f"{name}=", *_value(getattr(node, name), show)]
    return parts + [")"]


def _value(value, show) -> list:
    """The parts of a field's value: a subtree as it is, a tuple opened into
    its items, and any other value as ``show(value)``."""
    if not isinstance(value, tuple):
        return [value if isinstance(value, _Node) else show(value)]
    items = [p for i, v in enumerate(value) for p in [", "] * (i > 0) + _value(v, show)]
    return ["(", *items, ",)" if len(value) == 1 else ")"]


# ``repr``'s form with every value a 1-tuple: a flat key for ``==`` and ``hash``
_key = partial(_fields, show=lambda v: (v,))


# markers of a pending connective on :func:`_fold`'s stack; no caller sees them
_NEGATE, _CONJ, _DISJ = object(), object(), object()


def _fold(node: ExprAst, leaf, negate, conj, disj):
    """Bottom-up value of ``node``: ``leaf(node)`` at any value that is not
    a NOT, AND or OR node, ``negate`` at NOT, and ``conj`` or ``disj`` of
    the left and right values at AND or OR.  One post-order loop, left
    child first, over a stack of pending nodes and pending connectives, so
    no depth of NOT, AND or OR costs a Python frame."""
    stack, values = [node], []
    while stack:
        item = stack.pop()
        if item is _CONJ or item is _DISJ:
            right = values.pop()
            values[-1] = (conj if item is _CONJ else disj)(values[-1], right)
        elif item is _NEGATE:
            values[-1] = negate(values[-1])
        elif isinstance(item, (And, Or)):
            stack += (_CONJ if isinstance(item, And) else _DISJ, item.right, item.left)
        elif isinstance(item, Not):
            stack += (_NEGATE, item.child)
        else:
            values.append(leaf(item))
    return values[0]


# --- parser ---------------------------------------------------------------

# binding strength of each binary connective; an open bracket on the
# parser's stack binds with 0, and any other next token folds like OR
_BINDS = {"OR": 1, "AND": 2}
# the tokens that open an operand: NOT and the three brackets around one
_OPENINGS = frozenset({"NOT", "LPAREN", "DEFUZ", "SUPERPOSE"})


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
        """A whole expression, read in one loop over a stack of the
        constructs still open, so no nesting costs a Python frame.  An entry
        is an open ``(``, ``DEFUZ(`` or ``SUPERPOSE(`` token with the NOT
        tokens in front of it and, for SUPERPOSE, the list of its terms so
        far, whose last item is the coefficient of the term being read; or
        a pending AND or OR token with its left operand.

        Each round reads the NOTs and openings in front of an operand and
        then its leaf (:meth:`leaf`).  While an operand is complete, it is
        wrapped in its NOTs, innermost first; the pending connectives that
        bind at least as tightly as the next token (see ``_BINDS``) are
        folded into it, so AND and OR chains nest to the left; and then the
        next connective is pushed, the next SUPERPOSE term begins, or the
        innermost open construct closes into the next complete operand."""
        stack: list[tuple] = []
        while True:
            nots: list[Token] = []
            while (tok := self.peek()).kind in _OPENINGS:
                self.advance()
                if tok.kind == "NOT":
                    nots.append(tok)
                    continue
                if tok.kind != "LPAREN":
                    self.expect("LPAREN", "'('")
                terms = [self.coefficient()] if tok.kind == "SUPERPOSE" else None
                stack.append((tok, nots, terms))
                nots = []
            value = self.leaf()
            while True:
                for tok in reversed(nots):
                    value = Not(value, pos=(tok.line, tok.col))
                binds = _BINDS.get(kind := self.peek().kind, 1)
                while stack and _BINDS.get(stack[-1][0].kind, 0) >= binds:
                    tok, left = stack.pop()
                    join = And if tok.kind == "AND" else Or
                    value = join(left, value, pos=(tok.line, tok.col))
                if kind in _BINDS:
                    stack.append((self.advance(), value))
                    break
                if not stack:
                    return value
                tok, nots, terms = stack[-1]
                if terms is not None:
                    terms[-1] = (terms[-1], value)
                    if self.peek().kind == "COMMA":
                        self.advance()
                        terms.append(self.coefficient())
                        break
                self.expect("RPAREN", "')'")
                stack.pop()
                if tok.kind == "DEFUZ":
                    value = Defuz(value, pos=(tok.line, tok.col))
                elif terms is not None:
                    value = Superpose(tuple(terms), pos=(tok.line, tok.col))

    def leaf(self) -> Ident | Fuz:
        if self.peek().kind not in ("IDENT", "FUZ"):
            self.fail("expression")
        tok = self.advance()
        if tok.kind == "IDENT":
            return Ident(tok.text, pos=(tok.line, tok.col))
        self.expect("LPAREN", "'('")
        index = self.integer()
        self.expect("COMMA", "','")
        node = Fuz(index, self.integer(), pos=(tok.line, tok.col))
        self.expect("RPAREN", "')'")
        return node

    def coefficient(self) -> float:
        num = self.expect("NUMBER", "coefficient")
        self.expect("STAR", "'*'")
        return float(num.text)

    def integer(self) -> int:
        tok = self.peek()
        if tok.kind != "NUMBER" or not tok.text.isdecimal():
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
    parser.expect("EOF", "end of input")
    return node


def pretty_print(ast: ExprAst) -> str:
    """Fully parenthesized canonical text of any tree :func:`parse` returns,
    overflowing SUPERPOSE coefficients included: an infinite one prints as
    ``1e999`` or ``-1e999``, which parse back to it.  Reparsing the text
    reproduces ``ast``.  The printer is one :func:`_walk` with a form per
    node class, so it prints a tree of any depth."""
    return "".join(_walk(ast, lambda node: _PRINTED.get(type(node), _not_a_node)(node)))


def _not_a_node(value: object) -> None:
    raise TypeError(f"not an expression node: {value!r}")


def _superpose_parts(node: Superpose) -> list:
    parts = [p for c, t in node.terms for p in (", ", f"{_number(c)} * ", t)]
    return ["SUPERPOSE(", *parts[1:], ")"]  # no comma before the first term


# the parts each node class prints as, subtrees in their places
_PRINTED = {
    Ident: lambda node: [node.name],
    Fuz: lambda node: [f"FUZ({node.index}, {node.k})"],
    Not: lambda node: ["(NOT ", node.child, ")"],
    And: lambda node: ["(", node.left, " AND ", node.right, ")"],
    Or: lambda node: ["(", node.left, " OR ", node.right, ")"],
    Defuz: lambda node: ["DEFUZ(", node.child, ")"],
    Superpose: _superpose_parts,
}


def _number(c: float) -> str:
    """``repr`` of a finite coefficient; a literal for an infinite one."""
    return {math.inf: "1e999", -math.inf: "-1e999"}.get(c, repr(c))


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
    OR included, as it writes its register once.  The widths are one
    :func:`_fold`, so a tree of any depth of NOT, AND and OR is planned.
    """

    def join(left: int, right: int) -> int:
        return left + right + 1

    body = ast.child if isinstance(ast, Defuz) else ast
    width = _fold(body, lambda leaf: _leaf_width(leaf, env), int, join, join)
    return env.universe_size * (width + (body is not ast))  # DEFUZ's ancillas


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
       as :func:`defuzzify` draws them from the register.  Both run in
       Python floats, as the classical DEFUZ does; numpy runs the draw.
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
        law = com_law(*_born_weights(body, env))
        return draw_counts(np.array(law), rng, env.trials)
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
        one_hot = [0.0] * env.universe_size
        one_hot[node.index - 1] = 1.0
        seeded = encode(FuzzySet(one_hot), cap=env.qubit_cap)
        return fuz_isometry(seeded, node.k, cap=env.qubit_cap)
    if isinstance(node, Superpose):
        terms = [(c, _leaf(t, env)) for c, t in node.terms]
        return superpose(terms, cap=env.qubit_cap)
    return encode(_leaf(node, env), cap=env.qubit_cap)


def _born_weights(node: ExprAst, env: Environment) -> tuple[list, list]:
    """Born weights of each element's value bit being 0 and 1 in the
    register a SUPERPOSE-free ``node`` evaluates to, as two lists of N
    floats.  A leaf encodes (1 - m, m), which for a FUZ window is (1/2, 1/2)
    inside and (1, 0) outside; NOT swaps the lists; AND's Toffoli sets the
    bit with weight a1 b1; OR is NOT(NOT a AND NOT b), as :func:`qor` is.
    Pairs, not the memberships of :func:`_classical_set`, keep the
    register's exact zeros: the union f + g - fg with f = 1 can leave about
    1e-17 on a bit the register holds crisply, and that moves the sampled
    counts.
    """

    def leaf(node: Ident | Fuz) -> tuple[list, list]:
        m = _leaf(node, env).memberships
        return [1.0 - x for x in m], list(m)

    def negate(w: tuple[list, list]) -> tuple[list, list]:
        return w[::-1]

    def conj(a: tuple[list, list], b: tuple[list, list]) -> tuple[list, list]:
        return (
            [x0 * (y0 + y1) + x1 * y0 for x0, x1, y0, y1 in zip(*a, *b)],
            [x1 * y1 for x1, y1 in zip(a[1], b[1])],
        )

    def disj(a: tuple[list, list], b: tuple[list, list]) -> tuple[list, list]:
        return negate(conj(negate(a), negate(b)))

    return _fold(node, leaf, negate, conj, disj)


def _leaf(node: Ident | Fuz, env: Environment) -> FuzzySet:
    """The set an identifier names, or the window a FUZ leaf spans."""
    if isinstance(node, Ident):
        return env.bindings[node.name]
    return classical_fuzzify(node.index, node.k, env.universe_size)

import copy
import json
import math
import pickle
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    NODE_FIELDS,
    described,
    random_ast,
    random_fuzzy,
    random_marginal_expr,
    reference_born_weights,
    reference_com_law,
    reference_parse,
    reference_tree,
)

from qfuzzy import cli, exprparser, qfs
from qfuzzy.analysis import column_report, entanglement_report, total_variation
from qfuzzy.cli import main
from qfuzzy.errors import ResourceLimitError
from qfuzzy.exprparser import (
    And,
    Defuz,
    Environment,
    EvalError,
    Fuz,
    Ident,
    Not,
    Or,
    ParseError,
    Superpose,
    _born_weights,
    _quantum_state,
    eval_classical,
    eval_quantum,
    evaluate,
    parse,
    plan,
    pretty_print,
    tokenize,
)
from qfuzzy.fuzzy import FuzzySet, com_law
from qfuzzy.qfs import (
    _com_table,
    _value_distribution,
    column_marginals,
    defuzzify,
    encode,
    value_marginals,
)
from qfuzzy.statevec import schmidt_rank

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "parser_golden.json").read_text()
)


def env_for(universe_size, mode="classical", **bindings):
    return Environment(
        universe_size=universe_size,
        bindings={k: FuzzySet(v) for k, v in bindings.items()},
        mode=mode,
    )


# --- grammar ------------------------------------------------------------------


def test_not_binds_tighter_than_and():
    assert parse("NOT A AND B") == And(Not(Ident("A")), Ident("B"))


def test_and_binds_tighter_than_or():
    assert parse("A OR B AND C") == Or(Ident("A"), And(Ident("B"), Ident("C")))


def test_fuz_literal():
    assert parse("FUZ(3,1)") == Fuz(3, 1)


def test_binary_connectives_left_associate():
    assert parse("A AND B AND C") == And(And(Ident("A"), Ident("B")), Ident("C"))
    assert parse("A OR B OR C") == Or(Or(Ident("A"), Ident("B")), Ident("C"))


def test_superpose_terms():
    ast = parse("SUPERPOSE(0.5 * A, -1.5 * NOT B)")
    assert ast == Superpose(((0.5, Ident("A")), (-1.5, Not(Ident("B")))))


@pytest.mark.parametrize("case", GOLDEN["ok"], ids=lambda c: c["input"])
def test_golden_canonical_forms(case):
    ast = parse(case["input"])
    printed = pretty_print(ast)
    assert printed == case["canonical"]
    assert parse(printed) == ast


@pytest.mark.parametrize("case", GOLDEN["errors"], ids=lambda c: c["input"])
def test_golden_error_messages(case):
    with pytest.raises(ParseError) as err:
        parse(case["input"])
    assert str(err.value) == case["error"]


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("A AND\nOR")
    assert (err.value.line, err.value.col) == (2, 1)


def test_integer_too_long_to_convert_is_a_parse_error():
    with pytest.raises(ParseError, match="integer of 5000 digits") as err:
        parse("FUZ(1,\n " + "7" * 5000 + ")")
    assert (err.value.line, err.value.col) == (2, 2)


def test_round_trip_random_asts():
    rng = np.random.default_rng(107)
    for _ in range(300):
        ast = random_ast(rng, depth=int(rng.integers(0, 5)))
        assert parse(pretty_print(ast)) == ast


# what random parser inputs are made of: every token kind, a number that
# overflows, a newline, and a character the lexer rejects
VOCABULARY = [
    "NOT", "AND", "OR", "FUZ", "DEFUZ", "SUPERPOSE", "(", ")", ",", "*",
    "A", "x_1", "1", "3", "0.5", "-2", "1e400", "\n", "%",
]


def _differential_inputs(seed):
    """Random token strings; printed random trees; and each printed tree
    again with some parentheses dropped and with one token replaced."""
    rnd, rng = random.Random(seed), np.random.default_rng(seed)
    for _ in range(4000):
        yield " ".join(rnd.choices(VOCABULARY, k=rnd.randint(1, 15)))
    for _ in range(2000):
        text = pretty_print(random_ast(rng, depth=rnd.randint(0, 3)))
        words = [tok.text for tok in tokenize(text)[:-1]]
        dropped = [w for w in words if w not in "()" or rnd.random() < 0.7]
        replaced = list(words)
        replaced[rnd.randrange(len(words))] = rnd.choice(VOCABULARY)
        for variant in (words, dropped, replaced):
            yield ("\n" if rnd.random() < 0.2 else " ").join(variant)


def _outcome(parser, text):
    try:
        return "tree", described(parser(text))
    except ParseError as exc:
        return "error", str(exc), exc.message, exc.line, exc.col


def test_parse_agrees_with_recursive_descent():
    # the same trees, the same pos on every node, and the same error and
    # position as the recursive-descent parser the loop replaced
    texts = list(_differential_inputs(26))
    outcomes = [(_outcome(parse, t), _outcome(reference_parse, t)) for t in texts]
    for text, (ours, reference) in zip(texts, outcomes):
        assert ours == reference, text
    errors = sum(ours[0] == "error" for ours, _ in outcomes)
    assert len(texts) == 10_000 and 2000 < errors < 8000


# --- pretty printing -----------------------------------------------------------


def test_pretty_print_examples():
    assert pretty_print(And(Not(Ident("A")), Ident("B"))) == "((NOT A) AND B)"
    assert pretty_print(Or(Ident("A"), And(Ident("B"), Ident("C")))) == "(A OR (B AND C))"
    assert pretty_print(Fuz(3, 1)) == "FUZ(3, 1)"


def test_nodes_sit_at_their_tokens():
    ast = parse("A AND\n  NOT B OR FUZ(1, 2)")
    assert ast.pos == (2, 9)
    assert ast.left.pos == (1, 3)
    assert (ast.left.left.pos, ast.left.right.pos) == ((1, 1), (2, 3))
    assert ast.left.right.child.pos == (2, 7)
    assert ast.right.pos == (2, 12)
    assert ast == parse("A AND NOT B OR FUZ(1, 2)")
    assert hash(ast) == hash(Or(And(Ident("A"), Not(Ident("B"))), Fuz(1, 2)))
    assert repr(ast.right) == "Fuz(index=1, k=2)"


def test_not_before_parentheses_sits_at_its_token():
    ast = parse("NOT (A AND\n NOT (B)) OR C")
    assert ast == Or(Not(And(Ident("A"), Not(Ident("B")))), Ident("C"))
    assert (ast.pos, ast.left.pos, ast.right.pos) == ((2, 11), (1, 1), (2, 14))
    conj = ast.left.child
    assert (conj.pos, conj.left.pos, conj.right.pos) == ((1, 8), (1, 6), (2, 2))
    assert conj.right.child.pos == (2, 7)
    ast = parse("((A) AND (NOT B))")
    assert ast == And(Ident("A"), Not(Ident("B")))
    assert (ast.pos, ast.left.pos, ast.right.pos) == ((1, 6), (1, 3), (1, 11))
    assert ast.right.child.pos == (1, 15)


def test_deep_parentheses_parse():
    ast = parse("(" * 20000 + "A" + ")" * 20000)
    assert (ast, ast.pos) == (Ident("A"), (1, 20001))


ALTERNATING_CHAIN = "(" * 4999 + "A" + " AND A) OR A)" * 2499 + " AND A)"


@pytest.mark.parametrize(
    "source, text",
    [
        (" AND ".join(["A"] * 5000), "(" * 4999 + "A" + " AND A)" * 4999),
        (" OR ".join(["A"] * 5000), "(" * 4999 + "A" + " OR A)" * 4999),
        (ALTERNATING_CHAIN, ALTERNATING_CHAIN),
    ],
    ids=["AND", "OR", "alternating"],
)
def test_pretty_print_long_chain(source, text):
    assert pretty_print(parse(source)) == text
    assert parse(text) == parse(source)


# --- node classes -----------------------------------------------------------------


def _rebuilt(node, rnd, classes=None, coefficient=lambda c: c):
    """``node`` rebuilt with a random ``pos`` on every node, each node class
    replaced as ``classes`` maps it and each SUPERPOSE coefficient passed
    through ``coefficient``."""
    if isinstance(node, Superpose):
        fields = [tuple((coefficient(c), _rebuilt(t, rnd, classes, coefficient))
                        for c, t in node.terms)]
    else:
        fields = [getattr(node, name) for name in NODE_FIELDS[type(node)]]
        fields = [_rebuilt(v, rnd, classes, coefficient) if type(v) in NODE_FIELDS
                  else v for v in fields]
    cls = (classes or {}).get(type(node), type(node))
    return cls(*fields, pos=(rnd.randint(1, 9), rnd.randint(1, 99)))


def test_nodes_agree_with_recursive_dataclasses():
    # ==, hash and repr as the generated dataclass methods give them: pos is
    # ignored, a -0.0 coefficient equals 0.0, and And differs from Or
    rnd, rng = random.Random(26), np.random.default_rng(26)
    seen = Counter()
    for _ in range(1000):
        tree = _rebuilt(
            random_ast(rng, depth=rnd.randint(0, 3)), rnd,
            coefficient=lambda c: rnd.choice((c, 0.0)),
        )
        variants = {
            "pos": _rebuilt(tree, rnd),
            "signed zero": _rebuilt(tree, rnd, coefficient=lambda c: -c if c == 0 else c),
            "and-or": _rebuilt(tree, rnd, classes={And: Or, Or: And}),
            "other": random_ast(rng, depth=rnd.randint(0, 2)),
        }
        assert repr(tree) == repr(reference_tree(tree))
        for kind, other in variants.items():
            equal = reference_tree(tree) == reference_tree(other)
            assert (tree == other, tree != other) == (equal, not equal)
            if equal:
                assert hash(tree) == hash(other)
            seen[kind, equal, repr(tree) == repr(other)] += 1
    assert seen["pos", True, True] == 1000
    assert seen["signed zero", True, True] + seen["signed zero", True, False] == 1000
    assert seen["signed zero", True, False] > 100
    assert seen["and-or", False, False] > 200 and seen["other", False, False] > 500


def test_nodes_are_immutable_and_copy_with_their_positions():
    ast = parse("SUPERPOSE(0.5 * A, -1.5 * NOT B) OR\n FUZ(1, 2) AND DEFUZ(C)")
    with pytest.raises(AttributeError, match="cannot assign to or delete field 'left'"):
        ast.left = Ident("A")
    with pytest.raises(AttributeError, match="cannot assign to or delete field 'pos'"):
        del ast.pos
    for copied in (pickle.loads(pickle.dumps(ast)), copy.deepcopy(ast)):
        assert described(copied) == described(ast)
    with pytest.raises(TypeError, match=r"And takes the fields \('left', 'right'\)"):
        And(Ident("A"))


# --- tree walks -------------------------------------------------------------------


def _reference_fold(node, leaf, negate, conj, disj):
    """The recursive definition that ``exprparser._fold`` walks in a loop."""
    if isinstance(node, Not):
        return negate(_reference_fold(node.child, leaf, negate, conj, disj))
    if isinstance(node, (And, Or)):
        left = _reference_fold(node.left, leaf, negate, conj, disj)
        right = _reference_fold(node.right, leaf, negate, conj, disj)
        return (conj if isinstance(node, And) else disj)(left, right)
    return leaf(node)


def _recorders(calls):
    """The four callbacks of a fold, each logging its call to ``calls`` and
    returning the call's number."""

    def record(kind):
        def callback(*values):
            calls.append((kind, values))
            return len(calls)

        return callback

    return [record(kind) for kind in ("leaf", "not", "and", "or")]


def _random_connectives(rng, leaves):
    """A random NOT/AND/OR tree over ``leaves`` identifier and FUZ leaves."""
    if leaves == 1:
        node = Ident("ABC"[int(rng.integers(3))]) if rng.random() < 0.8 else Fuz(1, 1)
    else:
        left = int(rng.integers(1, leaves))
        node = (And if rng.random() < 0.5 else Or)(
            _random_connectives(rng, left), _random_connectives(rng, leaves - left)
        )
    return Not(node) if rng.random() < 0.3 else node


def test_fold_meets_nodes_in_recursive_order():
    # the order of the calls fixes which error plan and the evaluators raise
    # first, so the loop must make them in the recursive fold's sequence
    rng = np.random.default_rng(25)
    for _ in range(1000):
        ast = _random_connectives(rng, int(rng.integers(1, 40)))
        runs = []
        for fold in (_reference_fold, exprparser._fold):
            calls = []
            runs.append((fold(ast, *_recorders(calls)), calls))
        assert runs[0] == runs[1]


# deeper than Python's default recursion limit of 1000 frames
DEEP = 10_001


def test_walks_take_any_number_of_nots():
    ast = parse("NOT " * DEEP + "A")
    classical = env_for(2, A=[0.25, 1.0])
    quantum = env_for(2, "quantum", A=[0.25, 1.0])
    assert plan(ast, quantum) == 2
    assert evaluate(ast, classical).memberships == (0.75, 0.0)
    negated = column_marginals(evaluate(parse("NOT A"), quantum))
    assert column_marginals(evaluate(ast, quantum)).tolist() == negated.tolist()


def test_walks_take_a_deep_right_nested_tree():
    ast, opened, m = Ident("A"), [], 0.3
    for i in range(DEEP):
        ast = (Or if i % 2 else And)(Ident("A"), ast)
        opened.append("(A OR " if i % 2 else "(A AND ")
        m = 0.3 + m - 0.3 * m if i % 2 else 0.3 * m
    quantum, width = env_for(1, "quantum", A=[0.3]), 2 * DEEP + 1
    assert plan(ast, quantum) == width
    with pytest.raises(ResourceLimitError, match=f"register of {width} qubits"):
        evaluate(ast, quantum)
    assert evaluate(ast, env_for(1, A=[0.3])).memberships == (m,)
    assert pretty_print(ast) == "".join(reversed(opened)) + "A" + ")" * DEEP


@pytest.mark.parametrize(
    "wrap, printed, shown, shown_close, units",
    [
        (Not, "(NOT ", "Not(child=", ")", 20_000),
        (
            lambda t: And(Ident("A"), Or(Ident("A"), t)),
            "(A AND (A OR ",
            "And(left=Ident(name='A'), right=Or(left=Ident(name='A'), right=",
            "))",
            10_000,
        ),
        (Defuz, "DEFUZ(", "Defuz(child=", ")", 20_000),
        (
            lambda t: Superpose(((1.0, t),)),
            "SUPERPOSE(1.0 * ",
            "Superpose(terms=((1.0, ",
            "),))",
            20_000,
        ),
    ],
    ids=["NOT", "AND-OR", "DEFUZ", "SUPERPOSE"],
)
def test_any_nesting_depth_round_trips(wrap, printed, shown, shown_close, units):
    # print, parse, ==, hash and repr each keep their own stack, so 20,000
    # levels of any construct cost them no Python frame
    tree = Ident("A")
    for _ in range(units):
        tree = wrap(tree)
    text = pretty_print(tree)
    assert text == printed * units + "A" + ")" * 20_000
    ast = parse(text)
    assert ast == tree and isinstance(hash(ast), int)
    assert repr(ast) == shown * units + "Ident(name='A')" + shown_close * units


@pytest.mark.parametrize(
    "text, printed",
    [
        ("SUPERPOSE(1e400 * A)", "SUPERPOSE(1e999 * A)"),
        ("SUPERPOSE(-1e400 * A, 0.5 * B)", "SUPERPOSE(-1e999 * A, 0.5 * B)"),
    ],
)
def test_overflowing_coefficient_prints_as_a_literal_that_reparses(text, printed):
    ast = parse(text)
    assert pretty_print(ast) == printed
    assert parse(printed) == ast


# --- classical evaluation ---------------------------------------------------------


def test_classical_not():
    out = eval_classical(parse("NOT A"), env_for(2, A=[0.2, 0.7]))
    assert out.memberships == pytest.approx([0.8, 0.3])


def test_classical_and():
    out = eval_classical(parse("A AND B"), env_for(1, A=[0.5], B=[0.5]))
    assert out.memberships == pytest.approx([0.25])


def test_classical_or_and_fuz():
    out = eval_classical(parse("A OR FUZ(1, 0)"), env_for(2, A=[0.5, 0.5]))
    assert out.memberships == pytest.approx([0.75, 0.5])


def test_classical_defuz_distribution():
    out = eval_classical(parse("DEFUZ(A)"), env_for(2, A=[0.5, 0.5]))
    assert out == pytest.approx({0: 0.25, 1: 0.5, 2: 0.25})


def test_classical_unbound_identifier():
    with pytest.raises(EvalError, match="unbound identifier 'C' at 1:1"):
        eval_classical(parse("C"), env_for(1, A=[0.5]))


def test_classical_rejects_superpose():
    with pytest.raises(EvalError, match="not available in classical mode"):
        eval_classical(parse("SUPERPOSE(1.0 * A)"), env_for(1, A=[0.5]))


def test_nested_defuz_rejected():
    env = env_for(1, A=[0.5])
    with pytest.raises(EvalError, match="top level"):
        eval_classical(parse("NOT DEFUZ(A)"), env)
    with pytest.raises(EvalError, match="top level"):
        eval_quantum(parse("DEFUZ(DEFUZ(A))"), env)


def test_fuz_index_out_of_range():
    with pytest.raises(EvalError, match="FUZ index 4 out of range 1..2"):
        eval_classical(parse("FUZ(4, 1)"), env_for(2, A=[0.5, 0.5]))


# --- quantum evaluation ------------------------------------------------------------


def test_quantum_and_marginal():
    out = eval_quantum(parse("A AND B"), env_for(1, "quantum", A=[0.5], B=[0.5]))
    assert value_marginals(out) == pytest.approx([0.25], abs=1e-12)


def test_quantum_superpose_entangles():
    r = math.sqrt(0.5)
    out = eval_quantum(
        parse(f"SUPERPOSE({r!r} * A, {r!r} * B)"),
        env_for(2, "quantum", A=[1, 0], B=[0, 1]),
    )
    assert schmidt_rank(out.state, {1}) == 2
    assert schmidt_rank(out.state, {2}) == 2


def test_quantum_double_negation():
    env = env_for(2, "quantum", A=[0.3, 0.8])
    out = eval_quantum(parse("NOT NOT A"), env)
    expected = encode(FuzzySet([0.3, 0.8]))
    assert np.max(np.abs(out.state.amplitudes - expected.state.amplitudes)) <= 1e-12


def test_quantum_superpose_with_fuz_leaf():
    out = eval_quantum(
        parse("SUPERPOSE(1.0 * FUZ(2, 0))"), env_for(3, "quantum", A=[1, 0, 0])
    )
    expected = encode(FuzzySet([0, 0.5, 0]))
    assert np.max(np.abs(out.state.amplitudes - expected.state.amplitudes)) <= 1e-12


def test_quantum_superpose_rejects_compound_terms():
    env = env_for(1, "quantum", A=[0.5], B=[0.5])
    with pytest.raises(EvalError, match="identifiers or FUZ leaves"):
        eval_quantum(parse("SUPERPOSE(1.0 * (A AND B))"), env)


def test_quantum_cap_reports_request():
    env = Environment(
        universe_size=3,
        bindings={"A": FuzzySet([0.5] * 3), "B": FuzzySet([0.5] * 3)},
        mode="quantum",
        qubit_cap=8,
    )
    with pytest.raises(ResourceLimitError, match="register of 9 qubits exceeds the cap of 8"):
        eval_quantum(parse("A AND B"), env)


def _random_planned_tree(rng, names, n, width):
    """Random DEFUZ-free tree with SUPERPOSE leaves whose register holds at
    most ``width`` segments of ``n`` qubits."""
    kinds = ["ident", "superpose"] + (["fuz", "not"] if width >= 2 else [])
    kinds += ["and", "or"] if width >= 3 else []
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "ident":
        return Ident(names[int(rng.integers(len(names)))])
    if kind == "fuz":
        return Fuz(int(rng.integers(1, n + 1)), int(rng.integers(0, 3)))
    if kind == "superpose":
        leaves = [Ident(name) for name in names] + [Fuz(n, 1)]
        return Superpose(tuple(
            (float(rng.uniform(0.5, 2.0)), leaves[int(rng.integers(len(leaves)))])
            for _ in range(int(rng.integers(1, 4)))
        ))
    if kind == "not":
        return Not(_random_planned_tree(rng, names, n, width))
    left_width = int(rng.integers(1, width - 1))
    left = _random_planned_tree(rng, names, n, left_width)
    right = _random_planned_tree(rng, names, n, width - 1 - left_width)
    return (And if kind == "and" else Or)(left, right)


def _subtrees(node):
    yield node
    for attr in ("child", "left", "right"):
        if hasattr(node, attr):
            yield from _subtrees(getattr(node, attr))


def test_plan_equals_allocated_qubits():
    rng = np.random.default_rng(113)
    names = ["A", "B"]
    for _ in range(100):
        n = int(rng.integers(1, 4))
        env = Environment(
            universe_size=n,
            bindings={name: random_fuzzy(rng, n) for name in names},
            mode="quantum",
            qubit_cap=18,
        )
        ast = _random_planned_tree(rng, names, n, width=18 // n - 1)
        for node in _subtrees(ast):
            assert plan(node, env) == eval_quantum(node, env).state.n_qubits
        planned = plan(Defuz(ast), env)
        assert planned == plan(ast, env) + n
        capped = Environment(n, env.bindings, mode="quantum", qubit_cap=planned)
        eval_quantum(Defuz(ast), capped)
        short = Environment(n, env.bindings, mode="quantum", qubit_cap=planned - 1)
        with pytest.raises(ResourceLimitError, match=f"register of {planned} qubits"):
            eval_quantum(Defuz(ast), short)


def test_quantum_defuz_counts():
    env = Environment(
        universe_size=2,
        bindings={"A": FuzzySet([1, 0])},
        mode="quantum",
        seed=3,
        trials=77,
    )
    assert eval_quantum(parse("DEFUZ(A)"), env) == {1: 77}


def _crisp_heavy(rng, n):
    """Random memberships with about 30% of them exactly 0 or 1."""
    m = rng.random(n)
    crisp = rng.random(n) < 0.3
    m[crisp] = rng.integers(0, 2, size=int(crisp.sum()))
    return FuzzySet(m)


def _dense_law(node, env):
    """The oracle: the DEFUZ law binned from the dense register of ``node``."""
    state = _quantum_state(node, env)
    n = env.universe_size
    return np.bincount(_com_table(n), weights=_value_distribution(state))


def test_defuz_weights_law_matches_dense_register():
    rng = np.random.default_rng(127)
    names = ["A", "B", "C"]
    for _ in range(120):
        n = int(rng.integers(1, 5))
        bindings = {name: _crisp_heavy(rng, n) for name in names}
        env = Environment(universe_size=n, bindings=bindings, mode="quantum")
        ast = random_marginal_expr(rng, names, n, depth=4, budget=20)
        dense = _dense_law(ast, env)
        law = np.array(com_law(*_born_weights(ast, env)))
        assert np.max(np.abs(law - dense)) <= 1e-12, pretty_print(ast)
        assert np.array_equal(law == 0.0, dense == 0.0), pretty_print(ast)


def test_defuz_weights_and_law_keep_the_numpy_bits():
    """The Python-float Born weights and law against the numpy programs
    they replace, bit for bit, on crisp-heavy random trees."""
    rng = np.random.default_rng(137)
    names = ["A", "B", "C"]
    words = ("NOT", "AND", "OR", "FUZ")
    shown = Counter()
    for _ in range(2000):
        n = int(rng.integers(1, 13))
        bindings = {name: _crisp_heavy(rng, n) for name in names}
        env = Environment(universe_size=n, bindings=bindings, mode="quantum")
        ast = random_marginal_expr(rng, names, n, depth=4, budget=12 * n)
        text = pretty_print(ast)
        shown.update(word for word in words if word in text)
        weights, expected = _born_weights(ast, env), reference_born_weights(ast, env)
        assert np.array(weights).tobytes() == expected.tobytes(), text
        law = np.array(com_law(*weights))
        assert law.tobytes() == reference_com_law(*expected).tobytes(), text
    assert min(shown[word] for word in words) >= 500, shown


def _run_eval(tmp_path, capsys, spec, *flags):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code = main(["eval", "--input", str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_superpose_free_defuz_builds_no_register(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a register was built")

    for gate in ("encode", "qand", "qor", "fuz_isometry", "defuzzify"):
        monkeypatch.setattr(exprparser, gate, refuse)
    spec = {
        "universe_size": 3,
        "sets": {"A": [0.2, 1.0, 0.7], "B": [0.0, 0.5, 0.9]},
        "expression": "DEFUZ((A AND NOT FUZ(2, 1)) OR B)",
        "mode": "quantum",
        "seed": 4,
        "trials": 500,
    }
    code, out, err = _run_eval(tmp_path, capsys, spec)
    assert (code, err) == (0, "")
    assert sum(json.loads(out)["counts"].values()) == 500


def test_columns_match_the_dense_register():
    """Columns against the dense oracle on random SUPERPOSE-free trees: the
    same layout, ranks and product verdict, and every float within 1e-12."""
    rng = np.random.default_rng(131)
    names = ["A", "B", "C"]
    products = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        bindings = {name: _crisp_heavy(rng, n) for name in names}
        env = Environment(universe_size=n, bindings=bindings, mode="quantum")
        ast = random_marginal_expr(rng, names, n, depth=4, budget=20)
        dense = eval_quantum(ast, env)
        columns = evaluate(ast, env)
        shown = pretty_print(ast)
        assert columns.dense_layout() == dense.layout, shown
        want, got = entanglement_report(dense), column_report(columns)
        assert got.per_qubit_schmidt_ranks == want.per_qubit_schmidt_ranks, shown
        assert got.is_product == want.is_product, shown
        np.testing.assert_allclose(
            column_marginals(columns), value_marginals(dense), rtol=0, atol=1e-12
        )
        if want.is_product:
            products += 1
            pairs = [
                (got.canonical_fuzzy_set.memberships, want.canonical_fuzzy_set.memberships),
                (got.phases, want.phases),
            ]
            pairs += [(g.amplitudes, w.amplitudes) for g, w in zip(got.factors, want.factors)]
            for g, w in pairs:
                np.testing.assert_allclose(g, w, rtol=0, atol=1e-12, err_msg=shown)
    assert 20 <= products < 200  # both verdicts are exercised


def test_superpose_free_eval_builds_no_register(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a register was built")

    for gate in ("encode", "qnot", "qand", "qor", "fuz_isometry", "superpose"):
        monkeypatch.setattr(exprparser, gate, refuse)
        monkeypatch.setattr(qfs, gate, refuse)
    monkeypatch.setattr(cli, "encode", refuse)
    spec = {
        "universe_size": 3,
        "sets": {"A": [0.2, 1.0, 0.7], "B": [0.0, 0.5, 0.9]},
        "expression": "(A AND NOT FUZ(2, 1)) OR NOT B",
        "mode": "quantum",
    }
    code, out, err = _run_eval(tmp_path, capsys, spec)
    assert (code, err) == (0, "")
    assert json.loads(out)["total_qubits"] == 3 * 6


def test_superpose_defuz_reads_the_register(monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0].state.n_qubits)
        return defuzzify(*args, **kwargs)

    monkeypatch.setattr(exprparser, "defuzzify", recording)
    env = env_for(2, "quantum", A=[0.3, 1.0], B=[0.0, 0.6])
    # the dense oracle samples every DEFUZ from its register, SUPERPOSE or not
    for source, qubits in [
        ("DEFUZ(NOT SUPERPOSE(0.6 * A, 0.8 * B) AND A)", 6),
        ("DEFUZ(A AND NOT FUZ(2, 1))", 8),
    ]:
        calls.clear()
        counts = eval_quantum(parse(source), env)
        assert calls == [qubits], source
        assert sum(counts.values()) == env.trials


def test_defuz_past_classical_limit_with_raised_cap(tmp_path, capsys):
    # N = 21 is over the classical DEFUZ limit; the quantum readout has none
    rng = np.random.default_rng(131)
    f = _crisp_heavy(rng, 21)
    spec = {
        "universe_size": 21,
        "sets": {"A": np.asarray(f.memberships).tolist()},
        "expression": "DEFUZ(A)",
        "mode": "quantum",
        "seed": 9,
        "trials": 2000,
    }
    code, out, err = _run_eval(tmp_path, capsys, spec, "--qubit-cap", "42")
    assert (code, err) == (0, "")
    env = Environment(21, {"A": f}, mode="quantum", qubit_cap=42)
    dense = _dense_law(Ident("A"), env)
    law = np.array(com_law(*_born_weights(Ident("A"), env)))
    assert np.max(np.abs(law - dense)) <= 1e-12
    assert np.array_equal(law == 0.0, dense == 0.0)
    expected = defuzzify(encode(f, cap=42), np.random.default_rng(9), 2000, cap=42)
    assert json.loads(out)["counts"] == {str(k): v for k, v in expected.items()}


def test_evaluate_dispatches_on_mode():
    classical = evaluate(parse("A"), env_for(1, A=[0.4]))
    quantum = evaluate(parse("A"), env_for(1, "quantum", A=[0.4]))
    assert isinstance(classical, FuzzySet)
    assert column_marginals(quantum) == pytest.approx([0.4])


# --- mode agreement -----------------------------------------------------------------


def test_mode_agreement_randomized():
    rng = np.random.default_rng(109)
    names = ["A", "B", "C"]
    for _ in range(30):
        n = int(rng.integers(1, 5))
        bindings = {name: random_fuzzy(rng, n) for name in names}
        env_c = Environment(universe_size=n, bindings=bindings)
        env_q = Environment(universe_size=n, bindings=bindings, mode="quantum")
        ast = random_marginal_expr(rng, names, n, depth=4, budget=14)
        classical = eval_classical(ast, env_c)
        quantum = eval_quantum(ast, env_q)
        assert np.max(
            np.abs(value_marginals(quantum) - classical.memberships)
        ) <= 1e-10


def test_defuz_modes_agree_in_distribution():
    bindings = {"A": FuzzySet([0.3, 0.9])}
    exact = eval_classical(
        parse("DEFUZ(NOT A)"), Environment(universe_size=2, bindings=bindings)
    )
    counts = eval_quantum(
        parse("DEFUZ(NOT A)"),
        Environment(
            universe_size=2, bindings=bindings, mode="quantum", seed=5, trials=100_000
        ),
    )
    empirical = {k: v / 100_000 for k, v in counts.items()}
    assert total_variation(empirical, exact) < 0.02


# --- environment ---------------------------------------------------------------------


def test_environment_validation():
    with pytest.raises(ValueError, match="mode"):
        Environment(universe_size=1, bindings={}, mode="hybrid")
    with pytest.raises(ValueError, match="universe size"):
        Environment(universe_size=2, bindings={"A": FuzzySet([0.5])})
    with pytest.raises(ValueError, match="trials"):
        Environment(universe_size=1, bindings={}, trials=0)


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: Environment(universe_size=0, bindings={}), ValueError,
         "universe_size must be >= 1, got 0"),
        (lambda: Environment(universe_size=1, bindings={}, seed=-1), ValueError,
         "seed must be >= 0, got -1"),
        (lambda: pretty_print(42), TypeError, "not an expression node: 42"),
    ],
    ids=["universe_size", "seed", "pretty_print"],
)
def test_library_refusals(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message

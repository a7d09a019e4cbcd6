"""Seeded spec generator for the qfuzzy benchmark.

Every workload is a fixed *cycle* of slots.  A slot fixes the kind of spec,
the universe size and the tree shape, so it fixes the register size and
roughly the cost; the seed only fills in memberships, connectives, NOT
wrappers, FUZ parameters and names.  The share of each register size, of
product-state results and of expected refusals is therefore the same for
every seed, and the closed loop, which runs the pool in order, sees that mix
in every prefix of a cycle.

Each cycle puts about 60-70% of its specs in a cheap group and the rest in
a group that costs several times more, spread evenly through the cycle.  The
median latency then falls inside the cheap group and the tail latency (the
sample ten others exceed) inside the expensive one, for any run length from
about 40 to 100 specs, so neither sits on the edge between two groups.  Run ``python3 perfbench/workloads.py`` to print
the measured mix.

A spec is a plain dict:

``id``      unique within the pool
``cmd``     CLI subcommand (``eval``, ``encode``, ``report``, ``sample``)
``args``    extra CLI arguments
``input``   the text written to the spec's input file
``expect``  what the checker needs: the exit code, and the generator's own
            description of the input (tree, sets, state factors)
``qubits``  largest register the CLI allocates (0 when none)
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from collections import Counter
from functools import reduce

import numpy as np

#: The CLI's default register cap, which every generated spec runs under.
CAP = 24

WORKLOADS = ("quantum-defuz", "quantum-state", "classical")

NAMES = [c for c in "ABCDEFGHIJKLMNOPQRSTUVWXYZ"] + [
    "low", "mid", "high", "warm", "cold", "near", "far", "tall", "short_", "wet",
]

# --- expression trees ------------------------------------------------------
#
# ("id", name) | ("not", t) | ("and", l, r) | ("or", l, r) | ("fuz", i, k)
# | ("sup", ((coef_text, leaf), ...)) | ("defuz", t)


def to_text(t) -> str:
    """Expression text for a tree; binary connectives are parenthesized."""
    op = t[0]
    if op == "id":
        return t[1]
    if op == "not":
        return f"NOT {to_text(t[1])}"
    if op in ("and", "or"):
        return f"({to_text(t[1])} {op.upper()} {to_text(t[2])})"
    if op == "fuz":
        return f"FUZ({t[1]}, {t[2]})"
    if op == "sup":
        return "SUPERPOSE(" + ", ".join(f"{c} * {to_text(x)}" for c, x in t[1]) + ")"
    if op == "defuz":
        return f"DEFUZ({to_text(t[1])})"
    raise ValueError(f"unknown node {op!r}")


def register_sizes(t, n: int) -> list[int]:
    """Register sizes the quantum evaluator builds, in evaluation order
    (children left to right, then the node); the last entry is the result."""
    op = t[0]
    if op == "id":
        return [n]
    if op == "not":
        return register_sizes(t[1], n)
    if op in ("and", "or"):
        left = register_sizes(t[1], n)
        right = register_sizes(t[2], n)
        return left + right + [left[-1] + right[-1] + n]
    if op == "fuz":
        return [n, 2 * n]  # the one-hot seed, then the isometry's output
    if op == "sup":
        return [n]
    if op == "defuz":
        inner = register_sizes(t[1], n)
        return inner + [inner[-1] + n]
    raise ValueError(f"unknown node {op!r}")


def refusal_point(t, n: int, cap: int = CAP) -> tuple[bool, int]:
    """(refused, largest register built before the refusal or at the end)."""
    built = 0
    for size in register_sizes(t, n):
        if size > cap:
            return True, built
        built = max(built, size)
    return False, built


# --- random pieces ----------------------------------------------------------


def _memberships(rnd: random.Random, n: int, lo: float = 0.05, hi: float = 0.95) -> list[float]:
    return [rnd.uniform(lo, hi) for _ in range(n)]


def _maybe_not(rnd: random.Random, t, p: float = 0.25):
    while rnd.random() < p:
        t = ("not", t)
    return t


def _join(rnd: random.Random, leaves: list, shape: str):
    """Combine leaves with random AND/OR in a left-deep, right-deep or
    balanced shape."""
    def op(a, b):
        return _maybe_not(rnd, (rnd.choice(("and", "or")), a, b))

    if shape == "left":
        return reduce(op, leaves)
    if shape == "right":
        return reduce(lambda acc, leaf: op(leaf, acc), reversed(leaves[:-1]), leaves[-1])
    mid = len(leaves) // 2
    return op(_join(rnd, leaves[:mid], "left"), _join(rnd, leaves[mid:], "left"))


def _ident_leaves(rnd: random.Random, count: int) -> list:
    names = rnd.sample(NAMES, count)
    return [_maybe_not(rnd, ("id", name)) for name in names]


def _fuz_leaf(rnd: random.Random, n: int):
    return _maybe_not(rnd, ("fuz", rnd.randint(1, n), rnd.randint(0, 2)))


def _tree_names(t) -> set[str]:
    op = t[0]
    if op == "id":
        return {t[1]}
    if op in ("not", "defuz"):
        return _tree_names(t[1])
    if op in ("and", "or"):
        return _tree_names(t[1]) | _tree_names(t[2])
    if op == "sup":
        return set().union(*(_tree_names(x) for _, x in t[1]))
    return set()


def _eval_spec(rnd: random.Random, tree, n: int, mode: str, extra: dict | None = None,
               lo: float = 0.05, hi: float = 0.95) -> dict:
    sets = {name: _memberships(rnd, n, lo, hi) for name in sorted(_tree_names(tree))}
    spec = {"universe_size": n, "sets": sets, "expression": to_text(tree), "mode": mode}
    spec.update(extra or {})
    refused, built = refusal_point(tree, n) if mode == "quantum" else (False, 0)
    return {
        "cmd": "eval",
        "args": [],
        "input": json.dumps(spec),
        "expect": {"exit": 3 if refused else 0, "tree": tree, "sets": sets,
                   "n": n, "mode": mode, "trials": spec.get("trials", 10000)},
        "qubits": built,
    }


# --- quantum-defuz -----------------------------------------------------------


def _defuz(rnd: random.Random, n: int, inner) -> dict:
    extra = {"seed": rnd.randrange(1 << 31), "trials": 10000}
    return _eval_spec(rnd, ("defuz", inner), n, "quantum", extra)


def _qd_slot(rnd: random.Random, slot: str) -> dict:
    shape = rnd.choice(("left", "right", "balanced"))
    if slot == "d24_n3_4leaf":
        return _defuz(rnd, 3, _join(rnd, _ident_leaves(rnd, 4), shape))
    if slot == "d24_n4_3leaf":
        return _defuz(rnd, 4, _join(rnd, _ident_leaves(rnd, 3), shape))
    if slot == "d24_n6_2leaf":
        return _defuz(rnd, 6, _join(rnd, _ident_leaves(rnd, 2), shape))
    if slot == "d20_n5_2leaf":
        return _defuz(rnd, 5, _join(rnd, _ident_leaves(rnd, 2), shape))
    if slot == "d20_n4_fuz":
        leaves = [_fuz_leaf(rnd, 4)] + _ident_leaves(rnd, 1)
        rnd.shuffle(leaves)
        return _defuz(rnd, 4, _join(rnd, leaves, shape))
    if slot == "d18_n3_3leaf":
        return _defuz(rnd, 3, _join(rnd, _ident_leaves(rnd, 3), shape))
    if slot == "d18_n3_2fuz":
        return _defuz(rnd, 3, _join(rnd, [_fuz_leaf(rnd, 3), _fuz_leaf(rnd, 3)], shape))
    if slot == "d16_n4_2leaf":
        return _defuz(rnd, 4, _join(rnd, _ident_leaves(rnd, 2), shape))
    if slot == "d15_n3_fuz":
        leaves = [_fuz_leaf(rnd, 3)] + _ident_leaves(rnd, 1)
        rnd.shuffle(leaves)
        return _defuz(rnd, 3, _join(rnd, leaves, shape))
    if slot == "d12_n3_2leaf":
        return _defuz(rnd, 3, _join(rnd, _ident_leaves(rnd, 2), shape))
    if slot == "refuse_n5_3leaf":
        # refused at the top connective, after a 15-qubit subtree
        return _defuz(rnd, 5, _join(rnd, _ident_leaves(rnd, 3), shape))
    if slot == "refuse_n4_4leaf":
        # left-deep: refused only after a 20-qubit subtree has been built
        return _defuz(rnd, 4, _join(rnd, _ident_leaves(rnd, 4), "left"))
    raise ValueError(slot)


QD_CYCLE = (
    "d24_n3_4leaf", "d12_n3_2leaf", "d16_n4_2leaf", "d24_n6_2leaf",
    "d18_n3_3leaf", "refuse_n5_3leaf", "d20_n5_2leaf", "d24_n4_3leaf",
    "d15_n3_fuz", "d18_n3_2fuz", "d24_n3_4leaf", "d12_n3_2leaf",
    "d20_n4_fuz", "d24_n6_2leaf", "d16_n4_2leaf", "refuse_n4_4leaf",
    "d18_n3_3leaf", "d24_n4_3leaf", "d15_n3_fuz", "d20_n5_2leaf",
)

# --- quantum-state -----------------------------------------------------------


def _random_factor(rnd: random.Random) -> list[float]:
    """A single-qubit state a|0> + b|1> as [a, |b|, arg b], a real and away
    from the poles so phases are well defined."""
    theta = rnd.uniform(0.2, math.pi / 2 - 0.2)
    return [math.cos(theta), math.sin(theta), rnd.uniform(-3.0, 3.0)]


def build_state(desc: dict) -> np.ndarray:
    """Amplitudes of a benchmark-built state: a product of single-qubit
    factors, with an optional entangled pair a|00> + b|11> on two qubits."""
    n = desc["n"]
    vec = {}
    for q, factor in enumerate(desc["factors"], start=1):
        if factor is not None:  # None marks a qubit of the entangled pair
            a, b_abs, phase = factor
            vec[q] = np.array([a, b_abs * complex(math.cos(phase), math.sin(phase))])
    pair = desc.get("pair")
    if pair is None:
        return reduce(np.kron, [vec[q] for q in range(1, n + 1)])
    p, q, a, b = pair
    others = [k for k in range(1, n + 1) if k not in (p, q)]
    head = np.array([a, 0.0, 0.0, b], dtype=np.complex128)
    psi = reduce(np.kron, [head] + [vec[k] for k in others]).reshape([2] * n)
    order = [p, q] + others
    return np.transpose(psi, np.argsort(order)).reshape(-1)


def _state_desc(rnd: random.Random, n: int, entangled: bool) -> dict:
    desc = {"n": n, "factors": [_random_factor(rnd) for _ in range(n)], "pair": None}
    if entangled:
        p, q = sorted(rnd.sample(range(1, n + 1), 2))
        theta = rnd.uniform(0.3, math.pi / 2 - 0.3)
        desc["pair"] = [p, q, math.cos(theta), math.sin(theta)]
        desc["factors"][p - 1] = desc["factors"][q - 1] = None
    return desc


def state_json(amps: np.ndarray, n: int) -> str:
    return json.dumps({
        "layout": [["value", 1, n]],
        "universe_size": n,
        "amplitudes": [[float(a.real), float(a.imag)] for a in amps],
    })


def _state_spec(rnd: random.Random, cmd: str, n: int, entangled: bool) -> dict:
    desc = _state_desc(rnd, n, entangled)
    args = []
    expect = {"exit": 0, "state": desc}
    if cmd == "sample":
        shots = 10000
        args = ["--shots", str(shots), "--seed", str(rnd.randrange(1 << 31))]
        expect["shots"] = shots
    return {"cmd": cmd, "args": args, "input": state_json(build_state(desc), n),
            "expect": expect, "qubits": n}


def _qs_slot(rnd: random.Random, slot: str) -> dict:
    kind, n, *count = slot.split(":")
    n = int(n)
    if kind == "leaf":  # count: NOT gates
        tree = ("id", rnd.choice(NAMES))
        for _ in range(int(count[0])):
            tree = ("not", tree)
        return _eval_spec(rnd, tree, n, "quantum")
    if kind == "fuz":
        return _eval_spec(rnd, ("fuz", rnd.randint(1, n), rnd.randint(0, 3)), n, "quantum")
    if kind == "sup":  # count: terms
        names = rnd.sample(NAMES, int(count[0]))
        leaves = [("id", name) for name in names]
        if rnd.random() < 0.5:
            leaves[-1] = ("fuz", rnd.randint(1, n), rnd.randint(0, 2))
        terms = tuple((f"{rnd.uniform(0.1, 1.0):.6f}", leaf) for leaf in leaves)
        return _eval_spec(rnd, ("sup", terms), n, "quantum")
    if kind == "tree":
        leaves = 3 if n == 3 else 2
        shape = rnd.choice(("left", "right"))
        return _eval_spec(rnd, _join(rnd, _ident_leaves(rnd, leaves), shape), n, "quantum")
    if kind == "encode":
        m = _memberships(rnd, n)
        return {"cmd": "encode", "args": [],
                "input": json.dumps({"universe_size": n, "memberships": m}),
                "expect": {"exit": 0, "memberships": m}, "qubits": n}
    if kind in ("report", "report_ent", "sample", "sample_ent"):
        return _state_spec(rnd, kind.split("_")[0], n, kind.endswith("_ent"))
    raise ValueError(slot)


# The NOT and term counts are fixed per slot: a NOT makes one pass over the
# register per value qubit, about 0.3 s in all at N=20, and leaf:20 is over
# a quarter of the cycle's time, so a random count would move the rate from
# seed to seed.
QS_CYCLE = (
    "leaf:18:0", "encode:12", "sup:12:4", "fuz:9", "sample_ent:12",
    "leaf:14:2", "tree:6", "fuz:7", "report:16", "leaf:15:1",
    "encode:16", "sup:14:2", "report_ent:14", "fuz:9", "sample:14",
    "leaf:20:1", "tree:3", "fuz:8", "sup:18:3", "encode:14",
)

# --- classical ---------------------------------------------------------------


def _long_tree(rnd: random.Random, names: list[str], leaves: int, n: int):
    """Random binary tree over ``leaves`` leaves with NOT wrappers; about one
    leaf in twenty is a FUZ window."""
    def build(count: int):
        if count == 1:
            leaf = _fuz_leaf(rnd, n) if rnd.random() < 0.05 else ("id", rnd.choice(names))
            return _maybe_not(rnd, leaf, 0.2)
        left = rnd.randint(1, count - 1)
        node = (rnd.choice(("and", "or")), build(left), build(count - left))
        return _maybe_not(rnd, node, 0.15)

    return build(leaves)


_MALFORMED = (
    "syntax", "unbound", "range", "length", "nested_defuz", "superpose",
    "fuz_index", "json",
)


def _malformed(rnd: random.Random, n: int) -> dict:
    kind = rnd.choice(_MALFORMED)
    names = rnd.sample(NAMES, 3)
    sets = {name: _memberships(rnd, n, 0.0, 1.0) for name in names}
    expr = f"({names[0]} AND {names[1]}) OR NOT {names[2]}"
    code = 4
    if kind == "syntax":
        expr = expr + " AND ("
    elif kind == "unbound":
        expr = expr + " AND undefined_set"
    elif kind == "nested_defuz":
        expr = f"NOT DEFUZ({expr})"
    elif kind == "superpose":
        expr = f"SUPERPOSE(0.5 * {names[0]}, 0.5 * {names[1]})"
    elif kind == "fuz_index":
        expr = f"{expr} AND FUZ({n + rnd.randint(1, 5)}, 1)"
    elif kind == "range":
        sets[names[1]][rnd.randrange(n)] = rnd.choice((1.5, -0.25))
        code = 2
    elif kind == "length":
        sets[names[2]] = sets[names[2]][:-1]
        code = 2
    spec = json.dumps({"universe_size": n, "sets": sets, "expression": expr})
    if kind == "json":
        spec = spec[:-1]
        code = 2
    return {"cmd": "eval", "args": [], "input": spec,
            "expect": {"exit": code, "malformed": kind}, "qubits": 0}


def _cl_slot(rnd: random.Random, slot: str) -> dict:
    if slot == "long":
        n = 2 ** rnd.randint(5, 10)
        names = rnd.sample(NAMES, rnd.randint(5, 20))
        tree = _long_tree(rnd, names, rnd.randint(100, 300), n)
        return _eval_spec(rnd, tree, n, "classical", lo=0.0, hi=1.0)
    if slot.startswith("defuz:"):
        n = int(slot.split(":")[1])
        names = rnd.sample(NAMES, 4)
        tree = ("defuz", _long_tree(rnd, names, rnd.randint(2, 8), n))
        return _eval_spec(rnd, tree, n, "classical")
    if slot == "malformed":
        return _malformed(rnd, rnd.randint(8, 64))
    raise ValueError(slot)


CL_CYCLE = (
    "long", "defuz:16", "defuz:10", "long", "defuz:16", "malformed", "long",
    "defuz:16", "defuz:12", "long", "defuz:16", "malformed", "long",
    "defuz:16", "defuz:14", "long", "defuz:16", "malformed", "long", "defuz:16",
)

_CYCLES = {
    "quantum-defuz": (QD_CYCLE, _qd_slot),
    "quantum-state": (QS_CYCLE, _qs_slot),
    "classical": (CL_CYCLE, _cl_slot),
}

#: Cycles generated per run; the closed loop wraps round if it runs out.
POOL_CYCLES = {"quantum-defuz": 4, "quantum-state": 4, "classical": 6}


def cycle_length(workload: str) -> int:
    return len(_CYCLES[workload][0])


def generate(workload: str, seed: int, cycles: int | None = None) -> list[dict]:
    """The spec pool for one run: ``cycles`` cycles of the workload's slots,
    each spec drawn from its own stream so the pool is a pure function of
    (workload, seed)."""
    slots, make = _CYCLES[workload]
    cycles = POOL_CYCLES[workload] if cycles is None else cycles
    pool = []
    for c in range(cycles):
        for s, slot in enumerate(slots):
            rnd = random.Random(f"{workload}:{seed}:{c}:{s}")
            spec = make(rnd, slot)
            spec["id"] = f"{workload}-{c}-{s:02d}"
            spec["slot"] = slot
            pool.append(spec)
    return pool


# --- measured mix ------------------------------------------------------------


def is_product_tree(tree) -> bool:
    """Leaves, NOT chains and FUZ leaves evaluate to product states; every
    other tree the generator builds (AND/OR of non-crisp sets, SUPERPOSE)
    is entangled."""
    while tree[0] == "not":
        tree = tree[1]
    return tree[0] in ("id", "fuz")


def _is_product_result(spec: dict) -> bool | None:
    """Whether the CLI reports a product state for this spec (None when it
    prints no entanglement report)."""
    exp = spec["expect"]
    if exp["exit"] != 0:
        return None
    if spec["cmd"] == "report":
        return exp["state"]["pair"] is None
    if spec["cmd"] != "eval" or exp.get("mode") != "quantum" or exp["tree"][0] == "defuz":
        return None
    return is_product_tree(exp["tree"])


def mix(workload: str, seed: int = 0) -> dict:
    """Register-size histogram, product-state share and refusal share over
    one cycle."""
    sizes: Counter = Counter()
    products = reports = refusals = total = 0
    for spec in generate(workload, seed, cycles=1):
        total += 1
        sizes[spec["qubits"]] += 1
        refusals += spec["expect"]["exit"] != 0
        verdict = _is_product_result(spec)
        if verdict is not None:
            reports += 1
            products += verdict
    return {
        "specs": total,
        "register_qubits_histogram": {str(k): v for k, v in sorted(sizes.items())},
        "product_share_of_reports": products / reports if reports else None,
        "refusal_share": refusals / total,
    }


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description="Print each workload's measured mix.").parse_args(argv)
    out = {w: mix(w) for w in WORKLOADS}
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Independent output checker for the qfuzzy benchmark.

Nothing here imports qfuzzy.  Expected values come from the generator's own
description of each spec (expression tree, sets, state factors) and the
benchmark's own arithmetic: probabilistic connectives, an exact
centre-of-mass pushforward by dynamic programming over (mass, index sum),
closed-form marginals of superposed product states, and a kron-built encoding.
Sampled outputs are checked with Hoeffding bounds whose false-failure chance
is at most ``DELTA`` per spec.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import build_state, is_product_tree, register_sizes

MEMBERSHIP_TOL = 1e-12
DISTRIBUTION_TOL = 1e-10
MARGINAL_TOL = 1e-10
CANONICAL_TOL = 1e-9
AMPLITUDE_TOL = 1e-12
ANGLE_TOL = 1e-8
#: Chance that a correct sampled output fails its check, per spec.
DELTA = 1e-9


# --- reference arithmetic --------------------------------------------------


def window(index: int, k: int, n: int) -> np.ndarray:
    m = np.zeros(n)
    m[max(1, index - k) - 1 : min(n, index + k)] = 0.5
    return m


def memberships(tree, sets: dict, n: int) -> np.ndarray:
    """Membership arithmetic: 1-f, f*g, f+g-fg, square FUZ windows."""
    op = tree[0]
    if op == "id":
        return np.asarray(sets[tree[1]], dtype=np.float64)
    if op == "not":
        return 1.0 - memberships(tree[1], sets, n)
    if op == "and":
        return memberships(tree[1], sets, n) * memberships(tree[2], sets, n)
    if op == "or":
        f = memberships(tree[1], sets, n)
        g = memberships(tree[2], sets, n)
        return f + g - f * g
    if op == "fuz":
        return window(tree[1], tree[2], n)
    raise ValueError(f"no membership arithmetic for {op!r}")


def com_distribution(m) -> dict[int, float]:
    """Exact law of floor(sum of member indices / member count) when element
    i is a member independently with probability m[i-1]; the empty set maps
    to 0.  Only indices of positive probability appear."""
    n = len(m)
    top = n * (n + 1) // 2
    table = np.zeros((n + 1, top + 1))  # [mass, index sum]
    table[0, 0] = 1.0
    for i, p in enumerate(m, start=1):
        grown = table * (1.0 - p)
        grown[1:, i:] += table[:-1, : top + 1 - i] * p
        table = grown
    out: dict[int, float] = {}
    for mass, total in zip(*np.nonzero(table)):
        idx = int(total) // int(mass) if mass else 0
        out[idx] = out.get(idx, 0.0) + float(table[mass, total])
    return dict(sorted(out.items()))


def superposed_marginals(terms, sets: dict, n: int) -> np.ndarray:
    """Per-qubit P(1) of the normalized sum of c_j * encode(f_j), in closed
    form from the factors sqrt(1-f), sqrt(f)."""
    coef = np.array([float(c) for c, _ in terms])
    ms = [memberships(leaf, sets, n) for _, leaf in terms]
    a = np.sqrt(1.0 - np.array(ms))  # [term, element]
    b = np.sqrt(np.array(ms))
    overlap = a[:, None, :] * a[None, :, :] + b[:, None, :] * b[None, :, :]
    cc = coef[:, None] * coef[None, :]
    norm2 = float(np.sum(cc * np.prod(overlap, axis=2)))
    out = np.empty(n)
    for k in range(n):
        rest = np.prod(np.delete(overlap, k, axis=2), axis=2)
        out[k] = float(np.sum(cc * b[:, None, k] * b[None, :, k] * rest)) / norm2
    return out


def hoeffding(outcomes: int, samples: int) -> float:
    """Total-variation radius exceeded with chance <= DELTA: a union bound
    over the 2**outcomes events, each a one-sided Hoeffding bound."""
    return math.sqrt((outcomes * math.log(2) + math.log(1 / DELTA)) / (2 * samples))


# --- checks -------------------------------------------------------------------


class Mismatch(Exception):
    """The CLI's output disagrees with the reference."""


def _close(name: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise Mismatch(f"{name}: shape {got.shape} != {want.shape}")
    if got.size and float(np.max(np.abs(got - want))) > tol:
        raise Mismatch(f"{name}: max deviation {np.max(np.abs(got - want)):.3e} > {tol:g}")


def _check_distribution(got: dict, want: dict[int, float]) -> None:
    keys = set(got) | {str(k) for k in want}
    for key in keys:
        g = float(got.get(key, 0.0))
        w = want.get(int(key), 0.0)
        if abs(g - w) > DISTRIBUTION_TOL:
            raise Mismatch(f"DEFUZ P({key}) = {g!r}, expected {w!r}")


def _check_counts(got: dict, want: dict[int, float], trials: int) -> None:
    if sum(got.values()) != trials:
        raise Mismatch(f"counts sum to {sum(got.values())}, expected {trials}")
    outside = [k for k in got if int(k) not in want]
    if outside:
        raise Mismatch(f"counts at indices {outside} outside the exact support")
    tv = 0.5 * sum(abs(got.get(str(k), 0) / trials - p) for k, p in want.items())
    bound = hoeffding(len(want), trials)
    if tv > bound:
        raise Mismatch(f"TV distance {tv:.4f} exceeds {bound:.4f}")


def _canonical(tree, sets: dict, n: int) -> np.ndarray:
    """Memberships of the whole register for a leaf, NOT chain or FUZ leaf."""
    inner = tree
    while inner[0] == "not":
        inner = inner[1]
    if inner[0] == "fuz":
        one_hot = np.zeros(n)
        one_hot[inner[1] - 1] = 1.0
        value = memberships(tree, sets, n)
        return np.concatenate([one_hot, value])
    return memberships(tree, sets, n)


def _check_quantum_state(out: dict, exp: dict) -> None:
    tree, sets, n = exp["tree"], exp["sets"], exp["n"]
    if out.get("mode") != "quantum" or out.get("universe_size") != n:
        raise Mismatch("quantum eval header is wrong")
    if out["total_qubits"] != register_sizes(tree, n)[-1]:
        raise Mismatch(f"total_qubits {out['total_qubits']} is not the planned size")
    if tree[0] == "sup":
        _close("value_marginals", out["value_marginals"],
               superposed_marginals(tree[1], sets, n), MARGINAL_TOL)
    else:
        _close("value_marginals", out["value_marginals"],
               memberships(tree, sets, n), MARGINAL_TOL)
    ent = out["entanglement"]
    ranks = ent["per_qubit_schmidt_ranks"]
    if len(ranks) != out["total_qubits"]:
        raise Mismatch("one Schmidt rank per qubit expected")
    if is_product_tree(tree):
        if not ent["is_product"] or any(r != 1 for r in ranks):
            raise Mismatch("a leaf, NOT chain or FUZ leaf must be a product state")
        _close("canonical_fuzzy_set", ent["canonical_fuzzy_set"]["memberships"],
               _canonical(tree, sets, n), CANONICAL_TOL)
    elif ent["is_product"] or ent["canonical_fuzzy_set"] is not None:
        raise Mismatch("AND/OR of non-crisp sets and SUPERPOSE must be entangled")


def _check_eval(out: dict, exp: dict) -> None:
    tree, sets, n = exp["tree"], exp["sets"], exp["n"]
    if exp["mode"] == "classical":
        if out.get("mode") != "classical":
            raise Mismatch("classical result expected")
        if tree[0] == "defuz":
            _check_distribution(out["distribution"], com_distribution(memberships(tree[1], sets, n)))
        else:
            if out["universe_size"] != n:
                raise Mismatch("universe_size is wrong")
            _close("memberships", out["memberships"], memberships(tree, sets, n), MEMBERSHIP_TOL)
    elif tree[0] == "defuz":
        if out.get("mode") != "quantum" or out.get("trials") != exp["trials"]:
            raise Mismatch("quantum DEFUZ header is wrong")
        want = com_distribution(memberships(tree[1], sets, n))
        _check_counts(out["counts"], want, exp["trials"])
    else:
        _check_quantum_state(out, exp)


def _check_encode(out: dict, exp: dict) -> None:
    m = exp["memberships"]
    n = len(m)
    want = build_state({"n": n, "factors": [[math.sqrt(1 - p), math.sqrt(p), 0.0] for p in m]})
    if out["layout"] != [["value", 1, n]] or out["universe_size"] != n:
        raise Mismatch("encode layout is wrong")
    amps = np.asarray(out["amplitudes"], dtype=np.float64)
    _close("amplitudes.re", amps[:, 0], want.real, AMPLITUDE_TOL)
    _close("amplitudes.im", amps[:, 1], want.imag, AMPLITUDE_TOL)


def _check_report(out: dict, exp: dict) -> None:
    desc = exp["state"]
    n = desc["n"]
    ranks = [1] * n
    if desc["pair"] is not None:
        p, q = desc["pair"][:2]
        ranks[p - 1] = ranks[q - 1] = 2
        if out["is_product"] or out["canonical_fuzzy_set"] is not None or out["bloch_points"] is not None:
            raise Mismatch("state with an entangled pair reported as a product")
        if out["per_qubit_schmidt_ranks"] != ranks:
            raise Mismatch(f"ranks {out['per_qubit_schmidt_ranks']} != {ranks}")
        return
    if not out["is_product"] or out["per_qubit_schmidt_ranks"] != ranks:
        raise Mismatch("product state not reported as a product")
    factors = np.array(desc["factors"])  # a, |b|, arg b
    _close("canonical_fuzzy_set", out["canonical_fuzzy_set"]["memberships"],
           factors[:, 1] ** 2, CANONICAL_TOL)
    _close("phases", out["phases"], factors[:, 2], ANGLE_TOL)
    theta = np.arctan2(factors[:, 1], factors[:, 0])
    bloch = np.stack([np.sin(2 * theta) * np.cos(factors[:, 2]),
                      np.sin(2 * theta) * np.sin(factors[:, 2]),
                      np.cos(2 * theta)], axis=1)
    _close("bloch_points", out["bloch_points"], bloch, ANGLE_TOL)


def _check_sample(out: dict, exp: dict) -> None:
    desc, shots = exp["state"], exp["shots"]
    n = desc["n"]
    probs = np.abs(build_state(desc)) ** 2
    counts = out["counts"]
    if out["shots"] != shots or sum(counts.values()) != shots:
        raise Mismatch(f"counts sum to {sum(counts.values())}, expected {shots}")
    ones = np.zeros(n)
    for bits, c in counts.items():
        if len(bits) != n or probs[int(bits, 2)] == 0.0:
            raise Mismatch(f"outcome {bits} is outside the exact support")
        ones += c * np.array([b == "1" for b in bits])
    want = np.array([probs.reshape([2] * n).take(1, axis=q).sum() for q in range(n)])
    radius = math.sqrt(math.log(2 * n / DELTA) / (2 * shots))
    worst = float(np.max(np.abs(ones / shots - want)))
    if worst > radius:
        raise Mismatch(f"a qubit marginal is off by {worst:.4f} > {radius:.4f}")


_CHECKS = {"eval": _check_eval, "encode": _check_encode, "report": _check_report,
           "sample": _check_sample}


def check(spec: dict, exit_code: int, stdout: bytes) -> str | None:
    """None when the CLI's exit code and output are right, else the reason."""
    exp = spec["expect"]
    if exit_code != exp["exit"]:
        return f"exit code {exit_code}, expected {exp['exit']}"
    if exp["exit"] != 0:
        return None if stdout == b"" else "a refused spec printed to stdout"
    try:
        _CHECKS[spec["cmd"]](json.loads(stdout), exp)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None

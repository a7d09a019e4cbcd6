"""The Python copy of numpy's seeded multinomial against numpy 2.4.6, one
layer at a time: the PCG64 stream, the pairwise sum, the binomial on both
of its branches, the multinomial with its checks, and the draw of a law.

Each case named in ``TRAPS`` fails if one of the C details the copy keeps
is replaced by the textbook form, shown in its comment.
"""

import math
import random
import struct

import numpy as np
import pytest

import qfuzzy._multinomial as mn
from qfuzzy.statevec import MAX_SHOTS, draw_counts


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 3, 10**300])
def test_pcg64_stream_of_named_seeds(seed):
    ours = mn.PCG64(seed)
    assert [ours.random_raw() for _ in range(64)] == (
        np.random.PCG64(seed).random_raw(64).tolist()
    )


def test_pcg64_stream_of_random_seeds():
    rnd = random.Random(11)
    for _ in range(300):
        seed = rnd.randrange(2 ** rnd.randint(1, 70))
        ours = mn.PCG64(seed)
        theirs = np.random.PCG64(seed).random_raw(8).tolist()
        assert [ours.random_raw() for _ in range(8)] == theirs, seed


def _bits(x):
    return struct.pack("<d", x)


def test_pairwise_sum_equals_np_sum_bit_for_bit():
    rnd = random.Random(13)
    pool = (
        lambda: -0.0,
        lambda: 0.0,
        lambda: rnd.choice((1, -1)) * 5e-324 * rnd.randint(1, 2**20),  # subnormal
        lambda: rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.randint(-300, 300),
        lambda: rnd.random(),
        lambda: -rnd.random(),
    )
    for length in range(1, 301):
        for _ in range(8):
            values = [rnd.choice(pool)() for _ in range(length)]
            want = _bits(float(np.sum(values)))
            assert _bits(mn.pairwise_sum(values)) == want, length
        zeros = [-0.0] * length
        assert _bits(mn.pairwise_sum(zeros)) == _bits(float(np.sum(zeros)))


@pytest.mark.parametrize("side", ["p_below_half", "p_above_half"])
@pytest.mark.parametrize("branch", ["inversion", "btpe"])
def test_binomial_on_both_branches(branch, side):
    rnd = random.Random(f"{branch}-{side}")
    for _ in range(600):
        seed = rnd.randrange(2**70)
        n = rnd.choice((rnd.randint(1, 1000), rnd.randint(1, MAX_SHOTS)))
        if branch == "inversion":  # n * min(p, 1 - p) <= 30
            tail = min(0.5, rnd.uniform(0.0, 30.0) / n)
        else:
            n = max(n, 61)
            tail = rnd.uniform(min(0.5, 30.5 / n), 0.5)
        p = tail if side == "p_below_half" else 1.0 - tail
        ours = mn.PCG64(seed)
        got = [mn.random_binomial(ours, p, n) for _ in range(4)]
        want = np.random.default_rng(seed).binomial(n, p, size=4).tolist()
        assert got == want, (seed, n, p)


def test_binomial_btpe_past_2_to_the_62():
    rnd = random.Random(17)
    for _ in range(2000):
        seed, n = rnd.randrange(2**70), rnd.randint(2**62, MAX_SHOTS)
        p = rnd.uniform(0.45, 0.55)
        ours = mn.PCG64(seed)
        got = [mn.random_binomial(ours, p, n) for _ in range(4)]
        want = np.random.default_rng(seed).binomial(n, p, size=4).tolist()
        assert got == want, (seed, n, p)


def _law(rnd):
    """1-13 weights mixing zeros, 1e-12-scale, ordinary and dominant ones."""
    d = rnd.randint(1, 13)
    law = [
        rnd.choice((0.0, 1e-12 * rnd.random(), rnd.random(), 1e3 * rnd.random()))
        for _ in range(d)
    ]
    if not any(law):
        law[rnd.randrange(d)] = 1.0
    return law


def _crisp_law(rnd):
    """Mostly exact 0s and 1s: the renormalized sum misses 1 by an ulp or
    two, so the multinomial's remainder takes p past 1."""
    d = rnd.randint(2, 13)
    law = [
        rnd.choice((0.0, 1.0, 1.0, 1e-9 * rnd.random(), rnd.random()))
        for _ in range(d)
    ]
    if not any(law):
        law[0] = 1.0
    return law


def _two(mean, n):
    return [mean / n, 1.0 - mean / n]


def _case(rnd, kind):
    """(law, trials) of one kind of multinomial case."""
    if kind == "random":
        return _law(rnd), min(MAX_SHOTS, int(2 ** rnd.uniform(0, 63)))
    if kind == "max_shots":
        return _law(rnd), MAX_SHOTS
    if kind == "near_half":
        p = rnd.uniform(0.45, 0.55)
        return [p, 1.0 - p], rnd.randint(2**62, MAX_SHOTS)
    if kind == "btpe_at_1e18":
        n = rnd.randint(10**17, 10**18)
        return _two(rnd.uniform(30.0, 1e4), n), n
    if kind == "max_shots_small_mean":
        return _two(rnd.uniform(30.0, 1e4), MAX_SHOTS), MAX_SHOTS
    return _crisp_law(rnd), rnd.choice((MAX_SHOTS, rnd.randint(1, MAX_SHOTS)))


KINDS = (
    "random",
    "max_shots",
    "near_half",
    "btpe_at_1e18",
    "max_shots_small_mean",
    "crisp",
)


def test_multinomial_matches_numpy(monkeypatch):
    """20,400 cases of ``Generator.multinomial`` on renormalized laws; the
    crisp ones do take a binomial's p past 1."""
    past_one = []
    binomial = mn.random_binomial

    def recording(bitgen, p, n):
        past_one.append(p > 1.0)
        return binomial(bitgen, p, n)

    monkeypatch.setattr(mn, "random_binomial", recording)
    rnd = random.Random(19)
    for i in range(20_400):
        kind = KINDS[i % len(KINDS)]
        law, n = _case(rnd, kind)
        seed = rnd.randrange(2 ** rnd.choice((8, 64, 70)))
        p = np.array(law)
        pvals = p / p.sum()
        got = mn.multinomial(mn.PCG64(seed), n, pvals.tolist())
        want = np.random.default_rng(seed).multinomial(n, pvals).tolist()
        assert got == want, (kind, law, seed, n)
    assert any(past_one)


#: One case per C detail, each drawn by numpy and missed by the textbook
#: form in its comment.
TRAPS = {
    # inversion's q^n as exp(n * log(1 - p)): draws 0 where numpy draws 1
    "log1p": ([8e-19, 1.0 - 8e-19], 0, 840_000_000_000_000_000),
    # BTPE's Stirling terms z = n + 1 - m and w = n - y + 1 in exact integers
    "stirling_z": (
        [2.2346364341174427e-15, 0.9999999999999978],
        8751102402036473340,
        894098445696265786,
    ),
    "stirling_w": (
        [1.4449115560613313e-14, 0.9999999999999856],
        42810916999474262957,
        543965812946190103,
    ),
    # BTPE's -k * k and n + 1 without the int64 wrap
    "wrap_k_squared": (
        [0.4834333548866968, 0.5165666451133032],
        18446101343128819574,
        7016038154235232730,
    ),
    "wrap_n_plus_1": ([2.040504465342113e-16, 0.9999999999999998], 206, MAX_SHOTS),
    # the remainder takes p past 1: sqrt of a negative, exp overflowing and
    # a NaN cast to int64, each raising in Python
    "p_past_one": (
        [8.8816815063413e-11, 1.0, 1.545640242955777e-10, 1.0, 0.9399077153474088]
        + [1.0, 0.0, 8.740439586781605e-10, 0.0],
        250,
        MAX_SHOTS,
    ),
}


@pytest.mark.parametrize("law, seed, trials", TRAPS.values(), ids=TRAPS.keys())
def test_trap_cases(law, seed, trials):
    want = draw_counts(np.array(law), np.random.default_rng(seed), trials)
    assert mn.draw_law(law, seed, trials) == want


def test_c_values_where_python_raises():
    """log(0) is -inf (BTPE's squeeze relies on it), log and sqrt of a
    negative are NaN, exp overflows to inf, and a NaN or out-of-range cast
    to int64 is INT64_MIN."""
    assert mn._log(0.0) == -math.inf
    assert math.isnan(mn._log(-1e-300))
    assert math.isnan(mn._sqrt(-1.0))
    assert mn._exp(1000.0) == math.inf
    assert mn._to_int64(math.nan) == mn._to_int64(2.0**63) == -(2**63)
    assert mn._to_int64(-2.5) == -2
    assert mn._wrap(-(3_100_000_000**2)) == -(3_100_000_000**2) + 2**64
    assert mn._wrap(MAX_SHOTS + 1) == -(2**63)


@pytest.mark.parametrize(
    "pvals",
    [
        [-0.1, 1.1],
        [0.5, -1e-300, 0.5],
        [math.nan, 1.0],
        [1.5],
        [0.6, 0.6, 0.1],
        [0.5, 0.5 + 2e-12, 0.0],
    ],
    ids=[
        "negative", "tiny_negative", "nan", "above_one", "over_summed",
        "over_by_2e-12",
    ],
)
def test_pvals_refusals_match_numpy(pvals):
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng(3).multinomial(10, np.array(pvals))
    with pytest.raises(ValueError) as ours:
        mn.multinomial(mn.PCG64(3), 10, pvals)
    assert str(ours.value) == str(theirs.value)


def test_pvals_within_the_sum_slack_are_drawn():
    pvals = [0.5, 0.5 + 5e-13, 0.0]
    assert mn.multinomial(mn.PCG64(3), 10, pvals) == (
        np.random.default_rng(3).multinomial(10, np.array(pvals)).tolist()
    )


@pytest.mark.parametrize("law", [[0.0, 0.0], [math.nan, 1.0], [math.inf, 1.0]])
def test_draw_law_refuses_what_draw_counts_refuses(law):
    with np.errstate(invalid="ignore", divide="ignore"):
        with pytest.raises(ValueError) as theirs:
            draw_counts(np.array(law), np.random.default_rng(0), 10)
    with pytest.raises(ValueError) as ours:
        mn.draw_law(law, 0, 10)
    assert str(ours.value) == str(theirs.value)

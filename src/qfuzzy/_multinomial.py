"""``np.random.default_rng(seed).multinomial`` in Python integers and
floats, so that a quantum DEFUZ that builds no register loads no numpy.

:func:`draw_law` gives the same counts, bit for bit, as
``draw_counts(np.array(law), np.random.default_rng(seed), trials)`` in
:mod:`qfuzzy.statevec`, for every seed and every ``trials`` up to
``MAX_SHOTS``.  Its parts follow numpy 2.4.6 (``bit_generator.pyx``,
``pcg64.h``, ``_generator.pyx`` and ``distributions.c``):

- ``probs / probs.sum()`` renormalizes with numpy's pairwise sum;
- the multinomial checks ``pvals`` as numpy does, then draws one binomial
  per category from the trials and the probability left over;
- the binomial draws by inversion when n * min(p, 1 - p) <= 30, and by
  BTPE (Kachitvichyanukul & Schmeiser, CACM 31(2), 1988) otherwise;
- ``SeedSequence`` hashes the seed's 32-bit words into a pool of four and
  draws the 128-bit state and increment of PCG64 (O'Neill,
  HMC-CS-2014-0905, 2014), whose XSL-RR output gives each 64-bit word.

The C code's arithmetic is kept where it differs from Python's: an int64
meets a double as a double, two int64 expressions in BTPE wrap, and
``log``, ``sqrt``, ``exp`` and a cast to int64 return -inf, NaN, inf and
INT64_MIN where Python raises.  The running remainder of the multinomial
can push a binomial's p a little past 1, which reaches those values.
"""

from __future__ import annotations

import math

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
#: PCG's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: numpy's pairwise sum adds up to this many terms without splitting them.
_PW_BLOCK = 128
_PVALS_RANGE = "pvals < 0, pvals > 1 or pvals contains NaNs"


def draw_law(law: list[float], seed: int, trials: int) -> dict[int, int]:
    """Counts of ``trials`` draws of an index from ``law``, renormalized
    first: ``default_rng(seed).multinomial(trials, p / p.sum())`` for
    ``p = np.array(law)``, the indices drawn at least once in ascending
    order.  Raises numpy's ``ValueError`` for a law it refuses."""
    total = pairwise_sum(law)
    if not total:  # numpy's p / 0 is inf or NaN, which the range check refuses
        raise ValueError(_PVALS_RANGE)
    counts = multinomial(PCG64(seed), trials, [p / total for p in law])
    return {i: c for i, c in enumerate(counts) if c}


def multinomial(bitgen: PCG64, n: int, pvals: list[float]) -> list[int]:
    """``Generator.multinomial(n, pvals)`` for one draw: numpy's checks of
    ``pvals``, then its ``random_multinomial``."""
    if not all(0.0 <= p <= 1.0 for p in pvals):
        raise ValueError(_PVALS_RANGE)
    if _kahan_sum(pvals[:-1]) > 1.0 + 1e-12:
        raise ValueError("sum(pvals[:-1]) > 1.0")
    counts = [0] * len(pvals)
    remaining_p = 1.0
    for j, p in enumerate(pvals[:-1]):
        counts[j] = random_binomial(bitgen, p / remaining_p, n)
        n -= counts[j]
        if n <= 0:
            break
        remaining_p -= p
    if n > 0:
        counts[-1] = n
    return counts


def random_binomial(bitgen: PCG64, p: float, n: int) -> int:
    """numpy's ``random_binomial``: drawn for min(p, 1 - p), by inversion
    when n times it is at most 30 and by BTPE otherwise.  Each draw lies in
    [0, n], so the multinomial's counts need no int64 wrap."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return (_inversion if p * n <= 30.0 else _btpe)(bitgen, n, p)
    q = 1.0 - p
    return n - (_inversion if q * n <= 30.0 else _btpe)(bitgen, n, q)


def _inversion(bitgen: PCG64, n: int, p: float) -> int:
    q = 1.0 - p
    qn = _exp(n * math.log1p(-p))
    mean = n * p
    bound = mean + 10.0 * _sqrt(mean * q + 1)
    bound = _to_int64(float(n) if float(n) < bound else bound)
    x = 0
    px = qn
    u = bitgen.next_double()
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = bitgen.next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _btpe(bitgen: PCG64, n: int, r: float) -> int:
    """BTPE for 0 < ``r`` <= 1/2, with numpy's steps and its doubles."""
    q = 1.0 - r
    fm = n * r + r
    m = _to_int64(math.floor(fm))
    nrq = n * r * q
    p1 = math.floor(2.195 * math.sqrt(nrq) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    while True:  # Step 10
        u = bitgen.next_double() * p4
        v = bitgen.next_double()
        if u <= p1:
            return _to_int64(math.floor(xm - p1 * v + u))
        if u <= p2:  # Step 20
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = _to_int64(math.floor(x))
        elif u <= p3:  # Step 30; C's cast of floor(-inf) is rejected too
            if v == 0.0:
                continue
            y = _to_int64(math.floor(xl + math.log(v) / laml))
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # Step 40
            if v == 0.0:
                continue
            y = _to_int64(math.floor(xr - math.log(v) / lamr))
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)  # Step 50
        if not (k > 20 and float(k) < nrq / 2.0 - 1):
            s = r / q
            a = s * _wrap(n + 1)  # int64: wraps at n = 2^63 - 1
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v > f:
                continue
            return y
        # Step 52
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)
        t = _wrap(-k * k) / (2 * nrq)  # int64: wraps past k = 3.04e9
        big_a = _log(v)
        if big_a < t - rho:
            return y
        if big_a > t + rho:
            continue
        x1 = float(y) + 1  # doubles, not exact integers
        f1 = float(m) + 1
        z = float(n) + 1 - m
        w = float(n) - y + 1
        if big_a > (
            xm * math.log(f1 / x1)
            + (n - m + 0.5) * math.log(z / w)
            + (y - m) * math.log(w * r / (x1 * q))
            + _stirling(f1)
            + _stirling(z)
            + _stirling(x1)
            + _stirling(w)
        ):
            continue
        return y


def _stirling(x: float) -> float:
    x2 = x * x
    series = 13680.0 - (462.0 - (132.0 - (99.0 - 140.0 / x2) / x2) / x2) / x2
    return series / x / 166320.0


class PCG64:
    """numpy's ``PCG64(seed)``: a 128-bit LCG read through XSL-RR."""

    def __init__(self, seed: int):
        self.state, self.inc = _seed_state(seed)

    def random_raw(self) -> int:
        self.state = s = (self.state * _PCG_MULT + self.inc) & _M128
        x = (s >> 64 ^ s) & _M64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def next_double(self) -> float:
        return (self.random_raw() >> 11) * (1.0 / 9007199254740992.0)


def _seed_state(seed: int) -> tuple[int, int]:
    """PCG64's state and increment for ``SeedSequence(seed)``, a seed >= 0."""
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    words = []  # generate_state(4, uint64): eight words, paired little-endian
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    u64 = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
    inc = (u64[2] << 65 | u64[3] << 1 | 1) & _M128
    # pcg64_srandom_r: step from 0, add the initial state, step again
    state = ((inc + (u64[0] << 64 | u64[1])) * _PCG_MULT + inc) & _M128
    return state, inc


def pairwise_sum(values: list[float]) -> float:
    """``np.sum`` of a float64 array of ``values``: the identity 0.0 plus
    eight interleaved partial sums per block of up to 128 terms, longer runs
    split in halves rounded down to a multiple of 8."""
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(a: list[float], lo: int, n: int) -> float:
    if n < 8:
        res = 0.0
        for x in a[lo : lo + n]:
            res += x
        return res
    if n <= _PW_BLOCK:
        r = a[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r = [x + y for x, y in zip(r, a[i : i + 8])]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[end : lo + n]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


def _kahan_sum(values: list[float]) -> float:
    if not values:
        return 0.0
    total, c = values[0], 0.0
    for x in values[1:]:
        y = x - c
        t = total + y
        c = (t - total) - y
        total = t
    return total


def _wrap(value: int) -> int:
    """``value`` as C's int64 arithmetic leaves it, wrapped mod 2^64."""
    return (value - _INT64_MIN & _M64) + _INT64_MIN


def _to_int64(x: float) -> int:
    """``(int64_t)x`` on x86-64: truncated, and INT64_MIN for a NaN or a
    value out of range."""
    return int(x) if -(2.0**63) <= x < 2.0**63 else _INT64_MIN


def _log(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 else math.nan


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf

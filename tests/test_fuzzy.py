import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import com_of_sums, peak_bytes, reference_com_law

from qfuzzy.fuzzy import (
    MAX_ENUM_UNIVERSE,
    CrispSubset,
    FuzzySet,
    classical_fuzzify,
    com_law,
    com_pushforward,
    complement,
    crisp_subset_probability,
    intersect,
    union,
)
from qfuzzy.reference import com_index, oracle_distribution

memberships = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=8,
)


def paired(draw_size=8):
    return st.integers(min_value=1, max_value=draw_size).flatmap(
        lambda n: st.tuples(
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
        )
    )


# --- constructors -----------------------------------------------------------


def test_membership_range_validation():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FuzzySet([1.5])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        FuzzySet([-0.1, 0.5])
    with pytest.raises(ValueError, match="finite"):
        FuzzySet([np.nan])


def test_crisp_subset_validation():
    with pytest.raises(ValueError, match="only '0' and '1'"):
        CrispSubset("012")
    assert CrispSubset("0110").elements == (2, 3)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: FuzzySet([]), "memberships must be a nonempty 1-d array"),
        (lambda: CrispSubset(""), "bits must be nonempty"),
    ],
    ids=["empty_set", "empty_subset"],
)
def test_library_refusals(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


@pytest.mark.parametrize(
    "values, message",
    [
        (np.full((2, 2), 0.5), "memberships must be a nonempty 1-d array"),
        (np.array(0.5), "memberships must be a nonempty 1-d array"),
        ([[0.5], [0.5]], "memberships must be a nonempty 1-d array"),
        (0.5, "memberships must be a nonempty 1-d array"),
        (np.array([0.5, np.inf]), "memberships must be finite"),
        ([0.5, 1.0000000000000002, -1e-300], "memberships must lie in [0, 1], got 1.0000000000000002"),
        ((0.25, -1e-300, 2.0), "memberships must lie in [0, 1], got -1e-300"),
        ("101", "memberships must be a nonempty 1-d array"),
        (b"\x00\x01", "memberships must be a nonempty 1-d array"),
        (bytearray(b"\x01"), "memberships must be a nonempty 1-d array"),
    ],
    ids=[
        "2d_array", "0d_array", "nested_list", "scalar", "inf", "over_one", "under_zero",
        "str", "bytes", "bytearray",
    ],
)
def test_membership_refusals_name_the_shape_or_the_first_bad_value(values, message):
    with pytest.raises(ValueError) as err:
        FuzzySet(values)
    assert str(err.value) == message


def test_set_does_not_follow_its_source():
    source = np.array([0.5, 0.2])
    f = FuzzySet(source)
    source[0] = 7.0
    assert f.memberships == (0.5, 0.2)
    with pytest.raises(TypeError):
        f.memberships[1] = math.nan
    assert f.memberships == (0.5, 0.2)


# --- connectives -------------------------------------------------------------

#: 0 and 1, one ulp from each, subnormals and the smallest normal.
EDGE_MEMBERSHIPS = [
    0.0,
    1.0,
    math.nextafter(0.0, 1.0),
    math.nextafter(1.0, 0.0),
    3 * math.ulp(0.0),
    math.nextafter(2.2250738585072014e-308, 0.0),
    2.2250738585072014e-308,
    0.5,
]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


_edge_or_any = st.floats(0.0, 1.0) | st.sampled_from(EDGE_MEMBERSHIPS)


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.lists(_edge_or_any, min_size=n, max_size=n),
            st.lists(_edge_or_any, min_size=n, max_size=n),
        )
    )
)
def test_connectives_keep_the_bits_of_the_array_arithmetic(pair):
    """The element-wise Python connectives against the numpy expressions
    they replaced, bit for bit."""
    f, g = np.array(pair[0]), np.array(pair[1])
    a, b = FuzzySet(pair[0]), FuzzySet(pair[1])
    assert _bits(complement(a).memberships) == _bits(1.0 - f)
    assert _bits(intersect(a, b).memberships) == _bits(f * g)
    assert _bits(union(a, b).memberships) == _bits(f + g - f * g)


def test_fuzzify_keeps_the_bits_of_the_array_window():
    for n in range(1, 10):
        for index in range(1, n + 1):
            for k in range(n + 2):
                window = np.zeros(n)
                window[max(1, index - k) - 1 : min(n, index + k)] = 0.5
                got = classical_fuzzify(index, k, n).memberships
                assert _bits(got) == _bits(window), (n, index, k)


def test_complement_crisp():
    assert np.array_equal(complement(FuzzySet([0, 1])).memberships, [1, 0])


def test_complement_fixed_point():
    assert np.array_equal(complement(FuzzySet([0.5, 0.5])).memberships, [0.5, 0.5])


def test_complement_values():
    out = complement(FuzzySet([0.2, 0.7]))
    assert out.memberships == pytest.approx([0.8, 0.3])


@given(memberships)
def test_complement_involution(values):
    f = FuzzySet(values)
    twice = complement(complement(f))
    assert np.max(np.abs(np.asarray(twice.memberships) - f.memberships)) <= 1e-15


def test_intersect_identity_element():
    out = intersect(FuzzySet([1, 1]), FuzzySet([0.3, 0.9]))
    assert out.memberships == pytest.approx([0.3, 0.9])


def test_intersect_halves():
    assert intersect(FuzzySet([0.5]), FuzzySet([0.5])).memberships == pytest.approx([0.25])


def test_intersect_values():
    out = intersect(FuzzySet([0, 0.4]), FuzzySet([0.7, 0.5]))
    assert out.memberships == pytest.approx([0, 0.2])


def test_intersect_size_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        intersect(FuzzySet([0.5]), FuzzySet([0.5, 0.5]))


@given(paired())
def test_intersect_commutative_and_annihilated(pair):
    f, g = FuzzySet(pair[0]), FuzzySet(pair[1])
    assert np.max(
        np.abs(np.asarray(intersect(f, g).memberships) - intersect(g, f).memberships)
    ) <= 1e-12
    zero = FuzzySet(np.zeros(f.universe_size))
    assert np.max(np.abs(intersect(f, zero).memberships)) <= 1e-12


@given(paired())
def test_intersect_associative(pair):
    f, g = FuzzySet(pair[0]), FuzzySet(pair[1])
    h = complement(f)
    left = intersect(intersect(f, g), h)
    right = intersect(f, intersect(g, h))
    assert np.max(np.abs(np.asarray(left.memberships) - right.memberships)) <= 1e-12


def test_union_empty_sets():
    assert np.array_equal(union(FuzzySet([0, 0]), FuzzySet([0, 0])).memberships, [0, 0])


def test_union_halves():
    assert union(FuzzySet([0.5]), FuzzySet([0.5])).memberships == pytest.approx([0.75])


def test_union_absorption():
    out = union(FuzzySet([1, 0.3]), FuzzySet([0.2, 0]))
    assert out.memberships == pytest.approx([1, 0.3])


@given(paired())
def test_union_de_morgan(pair):
    f, g = FuzzySet(pair[0]), FuzzySet(pair[1])
    via_de_morgan = complement(intersect(complement(f), complement(g)))
    assert np.max(
        np.abs(np.asarray(union(f, g).memberships) - via_de_morgan.memberships)
    ) <= 1e-12


# --- fuzzification ------------------------------------------------------------


def test_fuzzify_window():
    out = classical_fuzzify(3, 1, 5)
    assert np.array_equal(out.memberships, [0, 0.5, 0.5, 0.5, 0])


def test_fuzzify_radius_zero():
    assert np.array_equal(classical_fuzzify(1, 0, 3).memberships, [0.5, 0, 0])


def test_fuzzify_clipped_window():
    assert np.array_equal(classical_fuzzify(1, 2, 3).memberships, [0.5, 0.5, 0.5])


def test_fuzzify_errors():
    with pytest.raises(ValueError, match="out of range"):
        classical_fuzzify(0, 1, 3)
    with pytest.raises(ValueError, match="out of range"):
        classical_fuzzify(4, 1, 3)
    with pytest.raises(ValueError, match=">= 0"):
        classical_fuzzify(2, -1, 3)


# --- center of mass -------------------------------------------------------------


def test_com_single_bit():
    assert com_index("0100") == 2


def test_com_floor():
    assert com_index("0110") == 2  # floor((2 + 3) / 2)


def test_com_sentinel():
    assert com_index("0000") == 0


def test_com_accepts_crisp_subset():
    assert com_index(CrispSubset("0011")) == 3


def test_com_reflection_covariance():
    # exact centers only: floor is lossless there, so reflection commutes
    for n in range(1, 9):
        for r in range(1, n + 1):
            for positions in combinations(range(1, n + 1), r):
                if sum(positions) % r:
                    continue
                bits = "".join("1" if i in positions else "0" for i in range(1, n + 1))
                assert com_index(bits[::-1]) == n + 1 - com_index(bits)


# --- collapse probabilities -------------------------------------------------------


def test_crisp_probability_reproduces_crisp_set():
    assert crisp_subset_probability(FuzzySet([1, 0]), CrispSubset("10")) == 1.0


def test_crisp_probability_uniform():
    f = FuzzySet([0.5, 0.5])
    for bits in ("00", "01", "10", "11"):
        assert crisp_subset_probability(f, CrispSubset(bits)) == pytest.approx(0.25)


def test_crisp_probability_product():
    f = FuzzySet([0.3, 0.6])
    assert crisp_subset_probability(f, CrispSubset("10")) == pytest.approx(0.12)


def test_crisp_probability_size_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        crisp_subset_probability(FuzzySet([0.5]), CrispSubset("01"))


@settings(max_examples=30)
@given(memberships)
def test_crisp_probabilities_sum_to_one(values):
    f = FuzzySet(values)
    n = f.universe_size
    total = sum(
        crisp_subset_probability(f, CrispSubset(format(i, f"0{n}b")))
        for i in range(1 << n)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_oracle_crisp():
    assert oracle_distribution(FuzzySet([1.0])) == {"0": 0.0, "1": 1.0}


def test_oracle_half():
    dist = oracle_distribution(FuzzySet([0.5]))
    assert dist["0"] == pytest.approx(0.5) and dist["1"] == pytest.approx(0.5)


def test_oracle_products():
    dist = oracle_distribution(FuzzySet([0.3, 0.6]))
    assert dist["00"] == pytest.approx(0.28)
    assert dist["01"] == pytest.approx(0.42)
    assert dist["10"] == pytest.approx(0.12)
    assert dist["11"] == pytest.approx(0.18)


def test_oracle_matches_pointwise_formula():
    rng = np.random.default_rng(61)
    for n in range(1, 11):
        f = FuzzySet(rng.random(n))
        dist = oracle_distribution(f)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
        probe = format(int(rng.integers(1 << n)), f"0{n}b")
        assert dist[probe] == pytest.approx(
            crisp_subset_probability(f, CrispSubset(probe)), abs=1e-12
        )


def test_oracle_refuses_large_universe():
    with pytest.raises(ValueError, match="too large"):
        oracle_distribution(FuzzySet(np.full(21, 0.5)))


def test_com_pushforward_half_pair():
    assert com_pushforward(FuzzySet([0.5, 0.5])) == pytest.approx(
        {0: 0.25, 1: 0.5, 2: 0.25}
    )


def test_com_pushforward_crisp():
    assert com_pushforward(FuzzySet([1, 0, 0, 0])) == {1: 1.0}


def enumerated_pushforward(f):
    """The reference: every crisp subset of positive probability, pushed
    through com_index one bitstring at a time."""
    out = {}
    for bits, p in oracle_distribution(f).items():
        if p > 0.0:
            idx = com_index(bits)
            out[idx] = out.get(idx, 0.0) + p
    return dict(sorted(out.items()))


def assert_matches_enumeration(values):
    f = FuzzySet(values)
    expected = enumerated_pushforward(f)
    got = com_pushforward(f)
    assert list(got) == list(expected)
    assert all(isinstance(k, int) and type(v) is float for k, v in got.items())
    assert max(abs(got[k] - expected[k]) for k in expected) <= 1e-12


grid_memberships = st.lists(
    st.one_of(
        st.sampled_from([0.0, 1.0, 1e-300]),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(grid_memberships)
def test_com_pushforward_matches_enumeration(values):
    assert_matches_enumeration(values)


@pytest.mark.parametrize(
    "values",
    [
        [0.3],
        [0.0],
        [1.0],
        [0.0] * 7,
        [1.0] * 7,
        [1.0, 0.0, 0.4, 1.0, 0.0, 0.7],
        [0.0, 1.0, 1.0, 0.0, 1e-300, 1.0],
        [1e-300, 1e-30, 1e-300, 0.5, 1e-30],
    ],
)
def test_com_pushforward_pinned_cases(values):
    assert_matches_enumeration(values)


def test_com_pushforward_exact_endpoints():
    assert com_pushforward(FuzzySet([0.0] * 5)) == {0: 1.0}
    assert com_pushforward(FuzzySet([1.0] * 5)) == {3: 1.0}
    assert com_pushforward(FuzzySet([0, 1, 1, 0, 1])) == {3: 1.0}


def test_com_pushforward_does_not_enumerate(monkeypatch):
    import qfuzzy.reference

    def refuse(f):
        raise AssertionError("com_pushforward enumerated the subsets")

    monkeypatch.setattr(qfuzzy.reference, "oracle_distribution", refuse)
    monkeypatch.setattr(qfuzzy.reference, "com_index", refuse)
    f = FuzzySet(np.linspace(0.05, 0.95, 20))
    dist = com_pushforward(f)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def assert_bits_equal_com_law(values):
    """:func:`com_pushforward` is the numpy program of (1 - m, m) bit for
    bit: the same indices, in order, and the same floats."""
    m = np.array(values, dtype=float)
    law = reference_com_law(1.0 - m, m)
    expected = {k: float(x).hex() for k, x in enumerate(law) if x > 0}
    got = com_pushforward(FuzzySet(values))
    assert list(got) == list(expected)
    assert {k: x.hex() for k, x in got.items()} == expected


EDGE_MEMBERSHIPS = [0.0, 1.0, 1e-300, 5e-324, 1 - 2**-53]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.sampled_from(EDGE_MEMBERSHIPS),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        ),
        min_size=1,
        max_size=MAX_ENUM_UNIVERSE,
    )
)
def test_com_pushforward_bits_equal_com_law(values):
    assert_bits_equal_com_law(values)


@pytest.mark.parametrize("n", range(1, MAX_ENUM_UNIVERSE + 1))
def test_com_pushforward_bits_equal_com_law_pinned(n):
    rng = np.random.default_rng(300 + n)
    m = rng.random(n)
    edge = rng.random(n) < 0.3
    m[edge] = rng.choice(EDGE_MEMBERSHIPS, edge.sum())
    assert_bits_equal_com_law(m.tolist())
    assert_bits_equal_com_law((EDGE_MEMBERSHIPS * n)[:n])


def test_com_law_bytes_equal_grid_binning():
    rng = np.random.default_rng(281)
    for n in list(range(1, 41)) + [60, 97]:
        m = rng.random(n)
        m[rng.random(n) < 0.2] = 0.0
        m[rng.random(n) < 0.2] = 1.0
        # membership weights, then generic (absent, present) pairs
        for absent, present in ((1.0 - m, m), (rng.random(n), rng.random(n))):
            got = com_law(absent.tolist(), present.tolist())
            assert np.array(got).tobytes() == reference_com_law(absent, present).tobytes()


def test_com_law_peak_is_its_table_of_floats():
    """The table holds one float object (24 bytes) and one list slot (8)
    per cell; the steps and the binning add little beside it."""
    n = 40
    m = np.random.default_rng(283).random(n)
    cells = (n + 1) * (n * (n + 1) // 2 + 1)
    assert peak_bytes(com_law, (1.0 - m).tolist(), m.tolist()) <= 1.25 * 32 * cells


def fourier_com_law(absent, present):
    """:func:`com_law` by another method: the (count, index-sum) table is the
    coefficient array of prod_i (absent_i + present_i x y^i), read back from
    the product's values on a grid of roots of unity by an inverse 2-d DFT
    (the characteristic-function method for the Poisson-binomial law, with
    the index sum as a second variable).  The grid is as large as the table,
    so no coefficient aliases."""
    n = absent.size
    counts, sums = n + 1, n * (n + 1) // 2 + 1
    x = np.exp(-2j * np.pi * np.arange(counts) / counts)[:, None]
    y = np.exp(-2j * np.pi * np.arange(sums) / sums)[None, :]
    values = np.ones((counts, sums), dtype=np.complex128)
    for i, (w0, w1) in enumerate(zip(absent, present), start=1):
        values *= w0 + w1 * x * y**i
    p = np.fft.ifft2(values).real
    count, index_sum = np.indices(p.shape)
    mass = np.bincount(com_of_sums(count, index_sum).ravel(), weights=p.ravel())
    return mass[: n + 1]


@pytest.mark.parametrize("n", [21, 40, 60])
def test_com_law_matches_fourier_oracle(n):
    rng = np.random.default_rng(n)
    m = rng.random(n)
    m[rng.random(n) < 0.2] = 0.0
    m[rng.random(n) < 0.2] = 1.0
    # membership weights, then generic (absent, present) pairs, whose law
    # has total mass prod_i (absent_i + present_i) rather than 1
    for absent, present in ((1.0 - m, m), (rng.random(n), rng.random(n))):
        scale = np.prod(absent + present)
        got = np.array(com_law(absent.tolist(), present.tolist()))
        assert np.max(np.abs(got - fourier_com_law(absent, present))) <= 1e-12 * scale

import math
from functools import reduce

import numpy as np
import pytest

from helpers import (
    peak_bytes,
    random_product_state,
    random_qubit,
    random_state,
    random_unitary,
)

from qfuzzy.analysis import entanglement_report
from qfuzzy.errors import ResourceLimitError
from qfuzzy.fuzzy import FuzzySet
from qfuzzy.qfs import encode
from qfuzzy.reference import (
    IDENTITY,
    PAULI_X,
    apply_controlled,
    apply_single,
    ground_state,
    measure_qubits,
    one_probabilities,
    rotation_gate,
)
from qfuzzy.statevec import (
    StateVector,
    basis_probability,
    basis_state,
    bits_to_index,
    bloch_point,
    draw_counts,
    factor_product_state,
    inner_product,
    sample_distribution,
    schmidt_rank,
    tensor_product,
)

BELL = StateVector(2, np.array([1, 0, 0, 1]) / math.sqrt(2))


def assert_states_close(a, b, tol=1e-12):
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= tol


# --- construction ----------------------------------------------------------


def test_ground_state_one_qubit():
    assert np.array_equal(ground_state(1).amplitudes, [1, 0])


def test_ground_state_two_qubits():
    assert np.array_equal(ground_state(2).amplitudes, [1, 0, 0, 0])


def test_ground_state_cap():
    with pytest.raises(ResourceLimitError, match="cap of 24"):
        ground_state(25)
    with pytest.raises(ResourceLimitError, match="cap of 4"):
        ground_state(5, cap=4)


def test_state_vector_validation():
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        StateVector(2, np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        StateVector(1, np.array([np.nan, 0]))


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE + [complex(0, x) for x in NON_FINITE])
@pytest.mark.parametrize("step", [1, 3])
def test_state_vector_rejects_non_finite_part(bad, step):
    amps = np.full(8 * step, 0.25 + 0.25j)
    amps[5 * step] = bad
    with pytest.raises(ValueError, match="finite"):
        StateVector(3, amps[::step])


def test_state_vector_check_allocates_no_array():
    amps = random_state(np.random.default_rng(5), 16).amplitudes
    assert peak_bytes(StateVector, 16, amps) < 4096


def test_basis_state_bit_order():
    # element 1 is the most significant bit: |110> sits at index 6
    s = basis_state("110")
    assert np.argmax(np.abs(s.amplitudes)) == 6


# --- single-qubit gates ----------------------------------------------------


def test_not_flips_ground():
    assert_states_close(apply_single(basis_state("0"), PAULI_X, 1), basis_state("1"))


def test_identity_leaves_state():
    rng = np.random.default_rng(11)
    s = random_state(rng, 3)
    assert_states_close(apply_single(s, IDENTITY, 2), s)


def test_rotation_on_first_qubit_of_two():
    out = apply_single(ground_state(2), rotation_gate(0.5), 1)
    r = math.sqrt(0.5)
    assert_states_close(out, StateVector(2, np.array([r, 0, r, 0])))


def test_apply_single_matches_full_matrix():
    # oracle: build the full 2^n x 2^n operator with Kronecker products
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        target = int(rng.integers(1, n + 1))
        gate = random_unitary(rng)
        s = random_state(rng, n)
        ops = [gate if q == target else np.eye(2) for q in range(1, n + 1)]
        full = reduce(np.kron, ops)
        expected = full @ s.amplitudes
        got = apply_single(s, gate, target)
        assert np.max(np.abs(got.amplitudes - expected)) <= 1e-12


def test_apply_single_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        apply_single(ground_state(1), np.array([[1, 0], [0, 2]]), 1)


def test_apply_single_rejects_bad_target():
    with pytest.raises(ValueError, match="out of range"):
        apply_single(ground_state(2), PAULI_X, 3)


def test_unitarity_preserves_norm():
    rng = np.random.default_rng(23)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        s = random_state(rng, n)
        out = apply_single(s, random_unitary(rng), int(rng.integers(1, n + 1)))
        assert abs(out.norm() - 1.0) <= 1e-10


def test_apply_single_is_linear():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = 3
        a, b = random_state(rng, n), random_state(rng, n)
        alpha = complex(rng.normal(), rng.normal())
        beta = complex(rng.normal(), rng.normal())
        gate = random_unitary(rng)
        combo = StateVector(n, alpha * a.amplitudes + beta * b.amplitudes)
        lhs = apply_single(combo, gate, 2).amplitudes
        rhs = (
            alpha * apply_single(a, gate, 2).amplitudes
            + beta * apply_single(b, gate, 2).amplitudes
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


# --- controlled gates ------------------------------------------------------


def test_toffoli_sets_target():
    out = apply_controlled(basis_state("110"), PAULI_X, [1, 2], 3)
    assert_states_close(out, basis_state("111"))


def test_toffoli_unsatisfied_control():
    s = basis_state("010")
    assert_states_close(apply_controlled(s, PAULI_X, [1, 2], 3), s)


def test_toffoli_truth_table():
    # exhaustive 8x8: output bit = c XOR (a AND b)
    for idx in range(8):
        bits = format(idx, "03b")
        a, b, c = (int(x) for x in bits)
        expected = f"{a}{b}{c ^ (a & b)}"
        out = apply_controlled(basis_state(bits), PAULI_X, [1, 2], 3)
        assert_states_close(out, basis_state(expected))


def test_controlled_x_is_involution():
    rng = np.random.default_rng(3)
    s = random_state(rng, 3)
    once = apply_controlled(s, PAULI_X, [1, 3], 2)
    twice = apply_controlled(once, PAULI_X, [1, 3], 2)
    assert_states_close(twice, s)


def test_controlled_rejects_collision():
    with pytest.raises(ValueError, match="pairwise distinct"):
        apply_controlled(ground_state(3), PAULI_X, [1, 2], 2)


def test_controlled_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        apply_controlled(ground_state(3), PAULI_X, [1, 4], 3)


# --- inner products and probabilities ---------------------------------------


def test_inner_product_normalized_self():
    rng = np.random.default_rng(17)
    s = random_state(rng, 4)
    assert abs(inner_product(s, s) - 1.0) <= 1e-10


def test_inner_product_distinct_basis_states():
    assert inner_product(basis_state("10"), basis_state("01")) == 0


def test_inner_product_crisp_clash():
    a = encode(FuzzySet([1.0])).state
    b = encode(FuzzySet([0.0])).state
    assert abs(inner_product(a, b)) <= 1e-12


def test_inner_product_conjugate_linearity():
    rng = np.random.default_rng(19)
    a, b = random_state(rng, 3), random_state(rng, 3)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_inner_product_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        inner_product(ground_state(2), ground_state(3))


def test_basis_probability_basis_state():
    assert basis_probability(basis_state("10"), "10") == 1.0


def test_basis_probability_half_membership():
    assert basis_probability(encode(FuzzySet([0.5])).state, "1") == pytest.approx(0.5)


def test_basis_probability_product_rule():
    state = encode(FuzzySet([0.3, 0.6])).state
    assert basis_probability(state, "10") == pytest.approx(0.3 * 0.4, abs=1e-12)


def test_basis_probability_length_mismatch():
    with pytest.raises(ValueError, match="expected 2 bits"):
        basis_probability(ground_state(2), "101")


# --- measurement and sampling ------------------------------------------------


def test_measure_deterministic():
    rng = np.random.default_rng(0)
    bits, collapsed = measure_qubits(basis_state("1"), [1], rng)
    assert bits == "1"
    assert_states_close(collapsed, basis_state("1"))


def test_measure_born_frequency():
    rng = np.random.default_rng(42)
    plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
    ones = sum(measure_qubits(plus, [1], rng)[0] == "1" for _ in range(100_000))
    assert abs(ones / 100_000 - 0.5) < 0.01


def test_measure_all_uniform_four_outcomes():
    rng = np.random.default_rng(7)
    state = encode(FuzzySet([0.5, 0.5])).state
    counts = {"00": 0, "01": 0, "10": 0, "11": 0}
    shots = 100_000
    for _ in range(shots):
        bits, _ = measure_qubits(state, [1, 2], rng)
        counts[bits] += 1
    for c in counts.values():
        assert abs(c / shots - 0.25) < 0.01


def test_measure_draws_as_generator_choice():
    # the outcome sequence for a seed is the one Generator.choice draws from
    # the Born marginal of the targets, here qubits 3 and 1 in that order
    state = random_state(np.random.default_rng(61), 3)
    probs = np.abs(state.amplitudes.reshape(2, 2, 2)) ** 2
    marginal = probs.sum(axis=1).T.reshape(-1)
    marginal = marginal / marginal.sum()
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    drawn = [measure_qubits(state, [3, 1], rng)[0] for _ in range(1000)]
    expected = [format(int(ref.choice(4, p=marginal)), "02b") for _ in range(1000)]
    assert drawn == expected


def test_measure_collapse_consistency():
    rng = np.random.default_rng(2)
    state = encode(FuzzySet([0.5, 0.5])).state
    bits, collapsed = measure_qubits(state, [1], rng)
    assert one_probabilities(collapsed)[0] == pytest.approx(int(bits))


def test_measure_degenerate_state():
    zero = StateVector(1, np.zeros(2))
    with pytest.raises(ValueError, match="vanishing norm"):
        measure_qubits(zero, [1], np.random.default_rng(0))


def test_sample_distribution_basis_state():
    counts = sample_distribution(ground_state(2), np.random.default_rng(1), 100)
    assert counts == {"00": 100}


def test_sample_distribution_crisp_set():
    counts = sample_distribution(encode(FuzzySet([1, 0])).state, np.random.default_rng(9), 50)
    assert counts == {"10": 50}


def test_sample_distribution_binomial_bound():
    counts = sample_distribution(encode(FuzzySet([0.5])).state, np.random.default_rng(3), 100_000)
    sigma = math.sqrt(100_000 * 0.25)
    assert abs(counts["1"] - 50_000) <= 3 * sigma


@pytest.mark.parametrize("n", [1, 6, 14])
def test_draw_counts_equals_the_loop_over_every_index(n):
    """The drawn indices, read with flatnonzero, give the dict of a loop over
    all 2^n counts: same keys in the same order, Python ints throughout."""
    probs = np.random.default_rng(n).random(1 << n)
    probs[::3] = 0.0
    probs[1] = 1.0
    got = draw_counts(probs, np.random.default_rng(7), 10_000)
    counts = np.random.default_rng(7).multinomial(10_000, probs / probs.sum())
    expected = {i: int(c) for i, c in enumerate(counts) if c}
    assert list(got.items()) == list(expected.items())
    assert {type(x) for x in got} | {type(x) for x in got.values()} == {int}


def test_sample_distribution_reproducible():
    state = encode(FuzzySet([0.3, 0.6])).state
    a = sample_distribution(state, np.random.default_rng(5), 1000)
    b = sample_distribution(state, np.random.default_rng(5), 1000)
    assert a == b


def test_sample_distribution_converges():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        state = random_state(np.random.default_rng(100 + n), n)
        counts = sample_distribution(state, rng, 100_000)
        probs = np.abs(state.amplitudes) ** 2
        tv = 0.5 * sum(
            abs(counts.get(format(i, f"0{n}b"), 0) / 100_000 - probs[i])
            for i in range(1 << n)
        )
        assert tv < 0.01


# --- structure: factorization, Schmidt rank, Bloch ---------------------------


def test_factor_encoded_states():
    rng = np.random.default_rng(29)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        factors = factor_product_state(encode(FuzzySet(rng.random(n))).state)
        assert factors is not None
        assert len(factors) == n


def test_factor_bell_state_entangled():
    assert factor_product_state(BELL) is None


def test_factor_basis_state():
    factors = factor_product_state(basis_state("10"))
    assert factors is not None
    assert_states_close(factors[0], basis_state("1"))
    assert_states_close(factors[1], basis_state("0"))


def test_factor_reconstructs_product():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        state = random_product_state(rng, n)
        factors = factor_product_state(state)
        assert factors is not None
        product = reduce(np.kron, [f.amplitudes for f in factors])
        overlap = abs(np.vdot(product, state.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_schmidt_rank_product_state():
    rng = np.random.default_rng(41)
    state = random_product_state(rng, 4)
    for q in range(1, 5):
        assert schmidt_rank(state, {q}) == 1
    assert schmidt_rank(state, {1, 3}) == 1


def test_schmidt_rank_bell():
    assert schmidt_rank(BELL, {1}) == 2


def test_schmidt_rank_encoded():
    assert schmidt_rank(encode(FuzzySet([0.3, 0.7])).state, {1}) == 1


def test_schmidt_rank_invalid_bipartition():
    with pytest.raises(ValueError, match="nonempty"):
        schmidt_rank(BELL, set())
    with pytest.raises(ValueError, match="proper subset"):
        schmidt_rank(BELL, {1, 2})


def pair_in_product(rng, n, i, j, eps):
    """A random product state with qubits i and j replaced by the pair
    (|00> + eps|11>)/norm, whose smaller singular value is about eps."""
    pair = np.array([1, 0, 0, eps]) / math.sqrt(1 + eps * eps)
    rest = random_product_state(rng, n - 2).amplitudes
    psi = np.kron(pair, rest).reshape([2] * n)
    return StateVector(n, np.moveaxis(psi, [0, 1], [i - 1, j - 1]).reshape(-1))


def test_factor_and_schmidt_agree():
    rng = np.random.default_rng(43)
    states = [random_state(rng, 1), random_product_state(rng, 1)]
    for _ in range(10):
        n = int(rng.integers(2, 5))
        states += [random_product_state(rng, n), random_state(rng, n)]
    for eps in (1e-6, 3e-8, 1e-8, 5e-9, 1e-12):
        states.append(pair_in_product(rng, 4, 1, 2, eps))
    for n in range(5, 11):
        states += [
            random_state(rng, n),
            pair_in_product(rng, n, 1, n, 1.0),
            pair_in_product(rng, n, 2, n - 1, 0.5),
            pair_in_product(rng, n, 1, n, 5e-9),
        ]
    for state in states:
        n = state.n_qubits
        ranks = [schmidt_rank(state, {q}) for q in range(1, n + 1)] if n > 1 else [1]
        factors = factor_product_state(state)
        assert (factors is not None) == all(r == 1 for r in ranks)
        report = entanglement_report(state)
        assert list(report.per_qubit_schmidt_ranks) == ranks
        assert report.is_product == (report.factors is not None)


@pytest.mark.parametrize("tiny", [0.0, 1e-160])
@pytest.mark.parametrize("qubit", [1, 3, 5])
@pytest.mark.parametrize("half", [0, 1])
def test_factor_with_a_zero_or_subnormal_half(tiny, qubit, half):
    # qubit `qubit` is tiny|half> + |1-half>: one half of the register has
    # norm `tiny`, and 1e-160 squared is subnormal
    rng = np.random.default_rng(67)
    factors = [random_qubit(rng) for _ in range(5)]
    factors[qubit - 1] = np.array([tiny, 1.0])[:: 1 - 2 * half]
    state = StateVector(5, reduce(np.kron, factors))
    assert [schmidt_rank(state, {q}) for q in range(1, 6)] == [1] * 5
    assert entanglement_report(state).per_qubit_schmidt_ranks == (1,) * 5
    got = factor_product_state(state)
    assert got is not None
    assert np.allclose(got[qubit - 1].amplitudes, factors[qubit - 1], rtol=0, atol=1e-15)
    rebuilt = reduce(np.kron, [f.amplitudes for f in got])
    assert abs(np.vdot(rebuilt, state.amplitudes)) == pytest.approx(1.0, abs=1e-12)


def test_bloch_poles():
    assert bloch_point(basis_state("0")) == pytest.approx((0, 0, 1), abs=1e-10)
    assert bloch_point(basis_state("1")) == pytest.approx((0, 0, -1), abs=1e-10)


def test_bloch_equator():
    plus = StateVector(1, np.array([1, 1]) / math.sqrt(2))
    assert bloch_point(plus) == pytest.approx((1, 0, 0), abs=1e-10)
    phased = StateVector(1, np.array([1, 1j]) / math.sqrt(2))
    assert bloch_point(phased) == pytest.approx((0, 1, 0), abs=1e-10)


def test_bloch_unit_norm():
    rng = np.random.default_rng(47)
    for _ in range(50):
        x, y, z = bloch_point(random_state(rng, 1))
        assert abs(math.sqrt(x * x + y * y + z * z) - 1.0) <= 1e-10


def test_tensor_product_order():
    joined = tensor_product(basis_state("1"), basis_state("0"))
    assert_states_close(joined, basis_state("10"))


def test_measure_returns_bits_in_target_order():
    rng = np.random.default_rng(53)
    bits, _ = measure_qubits(basis_state("10"), [2, 1], rng)
    assert bits == "01"


def test_measure_collapses_entangled_pair():
    rng = np.random.default_rng(59)
    for _ in range(20):
        bits, collapsed = measure_qubits(BELL, [1], rng)
        expected = basis_state("11" if bits == "1" else "00")
        assert_states_close(collapsed, expected, tol=1e-10)


def test_apply_controlled_matches_explicit_matrix():
    # oracle: assemble the controlled operator row by row over basis states
    rng = np.random.default_rng(61)
    for _ in range(10):
        n = 4
        gate = random_unitary(rng)
        qubits = list(rng.permutation(np.arange(1, n + 1))[:3])
        controls, target = [int(q) for q in qubits[:2]], int(qubits[2])
        dim = 1 << n
        full = np.zeros((dim, dim), dtype=complex)
        tmask = 1 << (n - target)
        cmask = sum(1 << (n - c) for c in controls)
        for col in range(dim):
            if col & cmask == cmask:
                row0 = col & ~tmask
                bit = (col & tmask) != 0
                full[row0, col] += gate[0, 1] if bit else gate[0, 0]
                full[row0 | tmask, col] += gate[1, 1] if bit else gate[1, 0]
            else:
                full[col, col] = 1.0
        s = random_state(rng, n)
        got = apply_controlled(s, gate, controls, target)
        assert np.max(np.abs(got.amplitudes - full @ s.amplitudes)) <= 1e-12


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: StateVector(0, np.ones(1)), "n_qubits must be >= 1, got 0"),
        (lambda: ground_state(0), "n_qubits must be >= 1, got 0"),
        (lambda: basis_state(""), "bitstring must be nonempty"),
        (
            lambda: bits_to_index(2, "0x"),
            "bitstring may contain only '0' and '1', got '0x'",
        ),
        (
            lambda: apply_single(basis_state("0"), np.eye(3), 1),
            "single-qubit gate must be 2x2, got shape (3, 3)",
        ),
        (
            lambda: measure_qubits(BELL, [], np.random.default_rng(0)),
            "at least one target qubit is required",
        ),
        (
            lambda: measure_qubits(BELL, [1, 1], np.random.default_rng(0)),
            "measurement targets must be distinct, got [1, 1]",
        ),
        (lambda: bloch_point(BELL), "bloch_point needs a single qubit, got 2"),
        (
            lambda: bloch_point(StateVector(1, np.array([1.0, 1.0]))),
            "bloch_point needs a normalized state",
        ),
    ],
    ids=[
        "no_qubits", "ground_state", "empty_bits", "bad_bit", "gate_shape",
        "no_targets", "repeated_target", "bloch_two_qubits", "bloch_unnormalized",
    ],
)
def test_library_refusals(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message

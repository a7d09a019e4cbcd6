import math
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest

from helpers import peak_bytes, random_fuzzy, random_state

from qfuzzy.errors import ResourceLimitError
from qfuzzy.fuzzy import CrispSubset, FuzzySet, com_pushforward
from qfuzzy.qfs import (
    QuantumFuzzySet,
    RegisterLayout,
    _com_table,
    _product_amplitudes,
    defuzzify,
    encode,
    expansion_coeff,
    fuz_isometry,
    qand,
    qnot,
    qor,
    superpose,
    value_marginals,
)
from qfuzzy.reference import (
    PAULI_X,
    apply_controlled,
    apply_single,
    com_index,
    fuz_linear,
    ground_state,
    one_probabilities,
    rotation_gate,
    u_com,
)
from qfuzzy.statevec import (
    StateVector,
    _inner,
    basis_state,
    schmidt_rank,
    tensor_product,
)

HALF = math.sqrt(0.5)


def assert_states_close(a, b, tol=1e-12):
    a = a.amplitudes if hasattr(a, "amplitudes") else np.asarray(a)
    b = b.amplitudes if hasattr(b, "amplitudes") else np.asarray(b)
    assert np.max(np.abs(a - b)) <= tol


# --- layout -----------------------------------------------------------------


def test_layout_must_tile():
    with pytest.raises(ValueError, match="contiguously"):
        RegisterLayout((("a", 1, 2), ("b", 4, 1)))
    with pytest.raises(ValueError, match="unique"):
        RegisterLayout((("a", 1, 2), ("a", 3, 1)))


def test_layout_lookup():
    layout = RegisterLayout((("in", 1, 2), ("value", 3, 3)))
    assert layout.total_qubits == 5
    assert layout.segment("value") == (3, 3)
    assert list(layout.qubits("in")) == [1, 2]


def test_qfs_requires_value_segment():
    with pytest.raises(KeyError, match="value"):
        QuantumFuzzySet(basis_state("00"), RegisterLayout.single("data", 2))


# --- preparation --------------------------------------------------------------


def test_rotation_endpoints():
    zero = np.array([1, 0], dtype=complex)
    assert_states_close(rotation_gate(0.0) @ zero, [1, 0])
    assert_states_close(rotation_gate(1.0) @ zero, [0, 1])
    assert_states_close(rotation_gate(0.5) @ zero, [HALF, HALF])


def test_rotation_rejects_bad_membership():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        rotation_gate(1.2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        rotation_gate(-0.01)


def test_rotation_is_orthogonal():
    g = rotation_gate(0.3)
    assert np.max(np.abs(g @ g.conj().T - np.eye(2))) <= 1e-12


def test_encode_crisp():
    assert_states_close(encode(FuzzySet([1, 0])).state, basis_state("10"))


def test_encode_uniform():
    assert_states_close(encode(FuzzySet([0.5, 0.5])).state, np.full(4, 0.5))


def test_encode_single_element():
    assert_states_close(
        encode(FuzzySet([0.3])).state, [math.sqrt(0.7), math.sqrt(0.3)]
    )


def test_encode_matches_expansion_exhaustively():
    rng = np.random.default_rng(71)
    for n in range(1, 11):
        f = random_fuzzy(rng, n)
        state = encode(f).state
        for idx in range(1 << n):
            s = CrispSubset(format(idx, f"0{n}b"))
            assert state.amplitudes[idx] == pytest.approx(
                expansion_coeff(f, s), abs=1e-12
            )


def test_encode_never_entangled():
    rng = np.random.default_rng(73)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        state = encode(random_fuzzy(rng, n)).state
        assert all(schmidt_rank(state, {q}) == 1 for q in range(1, n + 1))


def test_encode_respects_cap():
    with pytest.raises(ResourceLimitError, match="cap of 3"):
        encode(FuzzySet([0.5] * 4), cap=3)


def test_expansion_coeff_values():
    assert expansion_coeff(FuzzySet([1, 0]), CrispSubset("10")) == 1.0
    assert expansion_coeff(FuzzySet([0.5, 0.5]), CrispSubset("11")) == pytest.approx(0.5)
    assert expansion_coeff(FuzzySet([0.3, 0.6]), CrispSubset("01")) == pytest.approx(
        math.sqrt(0.7) * math.sqrt(0.6), abs=1e-12
    )


def test_expansion_coeff_size_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        expansion_coeff(FuzzySet([0.5]), CrispSubset("01"))


# --- connectives ----------------------------------------------------------------


def test_qnot_crisp_complement():
    assert_states_close(
        qnot(encode(FuzzySet([0, 1]))).state, encode(FuzzySet([1, 0])).state
    )


def test_qnot_matches_complement():
    assert_states_close(
        qnot(encode(FuzzySet([0.2, 0.7]))).state,
        encode(FuzzySet([0.8, 0.3])).state,
    )


def test_qnot_involution_on_superpositions():
    rng = np.random.default_rng(79)
    q = superpose([(1.0, random_fuzzy(rng, 3)), (0.5j, random_fuzzy(rng, 3))])
    assert_states_close(qnot(qnot(q)).state, q.state)


def test_qand_crisp():
    g = qand(encode(FuzzySet([1.0])), encode(FuzzySet([1.0])))
    assert value_marginals(g) == pytest.approx([1.0])


def test_qand_half_times_half():
    g = qand(encode(FuzzySet([0.5])), encode(FuzzySet([0.5])))
    assert value_marginals(g) == pytest.approx([0.25], abs=1e-12)


def test_qand_pointwise_products():
    g = qand(encode(FuzzySet([0.3, 1.0])), encode(FuzzySet([0.6, 0.0])))
    assert value_marginals(g) == pytest.approx([0.18, 0.0], abs=1e-12)


def test_qand_layout_keeps_inputs():
    g = qand(encode(FuzzySet([0.5, 0.5])), encode(FuzzySet([0.5, 0.5])))
    assert g.layout.segments == (
        ("a.value", 1, 2),
        ("b.value", 3, 2),
        ("value", 5, 2),
    )
    assert g.universe_size == 2
    assert g.state.n_qubits == 6


def test_qand_marginal_law_randomized():
    rng = np.random.default_rng(83)
    for _ in range(10):
        n = int(rng.integers(1, 7))
        f, g = random_fuzzy(rng, n), random_fuzzy(rng, n)
        out = qand(encode(f), encode(g))
        expected = np.asarray(f.memberships) * g.memberships
        assert np.max(np.abs(value_marginals(out) - expected)) <= 1e-12


def test_qand_chains_keep_growing():
    f, g, h = FuzzySet([0.5, 0.8]), FuzzySet([0.4, 0.5]), FuzzySet([0.9, 0.25])
    out = qand(qand(encode(f), encode(g)), encode(h))
    assert out.state.n_qubits == 10
    expected = np.asarray(f.memberships) * g.memberships * h.memberships
    assert np.max(np.abs(value_marginals(out) - expected)) <= 1e-12


def test_value_marginals_match_one_probabilities():
    rng = np.random.default_rng(61)
    state = random_state(rng, 6)
    for segments in (
        (("value", 1, 6),),
        (("x", 1, 2), ("value", 3, 4)),
        (("x", 1, 2), ("value", 3, 3), ("y", 6, 1)),
    ):
        q = QuantumFuzzySet(state, RegisterLayout(segments))
        expected = one_probabilities(state)[[i - 1 for i in q.value_qubits]]
        assert np.max(np.abs(value_marginals(q) - expected)) <= 1e-15


def test_qand_size_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        qand(encode(FuzzySet([0.5])), encode(FuzzySet([0.5, 0.5])))


def test_qand_cap():
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 8"):
        qand(encode(FuzzySet([0.5] * 3)), encode(FuzzySet([0.5] * 3)), cap=8)


def test_qor_empty():
    g = qor(encode(FuzzySet([0.0])), encode(FuzzySet([0.0])))
    assert value_marginals(g) == pytest.approx([0.0], abs=1e-12)


def test_qor_probabilistic_sum():
    g = qor(encode(FuzzySet([0.5])), encode(FuzzySet([0.5])))
    assert value_marginals(g) == pytest.approx([0.75], abs=1e-12)


def test_qor_absorbs_full_membership():
    g = qor(encode(FuzzySet([1.0])), encode(FuzzySet([0.2])))
    assert value_marginals(g) == pytest.approx([1.0], abs=1e-12)


# --- fuzzification ----------------------------------------------------------------


def test_fuz_linear_window():
    out = fuz_linear(basis_state("00100"), 1)
    parts = [
        np.array([1.0, 0.0]),
        np.array([HALF, HALF]),
        np.array([HALF, HALF]),
        np.array([HALF, HALF]),
        np.array([1.0, 0.0]),
    ]
    assert_states_close(out, reduce(np.kron, parts))


def test_fuz_linear_no_set_bits():
    assert_states_close(fuz_linear(basis_state("000"), 1), basis_state("000"))


def test_fuz_linear_radius_zero():
    out = fuz_linear(basis_state("10"), 0)
    assert_states_close(out, np.kron([HALF, HALF], [1.0, 0.0]))


def test_fuz_linear_is_linear():
    rng = np.random.default_rng(89)
    a, b = random_state(rng, 4), random_state(rng, 4)
    alpha, beta = 0.3 - 0.2j, 1.1 + 0.4j
    combo = StateVector(4, alpha * a.amplitudes + beta * b.amplitudes)
    lhs = fuz_linear(combo, 1).amplitudes
    rhs = alpha * fuz_linear(a, 1).amplitudes + beta * fuz_linear(b, 1).amplitudes
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fuz_linear_cancellation():
    # |10> and |01> share an image at k=1, so their difference cancels
    cancelling = StateVector(2, np.array([0, 1, -1, 0]) / math.sqrt(2))
    assert fuz_linear(cancelling, 1).norm() <= 1e-12
    with pytest.raises(ValueError, match="cancelled"):
        fuz_linear(cancelling, 1, renormalize=True)


def test_fuz_linear_renormalizes():
    state = StateVector(2, np.array([0, 1, 1, 0]) / math.sqrt(2))
    assert fuz_linear(state, 1, renormalize=True).norm() == pytest.approx(1.0)


def test_fuz_isometry_single_element():
    out = fuz_isometry(encode(FuzzySet([1.0])), 0)
    assert_states_close(out.state, np.kron([0.0, 1.0], [HALF, HALF]))
    assert out.layout.segments == (("in.value", 1, 1), ("value", 2, 1))


def test_fuz_isometry_ground_unchanged():
    out = fuz_isometry(encode(FuzzySet([0.0, 0.0])), 1)
    assert_states_close(out.state, basis_state("0000"))


def test_fuz_isometry_preserves_norm():
    rng = np.random.default_rng(97)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        q = QuantumFuzzySet(random_state(rng, n), RegisterLayout.single("value", n))
        assert abs(fuz_isometry(q, 1).state.norm() - 1.0) <= 1e-10


def test_fuz_isometry_cap():
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 5"):
        fuz_isometry(encode(FuzzySet([0.5] * 3)), 1, cap=5)


def test_fuz_radius_beyond_register_equals_full_window():
    rng = np.random.default_rng(101)
    for n in range(1, 5):
        q = QuantumFuzzySet(random_state(rng, n), RegisterLayout.single("value", n))
        huge, full = fuz_linear(q.state, 10**30), fuz_linear(q.state, n - 1)
        assert np.array_equal(huge.amplitudes, full.amplitudes)
        huge, full = fuz_isometry(q, 10**30), fuz_isometry(q, n - 1)
        assert np.array_equal(huge.state.amplitudes, full.state.amplitudes)


# --- defuzzification --------------------------------------------------------------


def test_u_com_writes_one_hot_center():
    out = u_com(basis_state("01000000"))
    assert_states_close(out, basis_state("01000100"))


def test_u_com_sentinel_no_mass():
    assert_states_close(u_com(basis_state("0000")), basis_state("0000"))


def test_u_com_permutation_and_involution():
    for n in range(1, 5):
        seen = set()
        for idx in range(1 << (2 * n)):
            start = basis_state(format(idx, f"0{2 * n}b"))
            once = u_com(start)
            nonzero = np.nonzero(np.abs(once.amplitudes) > 1e-12)[0]
            assert len(nonzero) == 1
            assert abs(abs(once.amplitudes[nonzero[0]]) - 1.0) <= 1e-12
            seen.add(int(nonzero[0]))
            assert_states_close(u_com(once), start)
        assert len(seen) == 1 << (2 * n)


def test_u_com_odd_register():
    with pytest.raises(ValueError, match="even register"):
        u_com(basis_state("010"))


def test_defuzzify_crisp_first_element():
    rng = np.random.default_rng(1)
    assert defuzzify(encode(FuzzySet([1, 0, 0, 0])), rng, 200) == {1: 200}


def test_defuzzify_crisp_second_element():
    rng = np.random.default_rng(1)
    assert defuzzify(encode(FuzzySet([0, 1])), rng, 33) == {2: 33}


def test_defuzzify_matches_pushforward():
    rng = np.random.default_rng(101)
    for f in (FuzzySet([0.5, 0.5]), FuzzySet([0.7, 0.1, 0.8, 0.4])):
        counts = defuzzify(encode(f), rng, 100_000)
        expected = com_pushforward(f)
        tv = 0.5 * sum(
            abs(counts.get(idx, 0) / 100_000 - expected.get(idx, 0.0))
            for idx in set(counts) | set(expected)
        )
        assert tv < 0.01


def test_defuzzify_reproducible():
    f = FuzzySet([0.3, 0.6, 0.1])
    a = defuzzify(encode(f), np.random.default_rng(5), 1000)
    b = defuzzify(encode(f), np.random.default_rng(5), 1000)
    assert a == b


def test_defuzzify_cap():
    with pytest.raises(ResourceLimitError, match="exceeds the cap of 5"):
        defuzzify(encode(FuzzySet([0.5] * 3)), np.random.default_rng(0), 10, cap=5)


def test_defuzzify_on_grown_register():
    # AND of two crisp sets defuzzifies like the classical intersection
    g = qand(encode(FuzzySet([1, 0])), encode(FuzzySet([1, 1])))
    counts = defuzzify(g, np.random.default_rng(3), 100)
    assert counts == {1: 100}


# --- superposition ------------------------------------------------------------------


def test_superpose_single_term():
    f = FuzzySet([0.3, 0.8])
    q = superpose([(1.0, f)])
    assert_states_close(q.state, encode(f).state)
    assert q.pre_norm == pytest.approx(1.0)


def test_superpose_bell_like():
    q = superpose([(HALF, FuzzySet([1, 0])), (HALF, FuzzySet([0, 1]))])
    expected = np.zeros(4)
    expected[0b10] = HALF
    expected[0b01] = HALF
    assert_states_close(q.state, expected)
    assert schmidt_rank(q.state, {1}) == 2
    assert q.pre_norm == pytest.approx(1.0)


def test_superpose_identical_terms():
    f = FuzzySet([0.5])
    q = superpose([(1.0, f), (1.0, f)])
    assert_states_close(q.state, encode(f).state)
    assert q.pre_norm == pytest.approx(2.0)


def test_superpose_cancellation():
    f = FuzzySet([0.5])
    with pytest.raises(ValueError, match="cancelled"):
        superpose([(1.0, f), (-1.0, f)])


@pytest.mark.parametrize("terms", [[1e160], [1e300, 1e300], [1e308, 1e308]])
def test_superpose_refuses_overflowing_norm(terms):
    f = FuzzySet([0.5, 0.3])
    with pytest.raises(ValueError, match="norm overflows"):
        superpose([(c, f) for c in terms])


@pytest.mark.parametrize("coeff", [math.inf, -math.inf, math.nan, complex(1, math.inf)])
def test_superpose_refuses_non_finite_coefficient(coeff):
    f = FuzzySet([0.5, 0.3])
    with pytest.raises(ValueError, match="coefficient must be finite"):
        superpose([(1.0, f), (coeff, f)])


def test_superpose_large_finite_coefficients_renormalize():
    f = FuzzySet([0.5, 0.3])
    q = superpose([(1e150, f)])
    assert_states_close(q.state, encode(f).state)
    assert q.pre_norm == pytest.approx(1e150)


@pytest.mark.parametrize(
    "tiny, unit, scale",
    [((1e-200,), (1.0,), 1e-200), ((1e-300, 2e-300), (1.0, 2.0), 1e-300)],
)
def test_superpose_tiny_coefficients_renormalize(tiny, unit, scale):
    # squared, these coefficients underflow; a lone term cannot cancel
    sets = [FuzzySet([0.5, 0.3]), FuzzySet([0.2, 0.9])]
    small = superpose(zip(tiny, sets))
    big = superpose(zip(unit, sets))
    assert np.max(np.abs(small.state.amplitudes - big.state.amplitudes)) <= 1e-15
    assert small.pre_norm == pytest.approx(big.pre_norm * scale, rel=1e-12)


@pytest.mark.parametrize("n", [13, 14, 15, 16])
def test_sliced_superpose_keeps_the_bits_of_whole_register_sums(n):
    """Adding each term a slice at a time and dividing in place gives the
    bits of adding each term whole and dividing into a new register by its
    norm, with complex and tiny coefficients, at one to sixteen slices."""
    rng = np.random.default_rng(n)
    coefs = [1.5, 0.3 - 0.45j, 1e-3j, -2.0**-40, 1e-300]
    sets = [random_fuzzy(rng, n) for _ in coefs]
    vec = np.zeros(1 << n, dtype=np.complex128)
    for c, f in zip(coefs, sets):
        vec += c * _product_amplitudes(f.memberships)
    norm = math.sqrt(_inner(vec, vec).real)
    q = superpose(zip(coefs, sets))
    assert np.array_equal(
        q.state.amplitudes.view(np.uint64), (vec / norm).view(np.uint64)
    )
    assert q.pre_norm == norm


def test_superpose_holds_the_register_and_one_term():
    """A 3-term superposition at N=18 holds its 4 MiB register, one 2 MiB
    term with what builds it, and one slice of the scaled term, never the
    scaled term as a whole 4 MiB register."""
    rng = np.random.default_rng(18)
    terms = [(c, random_fuzzy(rng, 18)) for c in (1.0, 0.5j, 1e-3)]
    assert peak_bytes(superpose, terms) <= 8 << 20


def test_superpose_refuses_over_cap_before_allocating():
    f = FuzzySet([0.5] * 22)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="exceeds the cap of 20"):
            superpose([(1.0, f)], cap=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_superpose_requires_terms():
    with pytest.raises(ValueError, match="at least one"):
        superpose([])


def test_superpose_size_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        superpose([(1.0, FuzzySet([0.5])), (1.0, FuzzySet([0.5, 0.5]))])


def test_qnot_on_grown_register_flips_only_value():
    f, g = FuzzySet([0.3, 0.9]), FuzzySet([0.5, 0.4])
    grown = qand(encode(f), encode(g))
    flipped = qnot(grown)
    assert flipped.layout == grown.layout
    expected = 1.0 - np.asarray(f.memberships) * g.memberships
    assert np.max(np.abs(value_marginals(flipped) - expected)) <= 1e-12


def test_u_com_acts_linearly_on_superpositions():
    rng = np.random.default_rng(103)
    a, b = random_state(rng, 4), random_state(rng, 4)
    alpha, beta = 0.6, 0.8j
    combo = StateVector(4, alpha * a.amplitudes + beta * b.amplitudes)
    lhs = u_com(combo).amplitudes
    rhs = alpha * u_com(a).amplitudes + beta * u_com(b).amplitudes
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_fuz_isometry_on_superposed_input():
    q = superpose([(math.sqrt(0.5), FuzzySet([1, 0])), (math.sqrt(0.5), FuzzySet([0, 1]))])
    out = fuz_isometry(q, 0)
    # each crisp branch keeps its own copy, so the images stay orthogonal
    assert abs(out.state.norm() - 1.0) <= 1e-10
    assert out.state.n_qubits == 4


def test_fuz_isometry_preserves_inner_products():
    rng = np.random.default_rng(211)
    for _ in range(5):
        n = int(rng.integers(1, 4))
        q1 = QuantumFuzzySet(random_state(rng, n), RegisterLayout.single("value", n))
        q2 = QuantumFuzzySet(random_state(rng, n), RegisterLayout.single("value", n))
        before = np.vdot(q1.state.amplitudes, q2.state.amplitudes)
        after = np.vdot(
            fuz_isometry(q1, 1).state.amplitudes,
            fuz_isometry(q2, 1).state.amplitudes,
        )
        assert abs(before - after) <= 1e-12


def test_defuzzify_superposed_state_matches_enumeration():
    # oracle route: enumerate |amplitude|^2 by the center of mass of each
    # basis state, independent of the XOR-permutation path
    rng = np.random.default_rng(223)
    q = superpose(
        [
            (0.6, FuzzySet([0.9, 0.1, 0.4])),
            (0.8j, FuzzySet([0.2, 0.7, 0.7])),
        ]
    )
    expected = {}
    for idx, amp in enumerate(q.state.amplitudes):
        c = com_index(format(idx, "03b"))
        expected[c] = expected.get(c, 0.0) + abs(amp) ** 2
    counts = defuzzify(q, rng, 100_000)
    tv = 0.5 * sum(
        abs(counts.get(i, 0) / 100_000 - expected.get(i, 0.0))
        for i in set(counts) | set(expected)
    )
    assert tv < 0.01


# --- gate-level reference -----------------------------------------------------------
#
# The paper's circuits, one gate at a time on the dense simulator.  The library
# computes the same maps as kron products and single gathers, which do no
# arithmetic on amplitudes beyond the rotation products, so the results must
# be equal, not merely close.


def gate_encode(f):
    state = ground_state(f.universe_size)
    for i, p in enumerate(f.memberships, start=1):
        state = apply_single(state, rotation_gate(float(p)), i)
    return state


def gate_qnot(state, qubits):
    for i in qubits:
        state = apply_single(state, PAULI_X, i)
    return state


def gate_qand(a, b):
    """One Toffoli per element onto fresh output qubits."""
    n = a.universe_size
    a_total, b_total = a.state.n_qubits, b.state.n_qubits
    state = tensor_product(tensor_product(a.state, b.state), ground_state(n))
    for i in range(n):
        controls = [a.value_qubits[i], a_total + b.value_qubits[i]]
        state = apply_controlled(state, PAULI_X, controls, a_total + b_total + 1 + i)
    return state


def gate_qor(a, b):
    n = a.universe_size
    g = gate_qand(
        QuantumFuzzySet(gate_qnot(a.state, a.value_qubits), a.layout),
        QuantumFuzzySet(gate_qnot(b.state, b.value_qubits), b.layout),
    )
    return gate_qnot(g, range(g.n_qubits - n + 1, g.n_qubits + 1))


def gate_com_xor(state, u_qubits, v_start):
    """For each nonzero pattern u of ``u_qubits``, an X on qubit
    v_start + com(u) - 1 controlled on the u qubits reading exactly u
    (the 0-controls are conjugated by X)."""
    u_qubits = list(u_qubits)
    n = len(u_qubits)
    for u in range(1, 1 << n):
        bits = format(u, f"0{n}b")
        zeros = [q for q, bit in zip(u_qubits, bits) if bit == "0"]
        target = v_start + com_index(bits) - 1
        state = gate_qnot(state, zeros)
        state = apply_controlled(state, PAULI_X, u_qubits, target)
        state = gate_qnot(state, zeros)
    return state


def reference_defuzzify(q, rng, trials):
    """DEFUZ as a circuit: pad with N ancillas, route the value segment's
    center of mass into them, and sample the ancillas' one-hot marginal."""
    n, n_in = q.universe_size, q.state.n_qubits
    routed = gate_com_xor(
        tensor_product(q.state, ground_state(n)), q.value_qubits, n_in + 1
    )
    ancillas = np.arange(routed.dim) & ((1 << n) - 1)
    pattern_probs = np.bincount(
        ancillas, weights=np.abs(routed.amplitudes) ** 2, minlength=1 << n
    )
    one_hot = [0] + [1 << (n - c) for c in range(1, n + 1)]
    assert not np.delete(pattern_probs, one_hot).any()
    index_probs = pattern_probs[one_hot]
    index_probs /= index_probs.sum()
    counts = rng.multinomial(trials, index_probs)
    return {int(i): int(c) for i, c in enumerate(counts) if c}


def oracle_operands(rng, n):
    """Encoded, crisp, grown (AND output) and entangled (SUPERPOSE, and an
    AND over it) registers with a universe of n, a random state whose value
    segment has a qubit after it, and a random state with about half of its
    amplitudes zero whose value segment lies between two others."""
    a, b = encode(random_fuzzy(rng, n)), encode(random_fuzzy(rng, n))
    crisp = encode(FuzzySet(rng.integers(0, 2, n).astype(float)))
    entangled = superpose([(0.6, random_fuzzy(rng, n)), (0.8j, random_fuzzy(rng, n))])
    inner = QuantumFuzzySet(
        random_state(rng, 2 * n + 1),
        RegisterLayout((("x", 1, n), ("value", n + 1, n), ("y", 2 * n + 1, 1))),
    )
    amps = random_state(rng, n + 2).amplitudes
    amps[rng.random(amps.size) < 0.5] = 0
    if not amps.any():
        amps[0] = 1
    sparse = QuantumFuzzySet(
        StateVector(n + 2, amps / np.linalg.norm(amps)),
        RegisterLayout((("x", 1, 1), ("value", 2, n), ("y", n + 2, 1))),
    )
    return [a, crisp, qand(a, b), entangled, qand(entangled, b), inner, sparse]


def test_encode_equals_rotation_circuit():
    rng = np.random.default_rng(227)
    for n in range(1, 9):
        m = rng.random(n)
        m[rng.integers(0, n)] = rng.integers(0, 2)  # a crisp element too
        f = FuzzySet(m)
        assert np.array_equal(encode(f).state.amplitudes, gate_encode(f).amplitudes)


def test_encode_equals_kron_chain():
    rng = np.random.default_rng(233)
    for n in range(1, 21):
        m = rng.random(n)
        m[rng.random(n) < 0.25] = 0.0
        m[rng.random(n) < 0.25] = 1.0
        columns = [np.array([math.sqrt(1.0 - p), math.sqrt(p)]) for p in m]
        expected = reduce(np.kron, columns)
        assert np.array_equal(encode(FuzzySet(m)).state.amplitudes, expected)


def test_com_table_equals_com_index():
    for n in range(1, 13):
        expected = [com_index(format(u, f"0{n}b")) for u in range(1 << n)]
        assert np.array_equal(_com_table(n), expected)


def test_com_table_is_a_fresh_writeable_array():
    first, second = _com_table(3), _com_table(3)
    assert first.flags.writeable and first is not second
    first[:] = -1
    assert np.array_equal(second, [com_index(format(u, "03b")) for u in range(8)])


def test_connectives_equal_gate_circuits():
    rng = np.random.default_rng(229)
    for operands in (oracle_operands(rng, n) for n in (1, 2, 3)):
        for q in operands:
            expected = gate_qnot(q.state, q.value_qubits)
            got = qnot(q).state.amplitudes
            assert np.array_equal(got, expected.amplitudes)
            assert got.flags.c_contiguous
            assert not np.shares_memory(got, q.state.amplitudes)
        for a, b in product(operands, repeat=2):
            got_and, got_or = qand(a, b).state, qor(a, b).state
            # a circuit's X computes 0 a0 + 1 a1, which can leave -0.0 where
            # the scatter leaves +0.0; adding +0.0 folds only that sign
            for got, gates in ((got_and, gate_qand(a, b)), (got_or, gate_qor(a, b))):
                folded = gates.amplitudes + 0.0
                assert (got.amplitudes + 0.0).tobytes() == folded.tobytes()
            # OR's one scatter is bit for bit X on the output after the AND
            de_morgan = qnot(qand(qnot(a), qnot(b))).state.amplitudes
            assert got_or.amplitudes.tobytes() == de_morgan.tobytes()


@pytest.mark.parametrize("n", [5, 6])
def test_qor_writes_its_register_once(n):
    rng = np.random.default_rng(281)
    a, b = encode(random_fuzzy(rng, n)), encode(random_fuzzy(rng, n))
    output_bytes = 16 << (3 * n)
    assert peak_bytes(qor, a, b) <= 1.15 * output_bytes


def reference_window_image(bits, k):
    """The kron of the qubit columns of the window that a bit string
    ``bits`` smears to: (|0>+|1>)/sqrt(2) within distance k of a 1, |0>
    elsewhere."""
    ones = [i for i, bit in enumerate(bits) if bit == "1"]
    window = [any(abs(i - j) <= k for j in ones) for i in range(len(bits))]
    columns = [np.array([HALF, HALF]) if w else np.array([1.0, 0.0]) for w in window]
    return reduce(np.kron, columns)


def reference_fuz_linear(state, k):
    """FUZ as a linear map, one amplitude at a time: the sum over nonzero
    basis indices of the amplitude times the index's window image."""
    n = state.n_qubits
    out = np.zeros(1 << n, dtype=np.complex128)
    for idx in np.nonzero(state.amplitudes)[0]:
        out += state.amplitudes[idx] * reference_window_image(format(idx, f"0{n}b"), k)
    return out


def fuz_radii(n):
    return (*range(n + 2), n + 5, 10**30)


def fuz_inputs(rng):
    """Dense random registers of 1..6 qubits, some with about half or most
    amplitudes zero and with real, imaginary or signed-zero parts, then the
    registers ``qand`` builds from encoded and crisp sets."""
    out = []
    for n in range(1, 7):
        for zero_frac in (0.0, 0.5, 0.9):
            amps = random_state(rng, n).amplitudes
            amps[rng.random(amps.size) < zero_frac] = 0
            real = rng.random(amps.size) < 0.2
            amps[real] = amps[real].real
            amps[rng.random(amps.size) < 0.2] *= 1j
            amps[rng.random(amps.size) < 0.1] = complex(-0.0, -0.0)
            if not amps.any():
                amps[0] = 1
            state = StateVector(n, amps / np.linalg.norm(amps))
            out.append(QuantumFuzzySet(state, RegisterLayout.single("value", n)))
    for n in (1, 2):
        a, b = encode(random_fuzzy(rng, n)), encode(random_fuzzy(rng, n))
        crisp = encode(FuzzySet(rng.integers(0, 2, n).astype(float)))
        out += [qand(a, b), qand(crisp, a), qnot(qand(b, crisp))]
    return out


def test_fuz_linear_equals_per_amplitude_reference():
    rng = np.random.default_rng(251)
    for q in fuz_inputs(rng):
        for k in fuz_radii(q.state.n_qubits):
            got = fuz_linear(q.state, k).amplitudes
            assert got.tobytes() == reference_fuz_linear(q.state, k).tobytes()


def reference_fuz_isometry(q, k):
    """FUZ one amplitude at a time on flat basis indices: decode each
    nonzero index's value bits and write the amplitude times their window
    image into the block of 2^N output amplitudes at that index."""
    n, n_in = q.universe_size, q.state.n_qubits
    start = q.layout.segment("value")[0]
    block = 1 << n
    out = np.zeros(block << n_in, dtype=np.complex128)
    for idx in np.nonzero(q.state.amplitudes)[0]:
        bits = format(int(idx), f"0{n_in}b")[start - 1 : start - 1 + n]
        img = reference_window_image(bits, k)
        base = int(idx) * block
        out[base : base + block] = q.state.amplitudes[idx] * img
    return out


def test_fuz_isometry_equals_per_amplitude_reference():
    rng = np.random.default_rng(241)
    for q in oracle_operands(rng, 2) + oracle_operands(rng, 3) + fuz_inputs(rng):
        for k in fuz_radii(q.universe_size):
            got = fuz_isometry(q, k).state.amplitudes
            assert np.array_equal(got, reference_fuz_isometry(q, k))


@pytest.mark.parametrize("n", [10, 14])
def test_fuz_linear_allocates_nothing_beyond_its_output(n):
    # one window per pattern at k=0; the output itself is 16 KiB at 10
    # qubits and 256 KiB at 14
    state = random_state(np.random.default_rng(271), n)
    assert peak_bytes(fuz_linear, state, 0) <= 1 << 20


def test_fuz_isometry_peak_stays_near_its_output():
    state = random_state(np.random.default_rng(277), 10)
    q = QuantumFuzzySet(state, RegisterLayout.single("value", 10))
    output_bytes = 16 << 20
    assert peak_bytes(fuz_isometry, q, 0) <= 1.25 * output_bytes


def test_u_com_equals_controlled_x_circuit():
    rng = np.random.default_rng(233)
    for n in range(1, 4):
        for state in (random_state(rng, 2 * n), encode(random_fuzzy(rng, 2 * n)).state):
            expected = gate_com_xor(state, range(1, n + 1), n + 1)
            assert np.array_equal(u_com(state).amplitudes, expected.amplitudes)


def test_defuzzify_equals_u_com_on_padded_register():
    rng = np.random.default_rng(239)
    for q in oracle_operands(rng, 2) + oracle_operands(rng, 3)[:2]:
        got = defuzzify(q, np.random.default_rng(17), 1000)
        assert got == reference_defuzzify(q, np.random.default_rng(17), 1000)


TWO_QUBITS = RegisterLayout.single("value", 2)


@pytest.mark.parametrize(
    "make, message",
    [
        (
            lambda: fuz_linear(basis_state("01"), -1),
            "window radius must be >= 0, got -1",
        ),
        (
            lambda: fuz_isometry(encode(FuzzySet([0.5])), -1),
            "window radius must be >= 0, got -1",
        ),
        (lambda: RegisterLayout(()), "layout needs at least one segment"),
        (
            lambda: RegisterLayout((("value", 1, 0),)),
            "layout length must be an integer >= 1, got 0",
        ),
        (
            lambda: QuantumFuzzySet(basis_state("0"), TWO_QUBITS),
            "layout covers 2 qubits but the state has 1",
        ),
        (
            lambda: RegisterLayout((("value", True, 1),)),
            "layout start must be an integer >= 1, got true",
        ),
        (
            lambda: RegisterLayout((("value", 1, 2.0),)),
            "layout length must be an integer >= 1, got 2.0",
        ),
        (
            lambda: RegisterLayout(((7, 1, 1),)),
            "layout segment names must be strings, got 7",
        ),
        (
            lambda: RegisterLayout((10**5000,)),
            "layout rows must be [name, start, length], got <int>",
        ),
    ],
    ids=[
        "fuz_linear", "fuz_isometry", "no_segments", "empty_segment", "layout_size",
        "bool_start", "float_length", "int_name", "int_past_digit_limit",
    ],
)
def test_library_refusals(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message

import math
import re
from functools import reduce
from itertools import product

import numpy as np
import pytest

from helpers import random_fuzzy

import qfuzzy.statevec
from qfuzzy.analysis import (
    cfs_inner,
    check_orthogonality,
    column_report,
    entanglement_report,
)
from qfuzzy.exprparser import Environment, evaluate, parse
from qfuzzy.fuzzy import FuzzySet
from qfuzzy.qfs import encode, superpose
from qfuzzy.reference import sampling_vs_oracle, total_variation
from qfuzzy.statevec import StateVector, inner_product

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def phased_product_state(memberships, phases) -> StateVector:
    factors = [
        np.array([math.sqrt(1 - m), np.exp(1j * p) * math.sqrt(m)])
        for m, p in zip(memberships, phases)
    ]
    return StateVector(len(memberships), reduce(np.kron, factors))


def angle_distance(a: float, b: float) -> float:
    d = (a - b) % (2 * math.pi)
    return min(d, 2 * math.pi - d)


# --- closed-form inner product ----------------------------------------------


def test_cfs_inner_self():
    rng = np.random.default_rng(3)
    f = random_fuzzy(rng, 5)
    assert cfs_inner(f, f) == pytest.approx(1.0, abs=1e-12)


def test_cfs_inner_crisp_clash():
    assert cfs_inner(FuzzySet([1.0]), FuzzySet([0.0])) == 0.0


def test_cfs_inner_closed_form_values():
    assert cfs_inner(FuzzySet([0.5]), FuzzySet([0.5])) == pytest.approx(1.0)
    assert cfs_inner(FuzzySet([0.25]), FuzzySet([0.75])) == pytest.approx(
        math.sqrt(3) / 2, abs=1e-12
    )


def test_cfs_inner_size_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        cfs_inner(FuzzySet([0.5]), FuzzySet([0.5, 0.5]))


def test_cfs_inner_matches_state_inner_product():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        f, g = random_fuzzy(rng, n), random_fuzzy(rng, n)
        state_level = inner_product(encode(f).state, encode(g).state)
        assert abs(state_level - cfs_inner(f, g)) <= 1e-12


# --- orthogonality ------------------------------------------------------------


def test_orthogonality_witness():
    verdict = check_orthogonality(FuzzySet([1, 0.3]), FuzzySet([0, 0.9]))
    assert verdict.orthogonal
    assert verdict.witness == 1
    assert abs(verdict.inner_product_value) <= 1e-10


def test_orthogonality_near_crisp_is_not_orthogonal():
    verdict = check_orthogonality(FuzzySet([0.1, 0.2]), FuzzySet([0.9, 0.8]))
    assert not verdict.orthogonal
    assert verdict.witness is None
    assert abs(verdict.inner_product_value) > 1e-10


def test_orthogonality_identical_states():
    verdict = check_orthogonality(FuzzySet([0.5]), FuzzySet([0.5]))
    assert not verdict.orthogonal


def test_orthogonality_grid_matches_state_level():
    # every pair on the coarse membership grid, universes of size 1 and 2
    for n in (1, 2):
        for fm in product(GRID, repeat=n):
            for gm in product(GRID, repeat=n):
                f, g = FuzzySet(fm), FuzzySet(gm)
                verdict = check_orthogonality(f, g)
                state_ip = inner_product(encode(f).state, encode(g).state)
                assert verdict.orthogonal == (abs(state_ip) <= 1e-10)
                assert verdict.orthogonal == (abs(cfs_inner(f, g)) <= 1e-10)


def test_orthogonality_grid_exhaustive_three_elements():
    # all 125 x 125 grid pairs at once: encoded states as rows, every pairwise
    # inner product against the crisp-clash condition
    grid_sets = np.array(list(product(GRID, repeat=3)))
    states = np.array([encode(FuzzySet(m)).state.amplitudes.real for m in grid_sets])
    gram = states @ states.T
    f = grid_sets[:, None, :]
    g = grid_sets[None, :, :]
    clash = (((f == 0.0) & (g == 1.0)) | ((f == 1.0) & (g == 0.0))).any(axis=2)
    assert np.array_equal(np.abs(gram) <= 1e-10, clash)


def test_non_retrievability_of_distinct_shapes():
    # non-orthogonal encodings overlap, so no shared eigenbasis can hold both
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = FuzzySet(0.05 + 0.9 * rng.random(3))
        g = FuzzySet(0.05 + 0.9 * rng.random(3))
        assert abs(inner_product(encode(f).state, encode(g).state)) > 0


# --- entanglement reports --------------------------------------------------------


def test_report_round_trips_encoded_set():
    rng = np.random.default_rng(13)
    f = random_fuzzy(rng, 4)
    report = entanglement_report(encode(f))
    assert report.is_product
    assert report.per_qubit_schmidt_ranks == (1, 1, 1, 1)
    assert np.max(np.abs(np.asarray(report.canonical_fuzzy_set.memberships) - f.memberships)) <= 1e-12
    assert report.phases == (0.0, 0.0, 0.0, 0.0)


def test_report_bell_like_state():
    q = superpose(
        [(math.sqrt(0.5), FuzzySet([1, 0])), (math.sqrt(0.5), FuzzySet([0, 1]))]
    )
    report = entanglement_report(q)
    assert report.per_qubit_schmidt_ranks == (2, 2)
    assert not report.is_product
    assert report.canonical_fuzzy_set is None
    assert report.phases is None


def test_report_recovers_phase():
    state = StateVector(1, np.array([math.sqrt(0.5), 1j * math.sqrt(0.5)]))
    report = entanglement_report(state)
    assert report.is_product
    assert report.canonical_fuzzy_set.memberships == pytest.approx([0.5])
    assert report.phases[0] == pytest.approx(math.pi / 2)


def test_canonicalization_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        memberships = rng.random(n)
        phases = rng.uniform(-math.pi, math.pi, size=n)
        report = entanglement_report(phased_product_state(memberships, phases))
        assert report.is_product
        assert np.max(np.abs(report.canonical_fuzzy_set.memberships - memberships)) <= 1e-10
        for got, want in zip(report.phases, phases):
            assert angle_distance(got, want) <= 1e-8


def test_report_rebuilds_state_after_phase_removal():
    rng = np.random.default_rng(19)
    memberships = rng.random(3)
    phases = rng.uniform(-math.pi, math.pi, size=3)
    state = phased_product_state(memberships, phases)
    report = entanglement_report(state)
    rebuilt = phased_product_state(
        report.canonical_fuzzy_set.memberships, report.phases
    )
    overlap = abs(np.vdot(rebuilt.amplitudes, state.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize(
    "make",
    [
        lambda: entanglement_report(encode(FuzzySet([0.3, 0.8, 1.0]))),
        lambda: column_report(
            evaluate(
                parse("A AND NOT B"),
                Environment(
                    universe_size=2,
                    bindings={"A": FuzzySet([1.0, 0.0]), "B": FuzzySet([0.0, 1.0])},
                    mode="quantum",
                ),
            )
        ),
    ],
    ids=["register", "columns"],
)
def test_product_check_reports_a_numerical_fault(monkeypatch, make):
    """With the tolerance made unreachable, every product fails the check
    that its factors rebuild it, and the error gives both numbers."""
    monkeypatch.setattr(qfuzzy.statevec, "NORM_TOL", -1.0)
    with pytest.raises(RuntimeError) as err:
        make()
    message = str(err.value)
    missed = re.fullmatch(r"product factors miss the state by (\S+) > (\S+)", message)
    deviation, bound = map(float, missed.groups())
    assert bound == pytest.approx(-1.0)
    assert 0.0 <= deviation <= 1e-15


def test_entangled_register_skips_the_product_check(monkeypatch):
    monkeypatch.setattr(qfuzzy.statevec, "NORM_TOL", -1.0)
    q = superpose(
        [(math.sqrt(0.5), FuzzySet([1, 0])), (math.sqrt(0.5), FuzzySet([0, 1]))]
    )
    report = entanglement_report(q)
    assert report.per_qubit_schmidt_ranks == (2, 2)
    assert not report.is_product


# --- sampling vs enumeration ------------------------------------------------------


def test_sampling_vs_oracle_crisp():
    tv = sampling_vs_oracle(FuzzySet([1, 0, 1]), np.random.default_rng(0), 1000)
    assert tv == 0.0


def test_sampling_vs_oracle_converges():
    tv = sampling_vs_oracle(FuzzySet([0.5, 0.5]), np.random.default_rng(23), 100_000)
    assert tv < 0.01


def test_sampling_vs_oracle_reproducible():
    f = FuzzySet([0.3, 0.6])
    a = sampling_vs_oracle(f, np.random.default_rng(29), 10)
    b = sampling_vs_oracle(f, np.random.default_rng(29), 10)
    assert 0.0 <= a <= 1.0
    assert a == b


def test_sampling_vs_oracle_refuses_large_universe():
    with pytest.raises(ValueError, match="too large"):
        sampling_vs_oracle(FuzzySet(np.full(13, 0.5)), np.random.default_rng(0), 10)


def test_total_variation():
    assert total_variation({"a": 1.0}, {"a": 1.0}) == 0.0
    assert total_variation({"a": 1.0}, {"b": 1.0}) == 1.0
    assert total_variation({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)

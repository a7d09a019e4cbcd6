import abc
import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qfuzzy import serialize
from qfuzzy.analysis import entanglement_report
from qfuzzy.errors import ResourceLimitError
from qfuzzy.fuzzy import CrispSubset, FuzzySet
from qfuzzy.qfs import encode, qand
from qfuzzy.statevec import DEFAULT_QUBIT_CAP


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_seventeen_digits_round_trip(x):
    assert float(serialize.format_real(x)) == x or (x == 0.0)


def test_negative_zero_folds_to_zero():
    assert serialize.format_real(-0.0) == "0"


def test_dumps_is_valid_json():
    payload = {"a": [1, 2.5, True, None, "s"], "b": {"k": 0.1}}
    assert json.loads(serialize.dumps(payload)) == payload


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        serialize.dumps({"x": object()})


def test_dumps_scalars_skip_the_mapping_check(monkeypatch):
    """None, the bools, strings and integers are emitted before the slow
    Mapping ABC check is reached."""
    checks = []

    class CountingMeta(abc.ABCMeta):
        def __instancecheck__(cls, obj):
            checks.append(obj)
            return super().__instancecheck__(obj)

    class CountingMapping(metaclass=CountingMeta):
        pass

    monkeypatch.setattr(serialize, "Mapping", CountingMapping)
    text = serialize.dumps([1, np.int64(2), True, False, None, "x", [3]])
    assert text == '[1, 2, true, false, null, "x", [3]]'
    assert checks == []


EDGE_REALS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308, 1.0, -3.0, 2.0**53]


@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_REALS),
            st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_REALS),
        ),
        min_size=1,
    )
)
@example([(x, y) for x in EDGE_REALS for y in EDGE_REALS])
def test_amplitude_writer_matches_format_real(pairs):
    amps = np.array([complex(re, im) for re, im in pairs])
    expected = ", ".join(
        f"[{serialize.format_real(re)}, {serialize.format_real(im)}]" for re, im in pairs
    )
    assert serialize.dumps(amps) == f"[{expected}]"


def test_fuzzy_set_round_trip():
    f = FuzzySet([0.1, 0.2, 0.875])
    d = serialize.fuzzy_set_to_dict(f)
    back = serialize.fuzzy_set_from_dict(json.loads(serialize.dumps(d)))
    assert np.array_equal(back.memberships, f.memberships)


def test_fuzzy_set_from_dict_validation():
    with pytest.raises(ValueError, match="missing"):
        serialize.fuzzy_set_from_dict({"memberships": [0.5]})
    with pytest.raises(ValueError, match="does not match"):
        serialize.fuzzy_set_from_dict({"universe_size": 2, "memberships": [0.5]})
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        serialize.fuzzy_set_from_dict({"universe_size": 1, "memberships": [1.5]})


def test_crisp_subset_round_trip():
    s = CrispSubset("0110")
    back = serialize.crisp_subset_from_dict(serialize.crisp_subset_to_dict(s))
    assert back == s


def test_qfs_round_trip_bit_exact():
    q = qand(encode(FuzzySet([0.3, 0.6])), encode(FuzzySet([0.9, 0.2])))
    d = json.loads(serialize.dumps(serialize.qfs_to_dict(q)))
    back = serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)
    assert back.layout == q.layout
    assert np.array_equal(back.state.amplitudes, q.state.amplitudes)
    assert back.universe_size == q.universe_size


def test_qfs_from_dict_rejects_bad_norm():
    d = {
        "layout": [["value", 1, 1]],
        "universe_size": 1,
        "amplitudes": [[0.5, 0], [0.5, 0]],
    }
    with pytest.raises(ValueError, match="not normalized"):
        serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)


def test_qfs_from_dict_rejects_wrong_length():
    d = {
        "layout": [["value", 1, 2]],
        "universe_size": 2,
        "amplitudes": [[1, 0], [0, 0]],
    }
    with pytest.raises(ValueError, match="expected 4 amplitudes"):
        serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)


def test_qfs_from_dict_rejects_universe_mismatch():
    d = {
        "layout": [["value", 1, 1]],
        "universe_size": 2,
        "amplitudes": [[1, 0], [0, 0]],
    }
    with pytest.raises(ValueError, match="universe_size"):
        serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)


def test_qfs_from_dict_checks_cap_before_amplitudes():
    d = {
        "layout": [["in", 1, 20], ["value", 21, 10]],
        "universe_size": 10,
        "amplitudes": "never parsed",
    }
    with pytest.raises(ResourceLimitError, match="30 qubits exceeds the cap of 24"):
        serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)


def test_qfs_from_dict_counts_amplitudes_before_reading_them():
    d = {
        "layout": [["value", 1, 2]],
        "universe_size": 2,
        "amplitudes": [["not", "a number"]] * 3,
    }
    with pytest.raises(ValueError, match="expected 4 amplitudes for 2 qubits, got 3"):
        serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)


def test_qfs_from_dict_rejects_non_integer_universe_size():
    d = {
        "layout": [["value", 1, 2]],
        "universe_size": 2.0,
        "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]],
    }
    with pytest.raises(ValueError, match="universe_size must be an integer"):
        serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)


def test_report_serialization_shape():
    report = entanglement_report(encode(FuzzySet([0.3])))
    d = serialize.report_to_dict(report, bloch_points=[(0.0, 0.0, 1.0)])
    assert d["is_product"] is True
    assert d["canonical_fuzzy_set"]["memberships"] == pytest.approx([0.3])
    assert d["bloch_points"] == [[0.0, 0.0, 1.0]]


def test_distribution_keys_sorted_lexicographically():
    d = serialize.distribution_to_dict({10: 1, 2: 2, 0: 3})
    assert list(d.keys()) == ["0", "10", "2"]


def test_qfs_from_dict_renormalizes_rounded_input():
    amp = 0.50000003  # rounded by hand: norm is off by ~1e-7
    d = {
        "layout": [["value", 1, 2]],
        "universe_size": 2,
        "amplitudes": [[amp, 0]] * 4,
    }
    q = serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)
    assert abs(q.state.norm() - 1.0) <= 1e-12

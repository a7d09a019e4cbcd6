import abc
import json
import types

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import peak_bytes

from qfuzzy import serialize
from qfuzzy.analysis import entanglement_report
from qfuzzy.errors import ResourceLimitError
from qfuzzy.fuzzy import FuzzySet
from qfuzzy.qfs import encode, qand
from qfuzzy.statevec import AMP_SLICE, DEFAULT_QUBIT_CAP


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


@pytest.mark.parametrize(
    "value, name", [(np.int64(2), "int64"), (types.MappingProxyType({}), "mappingproxy")]
)
def test_dumps_writes_no_numpy_integer_and_no_mapping_but_a_dict(value, name):
    """Every command builds its payload from Python scalars, lists, dicts and
    one 1-D complex array, so nothing else is converted."""
    with pytest.raises(TypeError) as err:
        serialize.dumps(value)
    assert str(err.value) == f"cannot serialize {name}"


def test_dumps_scalars_skip_the_mapping_check(monkeypatch):
    """None, the bools, strings and integers are emitted by their built-in
    types; dumps never reaches for the slow Mapping ABC check."""
    checks = []

    class CountingMeta(abc.ABCMeta):
        def __instancecheck__(cls, obj):
            checks.append(obj)
            return super().__instancecheck__(obj)

    class CountingMapping(metaclass=CountingMeta):
        pass

    monkeypatch.setattr(serialize, "Mapping", CountingMapping)
    text = serialize.dumps([1, 2, True, False, None, "x", [3]])
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


@pytest.mark.parametrize(
    "size", [1, AMP_SLICE - 1, AMP_SLICE, AMP_SLICE + 1, 1 << 16]
)
def test_sliced_amplitude_writer_equals_one_join(size):
    """The writer goes a slice of AMP_SLICE amplitudes at a time; its text
    equals one join over every part, with -0.0, subnormal and near-overflow
    parts at the ends, on both sides of each slice boundary and at random."""
    rng = np.random.default_rng(size)
    parts = rng.normal(size=(size, 2))
    flat = parts.ravel()
    edges = [0, 1, -2, -1]
    for lo in range(AMP_SLICE, size, AMP_SLICE):
        edges += [2 * lo - 2, 2 * lo - 1, 2 * lo, 2 * lo + 1]
    edges += rng.integers(0, flat.size, 64).tolist()
    flat[edges] = rng.choice(EDGE_REALS, len(edges))
    amps = parts.view(np.complex128).ravel()
    expected = ", ".join(
        f"[{serialize.format_real(re)}, {serialize.format_real(im)}]"
        for re, im in parts.tolist()
    )
    assert serialize.dumps(amps) == f"[{expected}]"


def test_state_writer_holds_only_its_text_and_one_slice():
    """dumps of an N=16 state holds the text's slices and the joined text,
    and per slice one slice of floats and their text: under 2.5 times the
    text, with no string per amplitude."""
    doc = serialize.qfs_to_dict(encode(FuzzySet(np.random.default_rng(16).random(16))))
    text = serialize.dumps(doc)
    assert peak_bytes(serialize.dumps, doc) <= 2.5 * len(text)


def test_fuzzy_set_round_trip():
    f = FuzzySet([0.1, 0.2, 0.875])
    d = serialize.fuzzy_set_to_dict(f)
    back = serialize.fuzzy_set_from_dict(json.loads(serialize.dumps(d)))
    assert np.array_equal(back.memberships, f.memberships)


@pytest.mark.parametrize(
    "values",
    [[2**53 + 1], [10**308], [0], [1e-320], [0, 2**53 + 1, 10**308, 1e-320, 0.5]],
    ids=["2**53+1", "10**308", "int_zero", "subnormal", "mixed"],
)
def test_json_numbers_reads_each_int_as_its_nearest_float(values):
    """The floats the JSON numbers read as: those numpy's conversion
    (``np.fromiter``) gives, bit for bit."""
    got = serialize.json_numbers(values, "x")
    want = np.fromiter(values, np.float64, len(values))
    assert type(got) is tuple and all(type(v) is float for v in got)
    assert np.array_equal(np.array(got).view(np.uint64), want.view(np.uint64))


def test_fuzzy_set_from_dict_validation():
    with pytest.raises(ValueError, match="missing"):
        serialize.fuzzy_set_from_dict({"memberships": [0.5]})
    with pytest.raises(ValueError, match="does not match"):
        serialize.fuzzy_set_from_dict({"universe_size": 2, "memberships": [0.5]})
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        serialize.fuzzy_set_from_dict({"universe_size": 1, "memberships": [1.5]})


def _read_state(d):
    return serialize.qfs_from_dict(d, DEFAULT_QUBIT_CAP)


@pytest.mark.parametrize(
    "read, document, message",
    [
        (
            serialize.fuzzy_set_from_dict,
            None,
            "fuzzy set must be a JSON object, got NoneType",
        ),
        (
            serialize.fuzzy_set_from_dict,
            {},
            "fuzzy set is missing the 'universe_size' field",
        ),
        (
            serialize.fuzzy_set_from_dict,
            {"universe_size": 0},
            "universe_size must be an integer >= 1, got 0",
        ),
        (
            serialize.fuzzy_set_from_dict,
            {"universe_size": 1},
            "fuzzy set is missing the 'memberships' field",
        ),
        (
            serialize.spec_from_dict,
            [],
            "pipeline spec must be a JSON object, got list",
        ),
        (
            serialize.spec_from_dict,
            {"universe_size": 0, "expression": 1},
            "pipeline spec is missing the 'sets' field",
        ),
        (
            serialize.spec_from_dict,
            {"universe_size": 0, "sets": 1, "expression": 1},
            "universe_size must be an integer >= 1, got 0",
        ),
        (_read_state, "{}", "state must be a JSON object, got str"),
        (
            _read_state,
            {"universe_size": 0, "amplitudes": 1},
            "state is missing the 'layout' field",
        ),
        (
            _read_state,
            {"layout": 1, "universe_size": 0},
            "state is missing the 'amplitudes' field",
        ),
        (
            _read_state,
            {"layout": 1, "amplitudes": 1},
            "state is missing the 'universe_size' field",
        ),
    ],
)
def test_document_faults_are_reported_in_order(read, document, message):
    """Each reader first checks for an object, then takes its fields in a
    fixed order; a later field's fault is not reported before an earlier one."""
    with pytest.raises(ValueError) as err:
        read(document)
    assert str(err.value) == message


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


@pytest.mark.parametrize(
    "make, error, message",
    [
        (
            lambda: serialize.dumps({1: 2}),
            TypeError,
            "object keys must be strings, got 1",
        ),
    ],
    ids=["key_type"],
)
def test_library_refusals(make, error, message):
    with pytest.raises(error) as err:
        make()
    assert str(err.value) == message

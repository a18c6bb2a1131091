import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covcat import linalg as la
from covcat import serialize as ser
from covcat import symmetry as sym
from covcat.catalysis import CatalysisScenario, generate_admissible_scenario

from conftest import random_channel


def test_matrix_round_trip(rng):
    m = la.random_hermitian(3, rng) + 1j * 0.3 * la.random_hermitian(3, rng) @ np.eye(3)
    m = la.random_unitary(3, rng)
    back = ser.matrix_from_json(ser.matrix_to_json(m))
    np.testing.assert_allclose(back, m, atol=0)


def test_matrix_rejects_bad_payloads():
    with pytest.raises(ser.FormatError):
        ser.matrix_from_json({"dim": 2, "data": [[1, 0]] * 3})  # wrong count
    with pytest.raises(ser.FormatError):
        ser.matrix_from_json({"dim": 2, "data": [[1, 0]] * 4, "extra": 1})
    with pytest.raises(ser.FormatError):
        ser.matrix_from_json({"dim": 0, "data": []})
    with pytest.raises(ser.FormatError):
        ser.matrix_from_json({"dim": 1, "data": [[float("nan"), 0.0]]})
    with pytest.raises(ser.FormatError):
        ser.matrix_from_json({"dim": 1, "data": [[float("inf"), 0.0]]})


@pytest.mark.parametrize("payload", [
    {"dim": 1, "data": [["a", 0]]},          # string entry
    {"dim": 1, "data": [["1.0", 0]]},        # numeric-looking string
    {"dim": 1, "data": [[True, 0]]},         # boolean entry
    {"dim": True, "data": [[1.0, 0.0]]},     # boolean dim
    {"dim": 1.0, "data": [[1.0, 0.0]]},      # float dim
    {"dim": 1, "data": [[10 ** 400, 0]]},    # beyond the float range
    {"dim": 1, "data": [[1.0, None]]},
])
def test_matrix_rejects_non_numeric_and_boolean_values(payload):
    with pytest.raises(ser.FormatError):
        ser.matrix_from_json(payload)
    with pytest.raises(ser.FormatError):
        ser.matrix_from_json(payload)


@pytest.mark.parametrize("payload", [
    {"rows": 1, "cols": 2, "data": [[1], [0]]},            # short entries
    {"rows": "1", "cols": 2, "data": [[1, 0], [0, 0]]},    # string rows
    {"rows": 1, "cols": True, "data": [[1, 0]]},           # boolean cols
    {"rows": 1, "cols": 2, "data": [[1, 0]]},              # wrong count
    {"rows": 1, "cols": 2, "data": [[1, 0], ["x", 0]]},
    {"rows": 1, "data": [[1, 0]]},                         # missing cols
])
def test_rectangular_matrix_rejects_bad_payloads(payload):
    with pytest.raises(ser.FormatError):
        ser.matrix_from_json(payload)


def test_rectangular_matrix_round_trip(rng):
    m = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    payload = ser.matrix_to_json(m)
    assert set(payload) == {"rows", "cols", "data"}
    np.testing.assert_array_equal(ser.matrix_from_json(payload), m)


def test_group_and_rep_round_trip():
    g = sym.FiniteGroup.symmetric(3)
    back = ser.group_from_json(ser.group_to_json(g))
    np.testing.assert_array_equal(back.table, g.table)
    rep = sym.left_regular_representation(g)
    rep_back = ser.rep_from_json(ser.rep_to_json(rep))
    for w1, w2 in zip(rep.images, rep_back.images):
        np.testing.assert_allclose(w1, w2, atol=0)


def test_group_rejects_inconsistent_payload():
    with pytest.raises(ser.FormatError):
        ser.group_from_json({"order": 2, "table": [[0, 1]]})
    with pytest.raises(ser.FormatError):
        ser.group_from_json({"order": 2, "table": [[0, 1], [1, 0]], "bogus": 1})


def test_channel_round_trip(rng):
    t = random_channel(3, 2, rng)
    payload = {"d_in": t.d_in, "d_out": t.d_out, "kraus": [ser.matrix_to_json(k) for k in t.kraus]}
    back = ser.channel_from_json(payload)
    np.testing.assert_allclose(back.choi(), t.choi(), atol=1e-12)


def test_scenario_round_trip():
    sc = generate_admissible_scenario(2, 3, 1, seed=8)
    back = CatalysisScenario.from_json(sc.to_json())
    np.testing.assert_allclose(back.unitary, sc.unitary, atol=0)
    np.testing.assert_allclose(back.rho_s, sc.rho_s, atol=0)
    assert back.admissibility_tol == sc.admissibility_tol


def test_scenario_rejects_unknown_keys():
    sc = generate_admissible_scenario(2, 2, 1, seed=0)
    payload = sc.to_json()
    payload["surprise"] = 1
    with pytest.raises(ser.FormatError):
        CatalysisScenario.from_json(payload)


def test_dump_json_is_deterministic():
    payload = {"b": 1.5, "a": [1, 2], "nested": {"y": 0.25, "x": "s"}}
    assert ser.dump_json(payload) == ser.dump_json(json.loads(ser.dump_json(payload)))


def test_atomic_write(tmp_path):
    path = str(tmp_path / "out.json")
    ser.write_json_atomic(path, {"k": 1})
    with open(path) as fh:
        assert json.load(fh) == {"k": 1}
    leftovers = [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]
    assert not leftovers


def test_failed_atomic_write_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    ser.write_json_atomic(str(path), {"k": 1})
    before = path.read_bytes()

    def refused(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refused)
    with pytest.raises(OSError, match="rename refused"):
        ser.write_json_atomic(str(path), {"k": 2})
    assert path.read_bytes() == before
    assert not list(tmp_path.glob("tmp*.tmp"))


def stdlib_report(payload):
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def outcome(render, payload):
    """The text, or the exception type when rendering raises."""
    try:
        return render(payload)
    except (ValueError, TypeError) as exc:
        return type(exc)


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
numbers = st.integers() | finite_floats
pair_lists = st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=6)
matrix_payloads = st.builds(
    lambda rows, cols, seed: ser.matrix_to_json(
        np.random.default_rng(seed).standard_normal((rows, cols, 2)).view(complex)[..., 0]),
    st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32))


# one key type per dict, so that its keys sort
dict_keys = (st.text(), st.integers(), finite_floats, st.booleans(), st.none())


def json_trees(extra_leaves=st.nothing()):
    leaves = (st.none() | st.booleans() | numbers | st.text() | st.just([]) | st.just({})
              | pair_lists | matrix_payloads | extra_leaves)
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), *(st.dictionaries(k, kids, max_size=4) for k in dict_keys)),
        max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(json_trees())
def test_dump_json_is_the_stdlib_rendering(payload):
    assert ser.dump_json(payload) == stdlib_report(payload)


@settings(max_examples=300, deadline=None)
@given(json_trees(st.sampled_from([math.nan, math.inf, -math.inf, np.int64(3)])))
def test_dump_json_raises_as_the_stdlib_does(payload):
    assert outcome(ser.dump_json, payload) == outcome(stdlib_report, payload)


@pytest.mark.parametrize("payload", [
    [[1.7976931348623157e308, 1.7976931348623157e308]],    # finite pair, overflowing sum
    [[1.0, 2.0], [3, 4.0]], [[1.0, 2.0], (3.0, 4.0)], [[1.0, 2.0], [3.0]], ([1.5, -0.0],),
    {"data": [[0.5, np.float64(0.25)]]}, {1: "int key", 2.5: "float key", -3: None},
    {False: 0, True: 1}, {None: 0},
    {1: [[0.5, 0.25]], 2: {"k": [[1.0, -0.0]]}}, {None: [[0.5, 0.25]]},
    {-1.5: [[0.5, 0.25], [1e300, -5e-324]], 2.5: []}, {False: {}, True: [[1.0, 2.0]]},
    {"é☃\U0001f600": "é☃\U0001f600\n\"\\"},
])
def test_dump_json_edge_cases(payload):
    assert ser.dump_json(payload) == stdlib_report(payload)


@pytest.mark.parametrize("payload", [
    [[1.0, math.nan]], [[math.inf, 1.0], [1.0, 1.0]], {"k": [[1.0, -math.inf]]}, -math.inf,
    [[1.0, 2.0], [np.int64(1), 2.0]], {"k": np.array([1.0])}, {(1, 2): 0}, {math.nan: 0},
    {"k": 0, 1: 0},
])
def test_dump_json_rejects_as_the_stdlib_does(payload):
    expected = outcome(stdlib_report, payload)
    assert expected in (ValueError, TypeError)
    with pytest.raises(expected):
        ser.dump_json(payload)


@pytest.mark.parametrize("m", [
    np.arange(9.0).reshape(3, 3) * (1 - 2j),
    np.arange(6.0).reshape(2, 3) + 1j,
    np.arange(6.0).reshape(3, 2) - 1j,
    np.array([[-0.0 + 0.0j, 0.0 - 0.0j], [-0.0 - 0.0j, 5e-324 - 2.2250738585072014e-308j]]),
    np.array([[1.7976931348623157e308 - 5e-324j]]),
])
def test_matrix_round_trip_is_bit_exact(m):
    payload = ser.matrix_to_json(m)
    for back in (ser.matrix_from_json(payload),
                 ser.matrix_from_json(json.loads(ser.dump_json(payload)))):
        assert back.shape == m.shape
        assert back.tobytes() == m.astype(complex).tobytes()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
@pytest.mark.parametrize("existing", [False, True])
def test_atomic_writes_take_their_mode_from_the_umask(tmp_path, monkeypatch, umask, existing):
    set_umask = os.umask
    previous = set_umask(umask)

    def changed_umask(mask):  # the writer leaves the process umask alone
        raise AssertionError(f"os.umask({mask:#o}) called")

    monkeypatch.setattr(os, "umask", changed_umask)
    try:
        path = tmp_path / "report.json"
        if existing:
            path.write_text("old")
            path.chmod(0o640)
        ser.write_json_atomic(str(path), {"k": 1})
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    finally:
        set_umask(previous)

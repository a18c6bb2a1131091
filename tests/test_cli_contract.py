"""Exit-code contract of the CLI: any input file exits 0, 1, 2 or 3 and never
escapes with an exception (which would print a traceback)."""

import ast
import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from covcat import cli, linalg as la, serialize as ser
from covcat.catalysis import (CatalysisScenario, demo_appendix, demo_finite_group,
                              generate_admissible_scenario, rank_condition_counterexample,
                              verify_catalysis)
from covcat.channels import is_covariant
from covcat.cli import EXIT_STATUS, main
from covcat.refframe import degradation_sweep, phase_reference_scenario, verify_recovery
from covcat.words import wiegmann_equivalent

from conftest import dilated_frame_scenario, kicked_frame

SZ = np.diag([1.0, -1.0])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def frame_problem(sc):
    """Frame-scenario input of ``sc``."""
    problem = {key: ser.matrix_to_json(getattr(sc, key))
               for key in ("unitary", "sigma_c", "target")}
    legs = ("gens_s", "gens_c") + (("gens_e",) if sc.d_e > 1 else ())
    problem.update({leg: [ser.matrix_to_json(g) for g in getattr(sc, leg)] for leg in legs})
    if sc.d_e > 1:
        problem["omega_e"] = ser.matrix_to_json(sc.omega_e)
    return problem


# One well-formed problem per command; the fuzz replaces one subtree of it.
TEMPLATES = {
    "check-covariance": {
        # trace channel 2 -> 1 with rectangular Kraus rows, covariant
        "channel": {"d_in": 2, "d_out": 1,
                    "kraus": [ser.matrix_to_json(np.array([[1.0, 0.0]])),
                              ser.matrix_to_json(np.array([[0.0, 1.0]]))]},
        "rep_in": {"type": "lie", "generators": [ser.matrix_to_json(SZ)]},
        "rep_out": {"type": "lie", "generators": [ser.matrix_to_json(np.zeros((1, 1)))]},
    },
    "check-covariance-finite": {
        "channel": {"d_in": 2, "d_out": 2, "kraus": [ser.matrix_to_json(SZ)]},
        "rep_in": {"type": "finite", "group": {"order": 2, "table": [[0, 1], [1, 0]]},
                   "images": [ser.matrix_to_json(np.eye(2)), ser.matrix_to_json(SZ)]},
        "rep_out": {"type": "finite", "group": {"order": 2, "table": [[0, 1], [1, 0]]},
                    "images": [ser.matrix_to_json(np.eye(2)), ser.matrix_to_json(SZ)]},
    },
    "catalysis-verify": generate_admissible_scenario(2, 2, 1, seed=3).to_json(),
    "find-intertwiner": generate_admissible_scenario(2, 2, 1, seed=3).to_json(),
    "recovery-verify": frame_problem(phase_reference_scenario(2, np.pi / 2)),
    # The former word-enumeration keys, the only keys a file's config may
    # hold, stay in the template: they are still type-checked, so their
    # mutations must exit 2 or be ignored.
    "wiegmann-equiv": {
        "tuple_a": [ser.matrix_to_json(SZ), ser.matrix_to_json(SX)],
        "tuple_b": [ser.matrix_to_json(SZ + np.eye(2)), ser.matrix_to_json(SX)],
        "config": {"max_length": 2, "max_exponent": 2, "num_random_words": 3},
    },
}
COMMANDS = ["check-covariance", "catalysis-verify", "find-intertwiner", "wiegmann-equiv",
            "recovery-verify"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


def _replace(node, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(node))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


def _run(command, text, capsys):
    fd, path = tempfile.mkstemp(suffix=".json")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    try:
        code = main([command, "--input", path, "--output", path + ".out"]
                    + (["--samples", "2"] if command == "recovery-verify" else []))
    finally:
        for p in (path, path + ".out"):
            if os.path.exists(p):
                os.unlink(p)
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    return code


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_templates_are_well_formed(name, capsys):
    command = name.replace("-finite", "")
    assert _run(command, json.dumps(TEMPLATES[name]), capsys) in (0, 1)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(COMMANDS), payload=json_values)
def test_arbitrary_json_keeps_exit_contract(command, payload, capsys):
    _run(command, json.dumps(payload), capsys)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), value=json_values)
def test_mutated_problem_keeps_exit_contract(data, value, capsys):
    name = data.draw(st.sampled_from(sorted(TEMPLATES)))
    template = TEMPLATES[name]
    path = data.draw(st.sampled_from(list(_paths(template))))
    _run(name.replace("-finite", ""), json.dumps(_replace(template, path, value)), capsys)


# first matrix payload of each command's template
MATRIX_SLOTS = {"check-covariance": ("channel", "kraus", 0),
                "catalysis-verify": ("unitary",),
                "find-intertwiner": ("unitary",),
                "recovery-verify": ("target",),
                "wiegmann-equiv": ("tuple_a", 0)}
MALFORMED_MATRICES = {
    "string-entry": {"dim": 1, "data": [["a", 0]]},
    "bool-dim": {"dim": True, "data": [[1.0, 0.0]]},
    "bool-entry": {"dim": 1, "data": [[True, 0.0]]},
    "huge-int-entry": {"dim": 1, "data": [[10 ** 400, 0.0]]},
    "rect-short-entry": {"rows": 1, "cols": 2, "data": [[1], [0]]},
    "rect-string-rows": {"rows": "3", "cols": 1, "data": [[1.0, 0.0]]},
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(MALFORMED_MATRICES))
def test_malformed_matrix_exits_2(command, name, capsys):
    problem = _replace(TEMPLATES[command], MATRIX_SLOTS[command], MALFORMED_MATRICES[name])
    assert _run(command, json.dumps(problem), capsys) == 2


@pytest.mark.parametrize("command", ["catalysis-verify", "find-intertwiner", "recovery-verify",
                                     "wiegmann-equiv"])
def test_rectangular_matrix_in_square_slot_exits_2(command, capsys):
    rect = ser.matrix_to_json(np.ones((2, 3)))
    problem = _replace(TEMPLATES[command], MATRIX_SLOTS[command], rect)
    assert _run(command, json.dumps(problem), capsys) == 2


QUTRIT = ser.matrix_to_json(np.diag([0.0, 1.0, 2.0]))


@pytest.mark.parametrize("path, value", [
    (("gens_s", 0), QUTRIT),
    (("gens_e",), [QUTRIT]),
    (("gens_c",), TEMPLATES["recovery-verify"]["gens_c"] * 2),
], ids=["gens_s-dim", "gens_e-dim", "gens_c-count"])
def test_frame_generators_that_do_not_fit_exit_2(path, value, capsys):
    problem = _replace(TEMPLATES["recovery-verify"], path, value)
    assert _run("recovery-verify", json.dumps(problem), capsys) == 2


def test_directory_input_exits_2(tmp_path, capsys):
    for command in COMMANDS:
        assert main([command, "--input", str(tmp_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_undecodable_input_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"tuple_a": "\xff"}')  # 0xff never occurs in UTF-8
    for command in COMMANDS:
        assert main([command, "--input", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["recovery-verify", "--samples", "0"],
    ["recovery-verify", "--N", "0"],
    ["refframe-sweep", "--samples", "-3"],
    ["recovery-verify", "--seed", "-1"],
])
def test_numeric_arguments_rejected_by_parser(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "expected an integer" in capsys.readouterr().err


def test_non_integer_argument_rejected_by_parser():
    with pytest.raises(SystemExit) as info:
        main(["recovery-verify", "--N", "two"])
    assert info.value.code == 2


@pytest.mark.parametrize("levels", ["2,x", "0", "4,-2"])
def test_bad_ladder_list_rejected_by_parser(levels):
    with pytest.raises(SystemExit) as info:
        main(["refframe-sweep", "--Ns", levels, "--samples", "2"])
    assert info.value.code == 2


def test_empty_ladder_list_exits_2(capsys):
    assert main(["refframe-sweep", "--Ns", ",", "--samples", "2"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the library decides every verdict; the CLI only routes it
# ---------------------------------------------------------------------------

def _lie(*gens):
    return {"type": "lie", "generators": [ser.matrix_to_json(g) for g in gens]}


def _broken_scenario(m, seed, admissibility=None):
    """A generated scenario whose rho' is replaced by a random state; with a
    loose admissibility tolerance it reaches the intertwiner search, which fails."""
    problem = generate_admissible_scenario(2, 2, m, seed=seed).to_json()
    problem["rho_s_out"] = ser.matrix_to_json(la.random_density(2, np.random.default_rng(0)))
    if admissibility is not None:
        problem["tolerances"]["admissibility"] = admissibility
    return problem


def _scaled_fixture(scale):
    fx = rank_condition_counterexample()
    return {"tuple_a": [ser.matrix_to_json(scale * m) for m in fx.a],
            "tuple_b": [ser.matrix_to_json(scale * m) for m in fx.b]}


# the record the library returns for a problem file, with the CLI's defaults
# (seed 0, tolerance 1e-9)
LIBRARY = {
    "check-covariance": lambda p: is_covariant(
        ser.channel_from_json(p["channel"]), cli._rep_from_spec(p["rep_in"], "rep_in"),
        cli._rep_from_spec(p["rep_out"], "rep_out"), tol=1e-9),
    "wiegmann-equiv": lambda p: wiegmann_equivalent(
        ser.matrices_from_json(p["tuple_a"]), ser.matrices_from_json(p["tuple_b"]), seed=0),
    "find-intertwiner": lambda p: verify_catalysis(CatalysisScenario.from_json(p), 0, ledger=False),
    "catalysis-verify": lambda p: verify_catalysis(CatalysisScenario.from_json(p), 0, ledger=True),
    "recovery-verify": lambda p: verify_recovery(cli._frame_scenario_from_json(p)),
}
# the identity in a Haar basis, x1e9: its round-off refutes nothing
_Q = la.random_unitary(2, np.random.default_rng(3))
ROUNDED_SCALAR = 1e9 * (_Q @ _Q.conj().T)
KICKED = kicked_frame(dilated_frame_scenario(omega=np.diag([0.7, 0.3])), 1e-10, 1e-10)
# (command, problem, exit code): every template, and the failing and
# inconclusive inputs of test_cli.py
FILE_CASES = {
    **{name: (name.replace("-finite", ""), problem, 0) for name, problem in TEMPLATES.items()},
    "check-covariance-refuted": ("check-covariance", {
        "channel": {"d_in": 2, "d_out": 2,
                    "kraus": [ser.matrix_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))]},
        "rep_in": _lie(SZ), "rep_out": _lie(SZ)}, 1),
    "check-covariance-rounding": ("check-covariance", {
        "channel": {"d_in": 2, "d_out": 2, "kraus": [ser.matrix_to_json(SX)]},
        "rep_in": _lie(ROUNDED_SCALAR), "rep_out": _lie(ROUNDED_SCALAR)}, 3),
    "wiegmann-equiv-overflow": ("wiegmann-equiv", _scaled_fixture(1e308), 3),
    "wiegmann-equiv-distinguished": ("wiegmann-equiv", _scaled_fixture(1e110), 0),
    "find-intertwiner-inadmissible": ("find-intertwiner", _broken_scenario(1, 3), 1),
    "find-intertwiner-unsolved": ("find-intertwiner", _broken_scenario(0, 1, 10.0), 3),
    "catalysis-verify-inadmissible": ("catalysis-verify", _broken_scenario(1, 3), 1),
    "catalysis-verify-unsolved": ("catalysis-verify", _broken_scenario(0, 1, 10.0), 3),
    "recovery-verify-kicked": ("recovery-verify", frame_problem(KICKED), 3),
}


@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_library_outcome_is_the_exit_code(case, capsys):
    command, problem, code = FILE_CASES[case]
    record = LIBRARY[command](problem)
    assert EXIT_STATUS[record.outcome] == _run(command, json.dumps(problem), capsys) == code


@pytest.mark.parametrize("argv, call", [
    (["recovery-verify", "--N", "4"],
     lambda: verify_recovery(phase_reference_scenario(4, np.pi / 2))),
    (["refframe-sweep", "--Ns", "2,4"], lambda: degradation_sweep([2, 4], np.pi / 2)),
    (["demo-appendix"], lambda: demo_appendix(0)),
    (["demo-finite-group"], lambda: demo_finite_group(0)),
], ids=["recovery-verify-builtin", "refframe-sweep", "demo-appendix", "demo-finite-group"])
def test_library_outcome_is_the_exit_code_of_built_in_runs(argv, call, capsys):
    assert EXIT_STATUS[call().outcome] == main(argv) == 0
    capsys.readouterr()


def test_cli_holds_no_threshold():
    # every verdict threshold lives in the module that builds the record:
    # the one float literal of cli.py is the default of --tol
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    floats = [node.value for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, float)]
    assert floats == [1e-9]

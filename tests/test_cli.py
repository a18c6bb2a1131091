import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from covcat import cli, refframe
from covcat import linalg as la
from covcat import serialize as ser
from covcat.catalysis import CatalysisScenario, generate_admissible_scenario
from covcat.channels import Channel
from covcat.cli import main
from covcat.diamond import diamond_distance

from covcat.refframe import COVARIANCE_TOL, phase_reference_scenario
from covcat.symmetry import FiniteGroup, FiniteGroupRep, standard_representation

from conftest import (OTHER_GROUPS, certify_targets, dilated_frame_scenario, kicked_frame,
                      other_group_qubit_rep, rotated_environment, scale_generators,
                      shifted_superposition_mixture)


@pytest.fixture(autouse=True)
def reports_are_stdlib_renderings(monkeypatch):
    """Every report a test here writes, to a file or to stdout, is the stdlib's
    rendering of its payload and of its own parsed JSON."""
    dump_json = ser.dump_json

    def checked(payload):
        text = dump_json(payload)
        for value in (payload, json.loads(text)):
            assert text == json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"
        return text

    monkeypatch.setattr(ser, "dump_json", checked)
    monkeypatch.setattr(cli, "dump_json", checked)


def run_cli(args):
    return main(args)


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def test_demo_appendix_passes(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = run_cli(["demo-appendix", "--output", out])
    assert code == 0
    report = read_report(out)
    assert report["passed"]
    assert report["config"] == {"seed": 0}  # the demo takes no --input or --tol
    assert abs(report["result"]["gap"] - 2 * np.sqrt(3)) < 1e-9
    assert report["result"]["triple_verdict"]["word"] == "x0 x1 x2"
    assert "config" not in report["result"]["triple_verdict"]
    for pair in report["result"]["pairwise"].values():
        assert pair["success"] and pair["residual"] < 1e-6
    assert report["result"]["tensored_9x9"]["residual"] < 1e-6
    assert capsys.readouterr().out == ""  # the report holds every number; nothing is printed
    # without --output, stdout is that report and nothing else
    assert run_cli(["demo-appendix"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown.pop("metadata") and report.pop("metadata")
    assert shown == report


def test_demo_finite_group_passes(tmp_path):
    out = str(tmp_path / "report.json")
    assert run_cli(["demo-finite-group", "--output", out]) == 0
    report = read_report(out)
    assert report["passed"]
    assert report["result"]["Z2"]["state_swap_covariant"]
    assert report["result"]["S3"]["covariant"]


def test_wiegmann_equiv_identical_tuples(tmp_path, rng):
    mats = [la.random_hermitian(3, rng) for _ in range(2)]
    problem = {"tuple_a": [ser.matrix_to_json(m) for m in mats],
               "tuple_b": [ser.matrix_to_json(m) for m in mats],
               "config": {"num_random_words": 20}}
    inp = tmp_path / "problem.json"
    inp.write_text(json.dumps(problem))
    out = str(tmp_path / "report.json")
    assert run_cli(["wiegmann-equiv", "--input", str(inp), "--output", out]) == 0
    report = read_report(out)
    result = report["result"]
    assert result["verdict"] == "equivalent"
    assert result["certificate"]["verdict"] == "equivalent"
    assert result["words_checked"] == 2 * result["span"]
    assert report["config"] == {"input": str(inp), "seed": 0, "tol": 1e-9}
    assert "config" not in result


def test_wiegmann_equiv_inputs_come_from_the_flags_alone(tmp_path, capsys, rng):
    mats = [la.random_hermitian(3, rng) for _ in range(2)]
    problem = {"tuple_a": [ser.matrix_to_json(m) for m in mats],
               "tuple_b": [ser.matrix_to_json(m) for m in mats]}
    inp, out = tmp_path / "problem.json", str(tmp_path / "report.json")
    inp.write_text(json.dumps(problem))
    argv = ["wiegmann-equiv", "--input", str(inp), "--output", out]
    assert run_cli([*argv, "--seed", "3", "--tol", "1e-6"]) == 0
    report = read_report(out)
    assert report["config"] == {"input": str(inp), "seed": 3, "tol": 1e-6}
    assert report["result"]["verdict"] == "equivalent" and "config" not in report["result"]
    # a file's config holds none of the run's inputs: seed and tol are flags
    for key, value in (("seed", 5), ("tol", 1e-3)):
        problem["config"] = {key: value}
        inp.write_text(json.dumps(problem))
        assert run_cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config") and repr(key) in err
        assert "Traceback" not in err
        assert read_report(out).keys() == {"command", "error", "passed"}


def test_wiegmann_equiv_obsolete_config_keys(tmp_path, capsys, rng):
    # the keys of the former word enumeration are type-checked, then ignored
    mats = [la.random_hermitian(3, rng) for _ in range(2)]
    problem = {"tuple_a": [ser.matrix_to_json(m) for m in mats],
               "tuple_b": [ser.matrix_to_json(m) for m in mats],
               "config": {"max_length": 14, "max_exponent": 9, "num_random_words": 10 ** 9}}
    inp = tmp_path / "problem.json"
    inp.write_text(json.dumps(problem))
    start = time.monotonic()
    assert run_cli(["wiegmann-equiv", "--input", str(inp)]) == 0
    assert time.monotonic() - start < 1.0
    for key, bad in (("max_length", -1), ("max_exponent", 0), ("num_random_words", "3")):
        problem["config"] = {key: bad}
        inp.write_text(json.dumps(problem))
        assert run_cli(["wiegmann-equiv", "--input", str(inp)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config.{key}") and "Traceback" not in err


def test_check_covariance_lie(tmp_path, rng):
    u = np.diag(np.exp(1j * np.arange(3)))
    problem = {
        "channel": {"d_in": 3, "d_out": 3, "kraus": [ser.matrix_to_json(u)]},
        "rep_in": {"type": "lie", "generators": [ser.matrix_to_json(np.diag([0.0, 1.0, 2.0]))]},
        "rep_out": {"type": "lie", "generators": [ser.matrix_to_json(np.diag([0.0, 1.0, 2.0]))]},
    }
    inp = tmp_path / "cov.json"
    inp.write_text(json.dumps(problem))
    out = str(tmp_path / "report.json")
    assert run_cli(["check-covariance", "--input", str(inp), "--output", out]) == 0
    report = read_report(out)
    assert report["result"]["covariant"]
    assert report["config"] == {"input": str(inp), "seed": 0, "tol": 1e-9}


def test_input_files_are_utf8_under_the_c_locale(tmp_path):
    # an ASCII locale with Python's UTF-8 mode and locale coercion off: the
    # file is still read as UTF-8, so its non-ASCII group label loads
    rep = {"type": "finite", **ser.rep_to_json(FiniteGroupRep(
        FiniteGroup.cyclic(2), [np.eye(2), np.diag([1.0, -1.0])]))}
    rep["group"]["labels"] = ["é0", "é1"]
    problem = {"channel": {"d_in": 2, "d_out": 2, "kraus": [ser.matrix_to_json(np.eye(2))]},
               "rep_in": rep, "rep_out": rep}
    inp = tmp_path / "cov.json"
    inp.write_bytes(json.dumps(problem, ensure_ascii=False).encode("utf-8"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-m", "covcat.cli", "check-covariance",
                          "--input", str(inp), "--output", str(tmp_path / "r.json")],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert read_report(tmp_path / "r.json")["result"]["covariant"]


def test_check_covariance_failure_exit_code(tmp_path):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    problem = {
        "channel": {"d_in": 2, "d_out": 2, "kraus": [ser.matrix_to_json(hadamard)]},
        "rep_in": {"type": "lie", "generators": [ser.matrix_to_json(np.diag([1.0, -1.0]))]},
        "rep_out": {"type": "lie", "generators": [ser.matrix_to_json(np.diag([1.0, -1.0]))]},
    }
    inp = tmp_path / "cov.json"
    inp.write_text(json.dumps(problem))
    assert run_cli(["check-covariance", "--input", str(inp),
                    "--output", str(tmp_path / "r.json")]) == 1


def test_check_covariance_within_the_generators_rounding_exits_3(tmp_path):
    # 1e9 times the identity in a Haar basis: its round-off exceeds the
    # tolerance, but refutes nothing
    q = la.random_unitary(2, np.random.default_rng(3))
    rep = {"type": "lie", "generators": [ser.matrix_to_json(1e9 * (q @ q.conj().T))]}
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    problem = {"channel": {"d_in": 2, "d_out": 2, "kraus": [ser.matrix_to_json(sx)]},
               "rep_in": rep, "rep_out": rep}
    inp, out = tmp_path / "cov.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps(problem))
    assert run_cli(["check-covariance", "--input", str(inp), "--output", out]) == 3
    result = read_report(out)["result"]
    assert not result["covariant"] and not result["conclusive"]
    assert "tol" not in result  # the run's tolerance is recorded once, in config
    assert result["worst_violation"] > read_report(out)["config"]["tol"]


@pytest.mark.parametrize("kraus, d_in, d_out", [
    ([np.array([[1.0, 0.0]]), np.eye(2)], 2, 2),  # a 1x2 operator next to a 2x2 one
    ([np.eye(2)], 3, 2),
    ([np.eye(2)], 2, 3),
], ids=["mixed-shapes", "declared-d_in", "declared-d_out"])
def test_check_covariance_kraus_shape_errors_exit_2(kraus, d_in, d_out, tmp_path, capsys):
    sz = ser.matrix_to_json(np.diag([1.0, -1.0]))
    problem = {
        "channel": {"d_in": d_in, "d_out": d_out, "kraus": [ser.matrix_to_json(k) for k in kraus]},
        "rep_in": {"type": "lie", "generators": [sz]},
        "rep_out": {"type": "lie", "generators": [sz]},
    }
    inp = tmp_path / "cov.json"
    inp.write_text(json.dumps(problem))
    assert run_cli(["check-covariance", "--input", str(inp),
                    "--output", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", ["wiegmann-equiv", "check-covariance"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_flag_must_be_finite_and_non_negative(command, tol, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli([command, "--input", str(tmp_path / "cov.json"), "--tol", tol])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "expected a finite number >= 0" in err and "Traceback" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["recovery-verify", "refframe-sweep"])
@pytest.mark.parametrize("theta", ["nan", "inf", "-inf"])
def test_theta_flag_must_be_finite(command, theta, capsys):
    # a non-finite angle would reach np.cos in phase_reference_scenario
    with pytest.raises(SystemExit) as info:
        run_cli([command, f"--theta={theta}"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "expected a finite number" in err
    assert "Traceback" not in err


def test_malformed_input_exit_code(tmp_path):
    inp = tmp_path / "bad.json"
    inp.write_text(json.dumps({"tuple_a": [], "oops": 1}))
    assert run_cli(["wiegmann-equiv", "--input", str(inp)]) == 2
    inp2 = tmp_path / "notjson.json"
    inp2.write_text("{")
    assert run_cli(["wiegmann-equiv", "--input", str(inp2)]) == 2
    assert run_cli(["wiegmann-equiv", "--input", str(tmp_path / "missing.json")]) == 2


def test_output_into_missing_directory_exits_malformed(tmp_path, capsys):
    out = str(tmp_path / "missing" / "r.json")
    assert run_cli(["demo-appendix", "--output", out]) == 2  # success report
    assert capsys.readouterr().err.startswith("error: ")
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli(["wiegmann-equiv", "--input", str(bad), "--output", out]) == 2  # error report
    assert capsys.readouterr().err.count("error: ") == 2
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command, target", [
    ("wiegmann-equiv", "wiegmann_equivalent"),
    ("recovery-verify", "verify_recovery"),
    ("refframe-sweep", "degradation_sweep"),
])
@pytest.mark.parametrize("message", ["Unable to allocate 16.0 GiB for an array", ""])
def test_out_of_memory_exits_3_with_an_error_report(command, target, message, tmp_path,
                                                    monkeypatch, capsys):
    # the error is raised, not provoked: nothing large is allocated
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, exhausted)
    inp = tmp_path / "tuples.json"
    mats = [ser.matrix_to_json(np.eye(2))]
    inp.write_text(json.dumps({"tuple_a": mats, "tuple_b": mats}))
    argv = [command] + (["--input", str(inp)] if command == "wiegmann-equiv" else [])
    want = {"command": command, "passed": False, "error": f"out of memory: {message}"}
    # without --output the error report goes to stdout, the error line to stderr
    assert run_cli(argv) == 3
    out, err = capsys.readouterr()
    assert json.loads(out) == want and err == f"error: out of memory: {message}\n"
    report = tmp_path / "r.json"
    assert run_cli(argv + ["--output", str(report)]) == 3
    out, err = capsys.readouterr()
    assert err == f"error: out of memory: {message}\n"
    assert out == "" and read_report(report) == want


def test_find_intertwiner_and_catalysis_verify(tmp_path):
    sc = generate_admissible_scenario(2, 2, 1, seed=3)
    inp = tmp_path / "scenario.json"
    inp.write_text(json.dumps(sc.to_json()))
    out1 = str(tmp_path / "r1.json")
    assert run_cli(["find-intertwiner", "--input", str(inp), "--output", out1]) == 0
    r1 = read_report(out1)
    assert r1["result"]["intertwiner"]["success"]
    out2 = str(tmp_path / "r2.json")
    assert run_cli(["catalysis-verify", "--input", str(inp), "--output", out2]) == 0
    r2 = read_report(out2)
    assert r2["result"]["correlation"]["catalyst_preserved"]
    assert r2["result"]["scenario"]["admissible"]


@pytest.mark.parametrize("command", ["find-intertwiner", "catalysis-verify"])
def test_report_writes_the_intertwiner_once(command, tmp_path):
    sc = generate_admissible_scenario(3, 2, 2, seed=4)
    inp, out = tmp_path / "scenario.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps(sc.to_json()))
    assert run_cli([command, "--input", str(inp), "--output", out]) == 0
    intertwiner = read_report(out)["result"]["intertwiner"]
    assert "unitary" not in intertwiner["solver"]
    v = ser.matrix_from_json(intertwiner["unitary"])
    assert np.abs(v @ sc.rho_s @ v.conj().T - sc.rho_s_out).max() < 1e-8


@pytest.mark.parametrize("command", ["find-intertwiner", "catalysis-verify"])
def test_scenario_is_verified_once(command, tmp_path, monkeypatch):
    from covcat import catalysis
    calls = []  # conservation_residuals runs once per verify_scenario, wherever it is called
    residuals = catalysis.conservation_residuals
    monkeypatch.setattr(catalysis, "conservation_residuals",
                        lambda *legs: calls.append(legs) or residuals(*legs))
    inp = tmp_path / "scenario.json"
    inp.write_text(json.dumps(generate_admissible_scenario(3, 2, 2, seed=4).to_json()))
    assert run_cli([command, "--input", str(inp)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("scale", [1e-6, 20, 30, 1e7, 1e8, 1e300]
                         + [10.0 ** k for k in (*range(-5, 7), 9)])
@pytest.mark.parametrize("command", ["find-intertwiner", "catalysis-verify"])
def test_scaled_generators_are_solved(command, scale, tmp_path):
    # well formed and admissible; exp(-X) of these generators is near-singular
    # (x20) or no longer positive in floating point (x30), and from x1e7 on the
    # conservation residuals and the intertwiner's residual exceed their
    # tolerances in absolute terms but not relative to the generators; at
    # x1e300 the solver's constraint norm squares no unscaled entry, which
    # overflowed (a RuntimeWarning, an error under the suite's filterwarnings)
    sc = scale_generators(generate_admissible_scenario(3, 2, 2, seed=4), scale)
    inp, out = tmp_path / "scaled.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps(sc.to_json()))
    assert run_cli([command, "--input", str(inp), "--output", out]) == 0
    intertwiner = read_report(out)["result"]["intertwiner"]
    assert intertwiner["success"] and intertwiner["solver"]["verdict"] == "equivalent"


@pytest.mark.parametrize("command", ["find-intertwiner", "catalysis-verify"])
def test_huge_generators_are_never_judged_inadmissible(command, tmp_path):
    # x1e9 stays admissible, and the scenario is never refuted (exit 1)
    sc = scale_generators(generate_admissible_scenario(3, 2, 2, seed=4), 1e9)
    inp = tmp_path / "scaled.json"
    inp.write_text(json.dumps(sc.to_json()))
    assert run_cli([command, "--input", str(inp)]) != 1


def shift_catalyst_generators(sc, offset, violation=0.0):
    """``sc`` with ``offset * 1`` added to every catalyst generator, and
    ``violation * diag(0, 1, ...)`` added to every outgoing system generator."""
    return CatalysisScenario(
        unitary=sc.unitary, rho_s=sc.rho_s, rho_s_out=sc.rho_s_out, sigma_c=sc.sigma_c,
        gens_s_in=sc.gens_s_in,
        gens_s_out=[g + violation * np.diag(np.arange(sc.d_s)) for g in sc.gens_s_out],
        gens_c=[g + offset * np.eye(sc.d_c) for g in sc.gens_c])


@pytest.mark.parametrize("offset", [1e3, 1e6, 1e9])
def test_offset_generators_do_not_hide_a_violation(offset, tmp_path):
    # U X - Y U is blind to a common identity offset, so a 1e-6 violation of
    # conservation stays a refutation however far the generators are shifted
    sc = generate_admissible_scenario(3, 2, 2, seed=4)
    inp = tmp_path / "shifted.json"
    inp.write_text(json.dumps(shift_catalyst_generators(sc, offset, 1e-6).to_json()))
    assert run_cli(["catalysis-verify", "--input", str(inp)]) == 1


@pytest.mark.parametrize("offset", [1e3, 1e6])
def test_offset_generators_stay_admissible(offset, tmp_path):
    # from 1e9 on, the input's own diagonal entries hold the generator only to
    # ulp(offset) ~ 1e-7, which is itself a violation above the tolerance
    sc = generate_admissible_scenario(3, 2, 2, seed=4)
    inp, out = tmp_path / "shifted.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps(shift_catalyst_generators(sc, offset).to_json()))
    assert run_cli(["catalysis-verify", "--input", str(inp), "--output", out]) == 0
    assert read_report(out)["result"]["scenario"]["admissible"]


def test_inadmissible_scenario_fails(tmp_path, rng):
    sc = generate_admissible_scenario(2, 2, 1, seed=3)
    payload = sc.to_json()
    payload["rho_s_out"] = ser.matrix_to_json(la.random_density(2, rng))
    inp = tmp_path / "broken.json"
    inp.write_text(json.dumps(payload))
    assert run_cli(["catalysis-verify", "--input", str(inp)]) == 1


def test_solver_failure_exit_code(tmp_path, rng):
    # admissibility tolerance loosened so an unsolvable instance reaches the
    # solver: exit 3 marks solver non-convergence, with the report emitted
    sc = generate_admissible_scenario(2, 2, 0, seed=1)
    payload = sc.to_json()
    payload["rho_s_out"] = ser.matrix_to_json(la.random_density(2, rng))
    payload["tolerances"]["admissibility"] = 10.0
    inp = tmp_path / "unsolvable.json"
    inp.write_text(json.dumps(payload))
    out = str(tmp_path / "r.json")
    assert run_cli(["find-intertwiner", "--input", str(inp), "--output", out]) == 3
    report = read_report(out)
    assert not report["result"]["intertwiner"]["success"]
    # the report does not copy the input file: its config names it
    assert report["result"]["intertwiner"].keys() == {
        "success", "state_residual", "intertwining_residual", "solver"}
    assert report["config"] == {"input": str(inp), "seed": 0}


def test_wiegmann_equiv_overflow_exits_inconclusive(tmp_path):
    from covcat.catalysis import rank_condition_counterexample
    fx = rank_condition_counterexample()
    inp, out = tmp_path / "scaled.json", str(tmp_path / "r.json")
    # at 1e+-110 the normalised walk finds the appendix witness
    for scale in (1e110, 1e-110):
        inp.write_text(json.dumps({"tuple_a": [ser.matrix_to_json(scale * m) for m in fx.a],
                                   "tuple_b": [ser.matrix_to_json(scale * m) for m in fx.b]}))
        assert run_cli(["wiegmann-equiv", "--input", str(inp), "--output", out]) == 0
        result = read_report(out)["result"]
        assert result["verdict"] == "distinguished" and result["word"] == "x0 x1 x2"
    # at 1e308 the entries are finite but the norm of x2 is not
    inp.write_text(json.dumps({"tuple_a": [ser.matrix_to_json(1e308 * m) for m in fx.a],
                               "tuple_b": [ser.matrix_to_json(1e308 * m) for m in fx.b]}))
    assert run_cli(["wiegmann-equiv", "--input", str(inp), "--output", out]) == 3
    report = read_report(out)
    assert report["result"]["verdict"] == "inconclusive"
    assert not report["passed"]


def test_wiegmann_equiv_rounded_scaled_tuple_is_accepted(tmp_path, rng):
    # conjugation leaves each matrix Hermitian only up to rounding, which at
    # scale 1e100 is far above an absolute 1e-10
    mats = [la.random_hermitian(3, rng) for _ in range(2)]
    q = la.random_unitary(3, rng)
    inp, out = tmp_path / "scaled.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps({
        "tuple_a": [ser.matrix_to_json(1e100 * m) for m in mats],
        "tuple_b": [ser.matrix_to_json(1e100 * (q @ m @ q.conj().T)) for m in mats]}))
    assert run_cli(["wiegmann-equiv", "--input", str(inp), "--output", out]) == 0
    assert read_report(out)["result"]["verdict"] == "equivalent"


def test_recovery_verify_builtin(tmp_path):
    out = str(tmp_path / "rec.json")
    code = run_cli(["recovery-verify", "--N", "4", "--samples", "15", "--output", out])
    assert code == 0
    report = read_report(out)
    assert report["passed"]
    assert report["result"]["scenario"] == {"N": 4, "theta": np.pi / 2}
    res = report["result"]["report"]
    assert res["worst_distance"] <= res["bound"] + 1e-5


def frame_json(sc, gen_scale=1.0):
    """Frame-scenario input file of ``sc``, every generator times ``gen_scale``."""
    payload = {"unitary": ser.matrix_to_json(sc.unitary), "sigma_c": ser.matrix_to_json(sc.sigma_c),
               "target": ser.matrix_to_json(sc.target),
               "gens_s": [ser.matrix_to_json(gen_scale * g) for g in sc.gens_s],
               "gens_c": [ser.matrix_to_json(gen_scale * g) for g in sc.gens_c]}
    if sc.d_e > 1:
        payload["gens_e"] = [ser.matrix_to_json(gen_scale * g) for g in sc.gens_e]
        payload["omega_e"] = ser.matrix_to_json(sc.omega_e)
    return json.dumps(payload)


def test_recovery_verify_mixed_environment_input(tmp_path):
    # a mixed symmetric environment state is purified together with the frame
    inp, out = tmp_path / "frame.json", str(tmp_path / "r.json")
    inp.write_text(frame_json(dilated_frame_scenario(omega=np.diag([0.7, 0.3]))))
    argv = ["recovery-verify", "--input", str(inp), "--samples", "20", "--output", out]
    assert run_cli(argv) == 0
    report = read_report(out)
    assert report["config"] == {"input": str(inp), "seed": 0}
    assert report["result"].keys() == {"report"}  # the file is named in config alone
    res = report["result"]["report"]
    assert res["passed"] and res["worst_distance"] <= res["bound"] + 1e-5


def test_admitted_frame_is_never_failed_by_its_covariance_bound(tmp_path):
    # the dilated ladder with a mixed environment, its dynamics and
    # environment state kicked by 1e-10: admitted (residual 2.6e-10, deviation
    # 1e-10), yet its recovery's covariance bound is above the tolerance. A
    # bound refutes nothing, so the check stays open (exit 3) instead of
    # failing the admitted frame (exit 1)
    sc = kicked_frame(dilated_frame_scenario(omega=np.diag([0.7, 0.3])), 1e-10, 1e-10)
    assert sc.covariance_bound > COVARIANCE_TOL
    inp, out = tmp_path / "frame.json", str(tmp_path / "r.json")
    inp.write_text(frame_json(sc))
    assert run_cli(["recovery-verify", "--input", str(inp), "--output", out]) == 3
    res = read_report(out)["result"]["report"]
    assert res["verdict"] == "inconclusive" and res["failures"] == []
    assert res["inconclusive"] == [f"recovery covariance not certified "
                                   f"(bound {sc.covariance_bound:.3e})"]
    assert res["covariance_defect"] == sc.covariance_bound


def test_commands_verify_without_building_the_recovered_dynamics(monkeypatch, capsys):
    def refused(sc):
        raise AssertionError("a command built T'")

    monkeypatch.setattr(refframe, "catalytic_channel", refused)
    assert run_cli(["recovery-verify", "--N", "4"]) == 0
    assert run_cli(["refframe-sweep", "--Ns", "2,4"]) == 0


@pytest.mark.parametrize("k", range(10))
def test_recovery_verify_large_generators(k, tmp_path):
    # the frame is admitted relative to its generators, and the covariance of
    # the recovered dynamics is judged on the same scale; so is the symmetry
    # of a mixed environment state whose commutators carry round-off, here
    # one turned off the generators' eigenbasis
    rotated = rotated_environment(dilated_frame_scenario(omega=np.diag([0.7, 0.3])),
                                  la.random_unitary(2, np.random.default_rng(3)))
    for sc in (phase_reference_scenario(8, np.pi / 2), rotated):
        inp, out = tmp_path / "frame.json", str(tmp_path / "r.json")
        inp.write_text(frame_json(sc, 10.0 ** k))
        assert run_cli(["recovery-verify", "--input", str(inp), "--samples", "20",
                        "--output", out]) == 0
        res = read_report(out)["result"]["report"]
        assert res["passed"] and res["covariance_defect"] <= 1e-9


@pytest.mark.parametrize("scale", [1e200, 1e300])
@pytest.mark.parametrize("kraus, code, violation", [
    # phased amplitude damping, covariant: each Kraus operator shifts the charge
    # Z by a fixed amount; its phases keep the unscaled defect from cancelling
    # exactly, so its round-off would square to inf
    pytest.param([np.diag([np.exp(0.4j), np.sqrt(0.7) * np.exp(1.1j)]),
                  np.sqrt(0.3) * np.exp(2.3j) * np.array([[0.0, 1.0], [0.0, 0.0]])], 0, 0.0,
                 id="damping"),
    # Hadamard: turns Z into X
    pytest.param([np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)], 1, 4.0, id="hadamard"),
])
def test_check_covariance_at_huge_generators(scale, kraus, code, violation, tmp_path, capsys):
    # the defect is formed from the generators over their scale, so no
    # product overflows to inf and flips or breaks the verdict
    rep = {"type": "lie", "generators": [ser.matrix_to_json(scale * np.diag([1.0, -1.0]))]}
    inp, out = tmp_path / "cc.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps({"channel": {"d_in": 2, "d_out": 2,
                                           "kraus": [ser.matrix_to_json(k) for k in kraus]},
                               "rep_in": rep, "rep_out": rep}))
    assert run_cli(["check-covariance", "--input", str(inp), "--output", out]) == code
    res = read_report(out)["result"]
    assert res["conclusive"] and abs(res["worst_violation"] - violation) <= 1e-12
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("scale", [1e306, 1e307])
def test_recovery_verify_at_huge_generators(scale, tmp_path):
    # the residual's Frobenius norm is taken over its scale: squared at
    # 1e306 its entries would overflow, and check (b) would read inconclusive
    inp, out = tmp_path / "frame.json", str(tmp_path / "r.json")
    inp.write_text(frame_json(phase_reference_scenario(4, np.pi / 2), scale))
    assert run_cli(["recovery-verify", "--input", str(inp), "--output", out]) == 0
    res = read_report(out)["result"]["report"]
    assert res["passed"] and res["covariance_defect"] <= 1e-14


# ---------------------------------------------------------------------------
# scaled generators: no verdict flips
# ---------------------------------------------------------------------------

def assert_no_flip(command, payload_at, tmp_path, *extra):
    """Run ``command`` on the input ``payload_at(scale)`` at scale 1 and at
    10^k for k = -6...9. Scaling every conserved quantity changes no symmetry,
    so each exit code must be that of scale 1 or 3 (inconclusive); return the
    exit code at scale 1."""
    inp = tmp_path / "scaled.json"
    codes = {}
    for scale in [1.0] + [10.0 ** k for k in range(-6, 10)]:
        inp.write_text(payload_at(scale))
        codes[scale] = run_cli([command, "--input", str(inp), *extra])
    flips = {scale: code for scale, code in codes.items() if code not in (codes[1.0], 3)}
    assert not flips, (codes[1.0], flips)
    return codes[1.0]


scale_property = settings(max_examples=20, deadline=None,
                          suppress_health_check=[HealthCheck.function_scoped_fixture])


@scale_property
@given(d_s=st.integers(2, 3), d_c=st.integers(1, 3), m=st.integers(1, 2),
       seed=st.integers(0, 2 ** 16), violation=st.sampled_from([0.0, 0.5]))
def test_scaled_scenarios_keep_their_verdict(d_s, d_c, m, seed, violation, tmp_path, capsys):
    # a violated conservation law scales with the generators: refuted at every
    # scale. Below unit size the residuals are judged absolutely (the floor of
    # 1 in their denominator), so a violation under 1e-3 would pass at x1e-6
    sc = shift_catalyst_generators(generate_admissible_scenario(d_s, d_c, m, seed=seed),
                                   0.0, violation)
    base = assert_no_flip("catalysis-verify",
                          lambda s: json.dumps(scale_generators(sc, s).to_json()), tmp_path)
    assert base == (1 if violation else 0)


def charge_shifting_channel(levels, rank, rng):
    """Random channel whose Kraus operators each shift the charge
    ``diag(levels)`` by one fixed amount, so it is covariant under that
    generator; operator 0 keeps the charge and makes the Kraus sum invertible."""
    diff = np.subtract.outer(levels, levels)
    shifts = [0.0] + list(rng.choice(np.unique(diff), size=rank - 1))
    d = len(levels)
    ks = np.array([(diff == t) * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                   for t in shifts])
    gram = np.einsum("kji,kjl->il", ks.conj(), ks)
    return ks @ la.hermitian_power(gram, -0.5)


@scale_property
@given(levels=st.lists(st.integers(0, 3), min_size=2, max_size=4), rank=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), broken=st.booleans())
def test_scaled_covariant_channels_keep_their_verdict(levels, rank, seed, broken, tmp_path,
                                                      capsys):
    # turned to a Haar basis, so that the generator and the Kraus operators
    # carry round-off; a Haar unitary on the input side breaks covariance by
    # O(1), which the absolute judgement below unit size still sees at x1e-6.
    # Equal levels make the generator scalar up to that round-off: from x1e7
    # on its defect exceeds the tolerance but not the generators' rounding
    rng = np.random.default_rng(seed)
    q = la.random_unitary(len(levels), rng)
    ks = q @ charge_shifting_channel(np.array(levels, dtype=float), rank, rng) @ q.conj().T
    if broken:
        ks = ks @ la.random_unitary(len(levels), rng)
    gen = q @ np.diag(np.array(levels, dtype=float)) @ q.conj().T

    def payload(scale):
        rep = {"type": "lie", "generators": [ser.matrix_to_json(scale * gen)]}
        return json.dumps({"channel": {"d_in": len(levels), "d_out": len(levels),
                                       "kraus": [ser.matrix_to_json(k) for k in ks]},
                           "rep_in": rep, "rep_out": rep})

    base = assert_no_flip("check-covariance", payload, tmp_path)
    assert base == 0 or broken


@scale_property
@given(kind=st.sampled_from(["pure", "mixed", "dilated"]), n=st.integers(2, 6),
       theta=st.floats(0.0, np.pi), mix=st.floats(0.0, 1.5), p=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_scaled_frames_keep_their_verdict(kind, n, theta, mix, p, seed, tmp_path, capsys):
    if kind == "dilated":  # a mixed environment state, off the generators' eigenbasis
        sc = rotated_environment(dilated_frame_scenario(theta, n, mix=mix, omega=np.diag([p, 1 - p])),
                                 la.random_unitary(2, np.random.default_rng(seed)))
    else:
        sigma = shifted_superposition_mixture(n, mix, p) if kind == "mixed" else None
        sc = phase_reference_scenario(n, theta, sigma_c=sigma)
    assert_no_flip("recovery-verify", lambda s: frame_json(sc, s), tmp_path, "--samples", "10")


def test_recovery_verify_large_ladder(tmp_path):
    # d = 128 on S (x) C: a dense superoperator would hold 128^4 entries
    out = str(tmp_path / "rec64.json")
    assert run_cli(["recovery-verify", "--N", "64", "--output", out]) == 0
    res = read_report(out)["result"]["report"]
    assert res["passed"] and res["covariance_defect"] == 0.0


def test_refframe_sweep_rows(tmp_path, capsys):
    out = str(tmp_path / "sweep.json")
    code = run_cli(["refframe-sweep", "--Ns", "2,4", "--theta", "1.5707963",
                    "--samples", "10", "--output", out])
    assert code == 0
    # --output names the report, as for every command; nothing is printed
    assert capsys.readouterr().out == ""
    report = read_report(out)
    assert report["passed"] and list(report["result"]) == ["rows"]
    rows = report["result"]["rows"]
    # without --output the report goes to stdout, with the same rows
    assert run_cli(["refframe-sweep", "--Ns", "2,4", "--theta", "1.5707963"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"rows": rows}
    assert len(rows) == 2
    for row in rows:
        fields = row.split(",")
        assert len(fields) == 7
        assert float(fields[5]) <= float(fields[4]) <= float(fields[3])  # witness <= worst <= bound
        assert fields[6] == "ok"


def test_refframe_sweep_small_error_regime(capsys):
    # theta = 1e-4: the regime of good reference frames, certified without iterating
    assert run_cli(["refframe-sweep", "--Ns", "2,4,8,16,32", "--theta", "1e-4"]) == 0
    rows = json.loads(capsys.readouterr().out)["result"]["rows"]
    assert len(rows) == 5
    for row in rows:
        fields = row.split(",")
        assert fields[6] == "ok" and float(fields[4]) <= float(fields[3])


def test_bracket_straddling_a_check_exits_inconclusive(tmp_path, monkeypatch):
    from covcat import refframe
    from covcat.diamond import DiamondResult

    def straddling(t1, t2):  # the true value is about 0.217; the frame checks fail at 1e-6
        return DiamondResult(value=0.15, status="converged", lower=1e-6, upper=0.3,
                             iterations=0)

    monkeypatch.setattr(refframe, "diamond_distance", straddling)
    out = str(tmp_path / "rec.json")
    assert run_cli(["recovery-verify", "--N", "8", "--samples", "15", "--output", out]) == 3
    res = read_report(out)["result"]["report"]
    assert res["verdict"] == "inconclusive" and res["inconclusive"] and not res["failures"]
    assert res["bound_lower"] < res["worst_distance"] < res["bound_upper"]
    out = str(tmp_path / "sweep.json")
    assert run_cli(["refframe-sweep", "--Ns", "8", "--samples", "15", "--output", out]) == 3
    assert read_report(out)["result"]["rows"][0].endswith(",inconclusive")


def test_failure_at_the_upper_end_of_an_open_bracket_exits_1(tmp_path, monkeypatch):
    from covcat import refframe
    from covcat.diamond import DiamondResult

    def open_bracket(t1, t2):  # the frame checks fail even at the upper end, 1e-6
        return DiamondResult(value=5e-7, status="bounds", lower=1e-7, upper=1e-6,
                             iterations=7)

    monkeypatch.setattr(refframe, "diamond_distance", open_bracket)
    out = str(tmp_path / "rec.json")
    assert run_cli(["recovery-verify", "--N", "8", "--samples", "15", "--output", out]) == 1
    res = read_report(out)["result"]["report"]
    assert res["verdict"] == "failed" and res["epsilon_result"]["status"] == "bounds"
    out = str(tmp_path / "sweep.json")
    assert run_cli(["refframe-sweep", "--Ns", "8", "--samples", "15", "--output", out]) == 1
    assert read_report(out)["result"]["rows"][0].endswith(",FAILED")
    # a certified failure decides the sweep even when another row's bracket
    # is open: N = 8 fails at the upper end, N = 4 passes at its true value
    n4 = phase_reference_scenario(4, np.pi / 2)
    true_n4 = diamond_distance(n4.induced_system_channel(), Channel.from_unitary(n4.target))
    brackets = iter([open_bracket(None, None), dataclasses.replace(true_n4, status="bounds")])
    monkeypatch.setattr(refframe, "diamond_distance", lambda t1, t2: next(brackets))
    assert run_cli(["refframe-sweep", "--Ns", "8,4", "--samples", "15", "--output", out]) == 1
    rows = read_report(out)["result"]["rows"]
    assert [row.rsplit(",", 1)[1] for row in rows] == ["FAILED", "bounds"]


@pytest.mark.parametrize("flag", [["--N", "64"], ["--theta", "1.0"]])
def test_recovery_verify_input_rejects_ladder_flags(flag, tmp_path, capsys):
    # --N and --theta shape only the built-in ladder; with --input they would be ignored
    inp = tmp_path / "frame.json"
    inp.write_text(frame_json(phase_reference_scenario(4, np.pi / 2)))
    assert run_cli(["recovery-verify", "--input", str(inp), *flag]) == 2
    assert "cannot be combined with --input" in capsys.readouterr().err


def test_recovery_verify_accepts_empty_generator_lists(tmp_path):
    # a frame without conserved quantities, as catalysis files already allow
    payload = json.loads(frame_json(phase_reference_scenario(4, np.pi / 2)))
    payload["gens_s"] = payload["gens_c"] = []
    inp, out = tmp_path / "frame.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps(payload))
    assert run_cli(["recovery-verify", "--input", str(inp), "--samples", "10",
                    "--output", out]) == 0
    assert read_report(out)["passed"]


@pytest.mark.parametrize("kind", ["ladder-4x4-generators", "identity-1x1-frame-generator"])
def test_recovery_verify_rejects_generators_of_the_wrong_width(kind, tmp_path, capsys):
    # each leg's generators must be as wide as the leg, not only their product
    # as wide as the global unitary
    if kind == "ladder-4x4-generators":
        payload = json.loads(frame_json(phase_reference_scenario(8, np.pi / 2)))
        payload["gens_s"] = payload["gens_c"] = [ser.matrix_to_json(np.zeros((4, 4)))]
    else:
        m = ser.matrix_to_json
        payload = {"unitary": m(np.eye(4)), "sigma_c": m(np.eye(2) / 2), "target": m(np.eye(2)),
                   "gens_s": [m(np.eye(4))], "gens_c": [m(np.eye(1))]}
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps(payload))
    assert run_cli(["recovery-verify", "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: every entry of gens_s") and "Traceback" not in err


@pytest.mark.parametrize("gens_e", [False, 0, "", {}], ids=["false", "zero", "empty-string",
                                                            "empty-object"])
def test_recovery_verify_rejects_non_list_environment_generators(gens_e, tmp_path, capsys):
    payload = json.loads(frame_json(phase_reference_scenario(4, np.pi / 2)))
    payload["gens_e"] = gens_e
    inp = tmp_path / "frame.json"
    inp.write_text(json.dumps(payload))
    assert run_cli(["recovery-verify", "--input", str(inp), "--samples", "10"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: gens_e") and "Traceback" not in err


@pytest.mark.parametrize("entry", [True, 1.0, "0", -1, "order", 2 ** 70, "short-row",
                                   "extra-image"])
def test_check_covariance_rejects_malformed_group_tables(entry, tmp_path, capsys):
    sz = ser.matrix_to_json(np.diag([1.0, -1.0]))
    table = [[0, 1], [1, 0]]
    images = [ser.matrix_to_json(np.eye(2)), sz]
    if entry == "short-row":
        table[1] = [1]
    elif entry == "extra-image":  # refused by the representation, not the group reader
        images.append(sz)
    else:
        table[1][1] = 2 if entry == "order" else entry
    rep = {"type": "finite", "group": {"order": 2, "table": table}, "images": images}
    problem = {"channel": {"d_in": 2, "d_out": 2, "kraus": [sz]}, "rep_in": rep, "rep_out": rep}
    inp = tmp_path / "cov.json"
    inp.write_text(json.dumps(problem))
    assert run_cli(["check-covariance", "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    expected = "error: 3 images for group of order 2" if entry == "extra-image" else "error: group"
    assert err.startswith(expected) and "Traceback" not in err


def s3_problem(rep_out_keys_reversed=False):
    """A non-covariant S3 channel with equal rep_in and rep_out payloads, the
    second either the same object or a copy with its keys in reverse order."""
    rep = {"type": "finite", **ser.rep_to_json(standard_representation(3))}
    u = la.random_unitary(2, np.random.default_rng(6))
    rep_out = dict(reversed(list(rep.items()))) if rep_out_keys_reversed else rep
    return {"channel": {"d_in": 2, "d_out": 2, "kraus": [ser.matrix_to_json(u)]},
            "rep_in": rep, "rep_out": rep_out}


def test_check_covariance_reads_each_representation_once(tmp_path, monkeypatch):
    specs = []
    rep_from_spec = cli._rep_from_spec
    monkeypatch.setattr(cli, "_rep_from_spec",
                        lambda obj, where: specs.append(where) or rep_from_spec(obj, where))
    results = []
    for reversed_keys in (False, True):
        inp, out = tmp_path / "cov.json", str(tmp_path / "r.json")
        inp.write_text(json.dumps(s3_problem(reversed_keys)))
        specs.clear()
        assert run_cli(["check-covariance", "--input", str(inp), "--output", out]) == 1
        assert specs == ["rep_in", "rep_out"]
        results.append(read_report(out)["result"])
    assert results[0] == results[1] and results[0]["worst_violation"] > 1e-3


@pytest.mark.parametrize("other", OTHER_GROUPS)
def test_check_covariance_refuses_representations_of_different_groups(other, tmp_path, capsys):
    # the identity channel commutes with every pair of images that zip could pair up
    problem = s3_problem()
    problem["channel"]["kraus"] = [ser.matrix_to_json(np.eye(2))]
    problem["rep_out"] = {"type": "finite", **ser.rep_to_json(other_group_qubit_rep(other))}
    inp = tmp_path / "cov.json"
    inp.write_text(json.dumps(problem))
    assert run_cli(["check-covariance", "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: representations of different groups") and "Traceback" not in err


@pytest.mark.parametrize("fault", ["scaled", "nan"])
def test_check_covariance_refuses_a_non_unitary_image(fault, tmp_path, capsys):
    problem = s3_problem()
    images = problem["rep_in"]["images"]
    if fault == "scaled":
        images[4] = ser.matrix_to_json(1.01 * standard_representation(3).images[4])
    else:
        images[4]["data"][0][0] = float("nan")
    inp = tmp_path / "cov.json"
    inp.write_text(json.dumps(problem))  # NaN is written as the bare token NaN
    assert run_cli(["check-covariance", "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    expected = "image 4: matrix is not unitary" if fault == "scaled" else "entries must be finite"
    assert expected in err and "Traceback" not in err


@pytest.mark.parametrize("fault", ["bool-table-entry", "extra-key", "bool-generator-entry"])
def test_check_covariance_malformed_rep_out_alone_is_refused(fault, tmp_path, capsys):
    problem = s3_problem()
    if fault == "bool-generator-entry":  # true == 1.0, so the payloads compare equal
        sz = ser.matrix_to_json(np.diag([1.0, -1.0]))
        problem["rep_in"] = {"type": "lie", "generators": [sz]}
        problem["rep_out"] = {"type": "lie", "generators": [json.loads(json.dumps(sz))]}
        problem["rep_out"]["generators"][0]["data"][0][0] = True
        expected = "error: rep_out.generators[0]"
    else:
        problem["rep_out"] = json.loads(json.dumps(problem["rep_in"]))
        if fault == "bool-table-entry":  # true == 1, so the payloads compare equal
            table = problem["rep_out"]["group"]["table"]
            table[0][table[0].index(1)] = True
            expected = "error: group"
        else:
            problem["rep_out"]["extra"] = 0
            expected = "error: rep_out"
    inp = tmp_path / "cov.json"
    inp.write_text(json.dumps(problem))
    assert run_cli(["check-covariance", "--input", str(inp)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(expected) and "Traceback" not in err


def test_open_bracket_is_inconclusive(tmp_path, monkeypatch):
    # the first certify qutrit frame needs hundreds of iterations; capped at
    # 50 its bracket stays open, so eps itself is not certified
    from covcat import diamond

    monkeypatch.setattr(diamond, "DEFAULT_MAX_ITER", 50)
    inp, out = tmp_path / "qutrit.json", str(tmp_path / "r.json")
    inp.write_text(frame_json(certify_targets()[0]))
    assert run_cli(["recovery-verify", "--input", str(inp), "--output", out]) == 3
    report = read_report(out)
    res = report["result"]["report"]
    assert not report["passed"] and not res["passed"] and res["failures"] == []
    assert res["verdict"] == "inconclusive" and res["epsilon_result"]["status"] == "bounds"
    lower, upper = res["epsilon_result"]["lower"], res["epsilon_result"]["upper"]
    assert res["inconclusive"][0] == f"eps bracket [{lower:.3e}, {upper:.3e}] open"


class ReadRecorder(argparse.Namespace):
    """Namespace that records the name of every attribute read from it."""

    def __init__(self):
        super().__init__(_read=set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_read").add(name)
        return object.__getattribute__(self, name)


COMMANDS = ("check-covariance", "wiegmann-equiv", "find-intertwiner", "catalysis-verify",
            "recovery-verify", "refframe-sweep", "demo-appendix", "demo-finite-group")


def flag_policy_argvs(command, tmp_path):
    """argv lists that between them take every path of ``command``'s handler."""
    sz = ser.matrix_to_json(np.diag([1.0, -1.0]))
    scenario = generate_admissible_scenario(2, 2, 1, seed=3).to_json()
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "check-covariance": {"channel": {"d_in": 2, "d_out": 2, "kraus": [sz]},
                             "rep_in": {"type": "lie", "generators": [sz]},
                             "rep_out": {"type": "lie", "generators": [sz]}},
        "wiegmann-equiv": {"tuple_a": [sz], "tuple_b": [sz]},
        "find-intertwiner": scenario,
        "catalysis-verify": scenario,
    }.get(command)))
    if command == "recovery-verify":
        problem.write_text(frame_json(phase_reference_scenario(2, np.pi / 2)))
        return [[command, "--samples", "2"], [command, "--input", str(problem), "--samples", "2"]]
    return {
        "refframe-sweep": [[command, "--Ns", "2", "--samples", "2"]],
        "demo-appendix": [[command]],
        "demo-finite-group": [[command]],
    }.get(command, [[command, "--input", str(problem)]])


@pytest.mark.parametrize("command", COMMANDS)
def test_every_declared_flag_is_read(command, tmp_path):
    # --output is read by main; check-covariance, recovery-verify and
    # refframe-sweep keep --seed, which the benchmark passes to every command,
    # and the last two keep --samples, which it passes to every recovery task
    exempt = {"command", "handler", "output"}
    if command == "check-covariance":
        exempt |= {"seed"}
    if command in ("recovery-verify", "refframe-sweep"):
        exempt |= {"seed", "samples"}
    declared, read = set(), set()
    for argv in flag_policy_argvs(command, tmp_path):
        args = cli.build_parser().parse_args(argv, namespace=ReadRecorder())
        args._read.clear()  # argparse itself reads the namespace while parsing
        args.handler(args)
        declared |= set(vars(args)) - {"_read"}
        read |= args._read
    assert declared - exempt <= read


@pytest.mark.parametrize("command", COMMANDS)
def test_passed_holds_exactly_on_exit_0(command, tmp_path, capsys):
    # one outcome per run: the report's passed and the exit code both follow
    # from it; none of these argv lists names a report file, so stdout holds
    # exactly the report
    for argv in flag_policy_argvs(command, tmp_path):
        code = run_cli(argv)
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] == (code == 0), (argv, code)


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_routes_its_report_by_one_rule(command, tmp_path, capsys):
    # --output names the report file of every command, and nothing is printed;
    # without it stdout holds exactly that report
    for i, argv in enumerate(flag_policy_argvs(command, tmp_path)):
        out = tmp_path / f"report{i}.json"
        code = run_cli([*argv, "--output", str(out)])
        assert capsys.readouterr().out == "", argv
        written = read_report(out)
        assert written["passed"] == (code == 0), (argv, code)
        assert run_cli(argv) == code
        shown = json.loads(capsys.readouterr().out)
        assert shown.pop("metadata") and written.pop("metadata")
        assert shown == written, argv


def test_cached_parser_is_reused_without_leaks(tmp_path, rng):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    mats = [la.random_hermitian(2, rng) for _ in range(2)]
    problem = tmp_path / "tuples.json"
    problem.write_text(json.dumps({"tuple_a": [ser.matrix_to_json(m) for m in mats],
                                   "tuple_b": [ser.matrix_to_json(m) for m in mats]}))
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(generate_admissible_scenario(2, 2, 1, seed=0).to_json()))
    out = str(tmp_path / "r.json")
    # through main: two commands, a usage error, a third command
    assert run_cli(["wiegmann-equiv", "--input", str(problem), "--seed", "5",
                    "--tol", "1e-3", "--output", out]) == 0
    assert read_report(out)["config"] == {"input": str(problem), "seed": 5, "tol": 1e-3}
    assert run_cli(["find-intertwiner", "--input", str(scenario), "--output", out]) == 0
    assert read_report(out)["config"] == {"input": str(scenario), "seed": 0}
    with pytest.raises(SystemExit):
        run_cli(["recovery-verify", "--N", "0"])
    assert run_cli(["check-covariance", "--input", str(tmp_path / "missing.json")]) == 2
    assert run_cli(["wiegmann-equiv", "--input", str(problem), "--output", out]) == 0
    assert read_report(out)["config"] == {"input": str(problem), "seed": 0, "tol": 1e-9}
    # namespaces hold their own command's flags, with fresh defaults
    first = parser.parse_args(["refframe-sweep", "--seed", "7"])
    assert vars(first).keys() == {"command", "handler", "output", "seed", "levels_list",
                                  "theta", "samples"}
    first.levels_list.append(99)
    with pytest.raises(SystemExit):
        parser.parse_args(["refframe-sweep", "--Ns", "0"])
    second = parser.parse_args(["refframe-sweep"])
    assert second.levels_list == [2, 4, 8, 16] and second.levels_list is not first.levels_list
    assert second.seed == 0 and second.theta == np.pi / 2
    third = parser.parse_args(["demo-appendix"])
    assert vars(third).keys() == {"command", "handler", "output", "seed"}


@pytest.mark.parametrize("argv", [["recovery-verify", "--N", "4"],
                                  ["refframe-sweep", "--Ns", "2,4"]])
def test_samples_flag_changes_no_report(argv, capsys):
    # every distance is certified over all inputs, so --samples is ignored
    reports = []
    for samples in ("2", "100"):
        assert run_cli([*argv, "--samples", samples]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("metadata")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_reports_byte_identical_modulo_metadata(tmp_path, rng):
    mats = [la.random_hermitian(2, rng) for _ in range(2)]
    problem = {"tuple_a": [ser.matrix_to_json(m) for m in mats],
               "tuple_b": [ser.matrix_to_json(m) for m in mats],
               "config": {"num_random_words": 10}}
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(problem))
    outs = []
    for name in ("a.json", "b.json"):
        out = str(tmp_path / name)
        assert run_cli(["wiegmann-equiv", "--input", str(inp), "--seed", "4",
                        "--output", out]) == 0
        report = read_report(out)
        report.pop("metadata")
        outs.append(json.dumps(report, sort_keys=True))
    assert outs[0] == outs[1]

import json
import time

import numpy as np
import pytest

from covcat import linalg as la
from covcat import serialize as ser
from covcat.catalysis import CatalysisScenario, generate_admissible_scenario
from covcat.cli import main

from conftest import dilated_frame_scenario, scale_generators


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
    assert abs(report["result"]["gap"] - 2 * np.sqrt(3)) < 1e-9
    assert report["result"]["triple_verdict"]["word"] == "x0 x1 x2"
    for pair in report["result"]["pairwise"].values():
        assert pair["success"] and pair["residual"] < 1e-6
    assert report["result"]["tensored_9x9"]["residual"] < 1e-6
    shown = capsys.readouterr().out
    assert "trace gap" in shown and "SUCCESS" in shown


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
    assert result["config"] == {"seed": 0, "tol": 1e-9}


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
    assert read_report(out)["result"]["covariant"]


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


@pytest.mark.parametrize("command", ["demo-appendix", "check-covariance"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_tolerance_flag_must_be_finite_and_non_negative(command, tol, tmp_path, capsys):
    with pytest.raises(SystemExit) as info:
        run_cli([command, "--input", str(tmp_path / "cov.json"), "--tol", tol])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "expected a finite number >= 0" in err and "Traceback" not in err


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


@pytest.mark.parametrize("scale", [1e-6, 20, 30, 1e7, 1e8])
@pytest.mark.parametrize("command", ["find-intertwiner", "catalysis-verify"])
def test_scaled_generators_are_solved(command, scale, tmp_path):
    # well formed and admissible; exp(-X) of these generators is near-singular
    # (x20) or no longer positive in floating point (x30), and from x1e7 on the
    # conservation residuals exceed 1e-9 in absolute terms but not relative
    # to the generators
    sc = scale_generators(generate_admissible_scenario(3, 2, 2, seed=4), scale)
    inp, out = tmp_path / "scaled.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps(sc.to_json()))
    assert run_cli([command, "--input", str(inp), "--output", out]) == 0
    assert read_report(out)["result"]["intertwiner"]["success"]


@pytest.mark.parametrize("command", ["find-intertwiner", "catalysis-verify"])
def test_huge_generators_are_never_judged_inadmissible(command, tmp_path):
    # x1e9 stays admissible; the intertwiner's absolute tolerance may still
    # stop the solver (exit 3), but the scenario is never refuted (exit 1)
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
    assert "diagnostic_scenario" in report["result"]["intertwiner"]


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
    res = report["result"]["report"]
    assert res["worst_distance"] <= res["bound"] + 1e-5


def test_recovery_verify_mixed_environment_input(tmp_path):
    # a mixed symmetric environment state is purified together with the frame
    sc = dilated_frame_scenario(omega=np.diag([0.7, 0.3]))
    payload = {"unitary": ser.matrix_to_json(sc.unitary), "sigma_c": ser.matrix_to_json(sc.sigma_c),
               "target": ser.matrix_to_json(sc.target),
               "gens_s": [ser.matrix_to_json(g) for g in sc.gens_s],
               "gens_c": [ser.matrix_to_json(g) for g in sc.gens_c],
               "gens_e": [ser.matrix_to_json(g) for g in sc.gens_e],
               "omega_e": ser.matrix_to_json(sc.omega_e)}
    inp, out = tmp_path / "frame.json", str(tmp_path / "r.json")
    inp.write_text(json.dumps(payload))
    argv = ["recovery-verify", "--input", str(inp), "--samples", "20", "--output", out]
    assert run_cli(argv) == 0
    res = read_report(out)["result"]["report"]
    assert res["passed"] and res["worst_distance"] <= res["bound"] + 1e-5


def test_recovery_verify_large_ladder(tmp_path):
    # d = 128 on S (x) C: a dense superoperator would hold 128^4 entries
    out = str(tmp_path / "rec64.json")
    assert run_cli(["recovery-verify", "--N", "64", "--output", out]) == 0
    res = read_report(out)["result"]["report"]
    assert res["passed"] and res["covariance_defect"] <= 1e-9


def test_refframe_sweep_csv(tmp_path):
    out = str(tmp_path / "sweep.csv")
    code = run_cli(["refframe-sweep", "--Ns", "2,4", "--theta", "1.5707963",
                    "--samples", "10", "--output", out])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "N,theta,epsilon,bound,worst_distance,mean_distance,status"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert float(fields[4]) <= float(fields[3])
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
    out = str(tmp_path / "sweep.csv")
    assert run_cli(["refframe-sweep", "--Ns", "8", "--samples", "15", "--output", out]) == 3
    assert (tmp_path / "sweep.csv").read_text().strip().split("\n")[1].endswith(",inconclusive")


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

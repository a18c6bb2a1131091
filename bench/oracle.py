"""Per-task correctness oracle for the covcat benchmark.

The constants are the benchmark's own, not read from covcat, so a change to a
library tolerance cannot loosen what the benchmark accepts.

``judge`` returns a ``Verdict``. A task *fails* when it raised, exited with
an unexpected code, or returned a verdict the oracle rejects. A failure is
also *wrong* when the program asserted something false: a definite verdict
against the planted truth, or a success whose own numbers break the checks
below. An inconclusive answer (exit 3, an exception) fails but is not wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

BRACKET_TOL = 1e-6           # certified diamond bracket: upper - lower
RESIDUAL_TOL = 1e-7          # intertwiner state and intertwining residuals
COVARIANCE_TOL = 1e-9        # worst covariance violation
APPENDIX_WITNESS = "x0 x1 x2"

EXIT_OK, EXIT_FAILED, EXIT_SOLVER = 0, 1, 3


@dataclass(frozen=True)
class Verdict:
    failed: bool
    wrong: bool = False
    reason: str = ""


OK = Verdict(False)


def _fail(reason: str, claimed_success: bool) -> Verdict:
    return Verdict(True, claimed_success, reason)


def _recovery(report: dict, claimed: bool) -> Verdict:
    eps = report["epsilon_result"]
    if eps["status"] != "converged":
        return _fail(f"diamond status {eps['status']}", claimed)
    if eps["upper"] - eps["lower"] > BRACKET_TOL:
        return _fail(f"diamond bracket {eps['upper'] - eps['lower']:.2e}", claimed)
    if report["worst_distance"] > report["bound"]:
        return _fail(f"worst distance {report['worst_distance']:.6f} "
                     f"> bound {report['bound']:.6f}", claimed)
    if not report["passed"]:
        return _fail(f"report not passed: {report['failures']}", claimed)
    return OK


def _sweep(result: dict, expect: dict, claimed: bool) -> Verdict:
    rows = result["rows"]
    if len(rows) != expect["rows"]:
        return _fail(f"{len(rows)} sweep rows, expected {expect['rows']}", claimed)
    for row in rows:
        n, _, _, bound, worst, _, status = row.split(",")
        if status != "ok":
            return _fail(f"sweep N={n} status {status}", claimed)
        if float(worst) > float(bound):
            return _fail(f"sweep N={n} worst distance above bound", claimed)
    return OK


def _covariance(violation: float, covariant: bool, claimed: bool) -> Verdict:
    if not covariant or violation > COVARIANCE_TOL:
        return _fail(f"covariance violation {violation:.2e}", claimed)
    return OK


def _intertwiner(entry: dict, claimed: bool) -> Verdict:
    res = max(entry["state_residual"], entry["intertwining_residual"])
    if not entry["success"] or res > RESIDUAL_TOL:
        return _fail(f"intertwiner residual {res:.2e} after "
                     f"{entry['solver']['restarts_used']} restarts", claimed)
    return OK


def _wiegmann(result: dict, truth: str) -> Verdict:
    verdict = result["verdict"]
    if truth == "distinguished":
        if verdict != "distinguished":
            return Verdict(True, verdict != "inconclusive",
                           f"perturbed tuples reported {verdict}")
        return OK
    if verdict == "distinguished":
        return Verdict(True, True, f"equivalent tuples distinguished by {result.get('word')}")
    if verdict == "inconclusive":
        return Verdict(True, False, "equivalent tuples inconclusive")
    return OK


def _judge_report(kind: str, code: int, report: dict, expect: dict) -> Verdict:
    claimed = code == EXIT_OK
    result = report["result"]
    if kind == "recovery":
        return _recovery(result["report"], claimed)
    if kind == "sweep":
        return _sweep(result, expect, claimed)
    if kind == "covariance":
        return _covariance(result["worst_violation"], result["covariant"], claimed)
    if kind == "demo-finite-group":
        worst = max(entry["covariance_violation"] for entry in result.values())
        return _covariance(worst, all(e["covariant"] for e in result.values()), claimed)
    if kind == "demo-appendix":
        triple = result["triple_verdict"]
        if triple["verdict"] != "distinguished" or triple.get("word") != APPENDIX_WITNESS:
            return _fail(f"appendix witness {triple.get('word')!r}", claimed)
        return OK
    if kind == "wiegmann":
        return _wiegmann(result, expect["truth"])
    if kind == "catalysis":
        if not result["scenario"]["admissible"]:
            return _fail("generated scenario judged inadmissible", True)
        return _intertwiner(result["intertwiner"], claimed)
    if kind == "intertwiner":
        return _intertwiner(result["intertwiner"], claimed)
    raise ValueError(f"unknown task kind {kind!r}")


def judge(kind: str, code, report: dict | None, expect: dict) -> Verdict:
    """Judge one task from its exit code and parsed JSON report."""
    if report is None:
        return Verdict(True, False, f"no report (exit {code})")
    try:
        verdict = _judge_report(kind, code, report, expect)
    except (KeyError, TypeError, ValueError) as exc:
        return Verdict(True, False, f"report lacks expected field: {exc!r}")
    if verdict.failed:
        return verdict
    if code != EXIT_OK or report.get("passed") is not True:
        # every generated instance is built to pass; exit 1 claims it does not
        return Verdict(True, code == EXIT_FAILED, f"exit {code}, passed={report.get('passed')}")
    return OK

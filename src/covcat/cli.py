"""Batch command-line front door.

Each command ingests JSON problem files, dispatches to the library and
returns one outcome. The exit status is its `EXIT_STATUS`, and the report's
``passed`` is true for ``"passed"`` alone:

* passed, 0: all assertions of the dispatched verification passed,
* failed, 1: the verification ran and failed,
* malformed, 2: malformed input (unknown keys, bad matrices, missing files),
* inconclusive, 3: a solver stopped before certifying, a check is neither
  passed nor refuted (an open bracket or one that straddles its bound, a
  covariance bound above the tolerance, a defect within the generators'
  rounding; the bounded result is still reported), or the problem did not
  fit in memory (an error report, as for 2).

A report goes to ``--output``, or to stdout if none is given or for
``refframe-sweep``, whose ``--output`` names its CSV.

A report's top-level ``config`` is the one record of the run's inputs
(``input``, ``seed`` and ``tol``, as far as the command takes them); its
``result`` does not repeat them. Reports are deterministic for a fixed
config: timestamps live in a separate ``metadata`` field, everything else is
byte-stable. Files are written atomically (temp file plus rename).
"""

from __future__ import annotations

import argparse
import functools
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .catalysis import (
    CatalysisScenario,
    correlation_balance,
    find_intertwiner,
    rank_condition_counterexample,
    regular_rep_channel,
    state_swap_channel,
)
from .channels import Channel, is_covariant
from .linalg import DimensionError, DomainError, max_norm, random_density, tensor
from .refframe import (
    FrameScenario,
    degradation_sweep,
    phase_reference_scenario,
    sweep_to_csv,
    verify_recovery,
)
from .serialize import (
    FormatError,
    channel_from_json,
    check_keys,
    dump_json,
    generators_from_json,
    int_from_json,
    load_json,
    matrices_from_json,
    matrix_from_json,
    record_to_json,
    rep_from_json,
    tolerance_from_json,
    write_json_atomic,
    write_text_atomic,
)
from .symmetry import (FiniteGroup, FiniteGroupRep, left_regular_representation,
                       standard_representation, tensor_rep)
from .words import find_simultaneous_unitary, wiegmann_equivalent

EXIT_STATUS = {"passed": 0, "failed": 1, "malformed": 2, "inconclusive": 3}


def _rep_from_spec(obj, where: str):
    check_keys(obj, ["type"], optional=["group", "images", "generators"], where=where)
    kind = obj["type"]
    if kind == "finite":
        check_keys(obj, ["type", "group", "images"], where=where)
        return rep_from_json({"group": obj["group"], "images": obj["images"]})
    if kind == "lie":
        check_keys(obj, ["type", "generators"], where=where)
        return matrices_from_json(obj["generators"], where=f"{where}.generators")
    raise FormatError(f"{where}: type must be 'finite' or 'lie', got {kind!r}")


def _cmd_check_covariance(args) -> tuple[dict, str]:
    obj = load_json(args.input)
    check_keys(obj, ["channel", "rep_in", "rep_out"], where="input")
    channel = channel_from_json(obj["channel"])
    rep_in = _rep_from_spec(obj["rep_in"], "rep_in")
    rep_out = _rep_from_spec(obj["rep_out"], "rep_out")
    report = is_covariant(channel, rep_in, rep_out, tol=args.tol)
    if report.covariant:
        return record_to_json(report), "passed"
    return record_to_json(report), "failed" if report.conclusive else "inconclusive"


# Config keys of the former bounded word enumeration, with their least values:
# the only keys a file's config may hold, type-checked and then ignored.
OBSOLETE_WORD_KEYS = {"max_length": 0, "max_exponent": 1, "num_random_words": 0}


def _cmd_wiegmann_equiv(args) -> tuple[dict, str]:
    obj = load_json(args.input)
    check_keys(obj, ["tuple_a", "tuple_b"], optional=["config"], where="input")
    tuple_a = matrices_from_json(obj["tuple_a"], "tuple_a")
    tuple_b = matrices_from_json(obj["tuple_b"], "tuple_b")
    cfg_obj = obj.get("config", {})
    check_keys(cfg_obj, [], optional=OBSOLETE_WORD_KEYS, where="config")
    for key, minimum in OBSOLETE_WORD_KEYS.items():
        if key in cfg_obj:
            int_from_json(cfg_obj[key], f"config.{key}", minimum)
    verdict = wiegmann_equivalent(tuple_a, tuple_b, seed=args.seed, tol=args.tol)
    return verdict.to_json(), "inconclusive" if verdict.verdict == "inconclusive" else "passed"


def _cmd_find_intertwiner(args) -> tuple[dict, str]:
    sc = CatalysisScenario.from_json(load_json(args.input))
    if not sc.report.admissible:
        return {"scenario": sc.report.to_json()}, "failed"
    result = find_intertwiner(sc, seed=args.seed)
    payload = {"scenario": sc.report.to_json(), "intertwiner": result.to_json()}
    return payload, "passed" if result.success else "inconclusive"


def _cmd_catalysis_verify(args) -> tuple[dict, str]:
    sc = CatalysisScenario.from_json(load_json(args.input))
    payload: dict = {"scenario": sc.report.to_json()}
    if not sc.report.admissible:
        return payload, "failed"
    result = find_intertwiner(sc, seed=args.seed)
    payload["intertwiner"] = result.to_json()
    balance = correlation_balance(sc.unitary, sc.rho_s, sc.sigma_c)
    payload["correlation"] = balance.to_json()
    if not result.success:
        return payload, "inconclusive"
    passed = (balance.catalyst_preserved and balance.identity_residual <= 1e-8
              and balance.rank_after >= balance.rank_before)
    return payload, "passed" if passed else "failed"


def _frame_scenario_from_json(obj) -> FrameScenario:
    check_keys(obj, ["unitary", "sigma_c", "target", "gens_s", "gens_c"],
               optional=["gens_e", "omega_e"], where="frame scenario")
    gens_e = generators_from_json(obj["gens_e"], "gens_e") if "gens_e" in obj else []
    omega_e = matrix_from_json(obj["omega_e"], "omega_e") if "omega_e" in obj else None
    return FrameScenario(
        unitary=matrix_from_json(obj["unitary"], "unitary"),
        sigma_c=matrix_from_json(obj["sigma_c"], "sigma_c"),
        target=matrix_from_json(obj["target"], "target"),
        gens_s=generators_from_json(obj["gens_s"], "gens_s"),
        gens_c=generators_from_json(obj["gens_c"], "gens_c"),
        gens_e=gens_e,
        omega_e=omega_e,
    )


def _cmd_recovery_verify(args) -> tuple[dict, str]:
    if args.input:
        if args.levels is not None or args.theta is not None:
            raise FormatError("--N and --theta shape the built-in ladder; "
                              "they cannot be combined with --input")
        sc = _frame_scenario_from_json(load_json(args.input))
        payload = {}
    else:
        ladder = {"N": 8 if args.levels is None else args.levels,
                  "theta": np.pi / 2 if args.theta is None else args.theta}
        sc = phase_reference_scenario(ladder["N"], ladder["theta"])
        payload = {"scenario": ladder}
    report = verify_recovery(sc)
    payload["report"] = report.to_json()
    return payload, report.verdict


def _cmd_refframe_sweep(args) -> tuple[dict, str]:
    if not args.levels_list:
        raise FormatError("--Ns must list at least one ladder size")
    rows = degradation_sweep(args.levels_list, args.theta)
    if args.output:
        write_text_atomic(args.output, sweep_to_csv(rows))
    payload = {"rows": [r.to_csv_row() for r in rows]}
    # a certified failure decides the outcome whatever the other rows say
    statuses = {r.status for r in rows}
    if "FAILED" in statuses:
        return payload, "failed"
    return payload, "passed" if statuses == {"ok"} else "inconclusive"


def _cmd_demo_appendix(args) -> tuple[dict, str]:
    fx = rank_condition_counterexample()
    expected_gap = 2.0 * np.sqrt(3.0)
    gap_ok = abs(fx.gap - expected_gap) <= 1e-9
    verdict = wiegmann_equivalent(list(fx.a), list(fx.b), seed=args.seed)
    triple_distinguished = verdict.verdict == "distinguished" and str(verdict.witness) == "x0 x1 x2"
    pair_results = {}
    pairs_ok = True
    for name, idx in (("pair_12", (0, 1)), ("pair_23", (1, 2)), ("pair_31", (2, 0))):
        ta = [fx.a[i] for i in idx]
        tb = [fx.b[i] for i in idx]
        res = find_simultaneous_unitary(ta, tb, seed=args.seed)
        pair_results[name] = {"success": res.success, "residual": res.residual,
                              "verdict": res.verdict}
        pairs_ok = pairs_ok and res.success and res.residual < 1e-6
    big = find_simultaneous_unitary(list(fx.tensored_a()), list(fx.tensored_b()),
                                    seed=args.seed)
    big_ok = big.success and big.residual < 1e-6
    passed = gap_ok and triple_distinguished and pairs_ok and big_ok
    payload = {
        "gap": fx.gap,
        "expected_gap": expected_gap,
        "triple_verdict": verdict.to_json(),
        "pairwise": pair_results,
        "tensored_9x9": {"success": big.success, "residual": big.residual,
                         "verdict": big.verdict},
    }
    return payload, "passed" if passed else "failed"


def _cmd_demo_finite_group(args) -> tuple[dict, str]:
    rng = np.random.default_rng(args.seed)
    payload = {}
    passed = True
    for label, rep_s in (
        ("Z2", FiniteGroupRep(FiniteGroup.cyclic(2), [np.eye(2), np.diag([1.0, -1.0])])),
        ("S3", standard_representation(3)),
    ):
        group = rep_s.group
        reg = left_regular_representation(group)
        comp = tensor_rep(rep_s, reg)
        # random target channel via Haar isometry
        d = rep_s.dim
        g = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
        q, _ = np.linalg.qr(g)
        target = Channel([q[:d], q[d:]])
        lifted = regular_rep_channel(rep_s, target)
        cov = is_covariant(lifted, comp, comp)
        rho = random_density(d, rng)
        pointer = np.zeros((group.order, group.order), dtype=complex)
        pointer[group.identity, group.identity] = 1.0
        action_defect = max_norm(lifted.apply(tensor(rho, pointer))
                                 - tensor(target.apply(rho), pointer))
        entry = {"covariant": cov.covariant,
                 "covariance_violation": cov.worst_violation,
                 "pointer_action_defect": action_defect}
        ok = cov.covariant and action_defect <= 1e-10
        if label == "Z2":
            swap = state_swap_channel(rep_s, np.diag([1.0, 0.0]).astype(complex),
                                      np.diag([0.0, 1.0]).astype(complex), x=1)
            px = np.zeros((2, 2), dtype=complex)
            px[1, 1] = 1.0
            swap_defect = max_norm(swap.apply(tensor(np.diag([1.0, 0.0]), px))
                                   - tensor(np.diag([0.0, 1.0]), px))
            swap_cov = is_covariant(swap, comp, comp)
            entry["state_swap_defect"] = swap_defect
            entry["state_swap_covariant"] = swap_cov.covariant
            ok = ok and swap_defect <= 1e-10 and swap_cov.covariant
        payload[label] = entry
        passed = passed and ok
    return payload, "passed" if passed else "failed"


def _int_at_least(minimum: int):
    """Argparse type for integers no smaller than ``minimum``."""
    def parse(text: str) -> int:
        if int(text) < minimum:  # argparse also reports the ValueError of int()
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def _finite_float(text: str) -> float:
    """Argparse type for a finite number."""
    value = float(text)  # argparse also reports the ValueError of float()
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """Argparse type with the rule of `tolerance_from_json`: a finite number >= 0."""
    value = float(text)  # argparse also reports the ValueError of float()
    try:
        return tolerance_from_json(value, "tolerance")
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every call returns
    the same parser, so callers parse with it and leave it unchanged."""
    parser = argparse.ArgumentParser(
        prog="covcat",
        description="Covariant-channel toolbox: catalysis checks, trace-fingerprint "
                    "equivalence and reference-frame degradation bounds.")
    parser.add_argument("--version", action="version", version=f"covcat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *extra):
        """Subcommand taking ``--output``, ``--seed`` and each of ``extra``
        (``"--input"``, required, and ``"--tol"``)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if "--input" in extra:
            p.add_argument("--input", required=True, help="input problem JSON")
        p.add_argument("--output", default=None, help="report destination")
        p.add_argument("--seed", type=_int_at_least(0), default=0)
        if "--tol" in extra:
            p.add_argument("--tol", type=_tolerance, default=1e-9, help="tolerance of the verdict")
        return p

    command("check-covariance", _cmd_check_covariance,
            "test a channel against representations", "--input", "--tol")
    command("wiegmann-equiv", _cmd_wiegmann_equiv,
            "trace-fingerprint tuple comparison", "--input", "--tol")
    command("find-intertwiner", _cmd_find_intertwiner,
            "construct the intertwining unitary", "--input")
    command("catalysis-verify", _cmd_catalysis_verify,
            "full catalysis scenario verification", "--input")
    # kept for existing scripts: every distance is certified, none is sampled
    samples_help = "accepted and ignored (at least 1): the distances are certified over all inputs"
    p = command("recovery-verify", _cmd_recovery_verify, "back-action bound verification")
    p.add_argument("--input", default=None,
                   help="frame scenario JSON (default: the built-in phase-reference ladder)")
    p.add_argument("--N", dest="levels", type=_int_at_least(1), default=None,
                   help="ladder size of the built-in phase-reference scenario (default 8)")
    p.add_argument("--theta", type=_finite_float, default=None,
                   help="rotation angle of the built-in scenario (default pi/2)")
    p.add_argument("--samples", type=_int_at_least(1), default=100, help=samples_help)
    p = command("refframe-sweep", _cmd_refframe_sweep, "degradation sweep over ladder sizes")
    p.add_argument("--Ns", dest="levels_list", default="2,4,8,16",
                   type=lambda text: [_int_at_least(1)(tok) for tok in text.split(",") if tok],
                   help="comma-separated ladder sizes")
    p.add_argument("--theta", type=_finite_float, default=np.pi / 2)
    p.add_argument("--samples", type=_int_at_least(1), default=100, help=samples_help)
    command("demo-appendix", _cmd_demo_appendix, "run the bundled counterexample fixture")
    command("demo-finite-group", _cmd_demo_finite_group, "regular-representation constructions")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, outcome = args.handler(args)
    except (FormatError, DomainError, DimensionError, OSError, MemoryError) as exc:
        oom = isinstance(exc, MemoryError)  # undecided at this size, not malformed
        message = f"out of memory: {exc}" if oom else str(exc)
        sys.stderr.write(f"error: {message}\n")
        report = {"command": args.command, "error": message}
        outcome = "inconclusive" if oom else "malformed"
    else:
        report = {
            "command": args.command,
            "config": {key: getattr(args, key) for key in ("input", "seed", "tol")
                       if hasattr(args, key)},
            "result": result,
            "metadata": {"timestamp_utc": datetime.now(timezone.utc).isoformat(),
                         "version": __version__},
        }
    report["passed"] = outcome == "passed"
    try:
        if args.output and args.command != "refframe-sweep":  # a sweep's --output names its CSV
            write_json_atomic(args.output, report)
        else:
            sys.stdout.write(dump_json(report))
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_STATUS["malformed"]
    return EXIT_STATUS[outcome]


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front door.

Each command ingests JSON problem files, dispatches to the library, writes a
JSON (or CSV) report and exits with a meaningful status:

* 0: all assertions of the dispatched verification passed,
* 1: the verification ran and failed,
* 2: malformed input (unknown keys, bad matrices, missing files),
* 3: a solver stopped before certifying, a check holds at only one end of a
  certified bracket, or a covariance defect lies within the rounding of the
  generators (a bounded result is still emitted).

Reports are deterministic for a fixed config and seed: timestamps live in a
separate ``metadata`` field, everything else is byte-stable. Files are
written atomically (temp file plus rename).
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
    catalytic_channel,
    degradation_sweep,
    phase_reference_scenario,
    sweep_to_csv,
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
    rep_from_json,
    tolerance_from_json,
    write_json_atomic,
    write_text_atomic,
)
from .symmetry import (FiniteGroup, FiniteGroupRep, left_regular_representation,
                       standard_representation, tensor_rep)
from .words import (
    EquivalenceConfig,
    find_simultaneous_unitary,
    wiegmann_equivalent,
)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_MALFORMED_INPUT = 2
EXIT_SOLVER = 3


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


def _cmd_check_covariance(args) -> tuple[dict, bool, bool]:
    obj = load_json(args.input)
    check_keys(obj, ["channel", "rep_in", "rep_out"], where="input")
    channel = channel_from_json(obj["channel"])
    rep_in = _rep_from_spec(obj["rep_in"], "rep_in")
    rep_out = _rep_from_spec(obj["rep_out"], "rep_out")
    report = is_covariant(channel, rep_in, rep_out, tol=args.tol)
    result = {"covariant": report.covariant, "conclusive": report.conclusive,
              "worst_violation": report.worst_violation, "tol": args.tol}
    return result, report.covariant, report.conclusive


# Config keys of the former bounded word enumeration, with their least values.
OBSOLETE_WORD_KEYS = {"max_length": 0, "max_exponent": 1, "num_random_words": 0}


def _cmd_wiegmann_equiv(args) -> tuple[dict, bool, bool]:
    obj = load_json(args.input)
    check_keys(obj, ["tuple_a", "tuple_b"], optional=["config"], where="input")
    tuple_a = matrices_from_json(obj["tuple_a"], "tuple_a")
    tuple_b = matrices_from_json(obj["tuple_b"], "tuple_b")
    cfg_obj = obj.get("config", {})
    check_keys(cfg_obj, [], optional=[*OBSOLETE_WORD_KEYS, "seed", "tol"], where="config")
    for key, minimum in OBSOLETE_WORD_KEYS.items():  # still type-checked, values ignored
        if key in cfg_obj:
            int_from_json(cfg_obj[key], f"config.{key}", minimum)
    config = EquivalenceConfig(
        seed=int_from_json(cfg_obj.get("seed", args.seed), "config.seed", 0),
        tol=tolerance_from_json(cfg_obj.get("tol", args.tol), "config.tol"),
    )
    verdict = wiegmann_equivalent(tuple_a, tuple_b, config)
    conclusive = verdict.verdict != "inconclusive"
    return verdict.to_json(), conclusive, conclusive


def _cmd_find_intertwiner(args) -> tuple[dict, bool, bool]:
    sc = CatalysisScenario.from_json(load_json(args.input))
    if not sc.report.admissible:
        return ({"scenario": sc.report.to_json()}, False, True)
    result = find_intertwiner(sc, seed=args.seed)
    payload = {"scenario": sc.report.to_json(), "intertwiner": result.to_json()}
    return payload, result.success, result.success


def _cmd_catalysis_verify(args) -> tuple[dict, bool, bool]:
    sc = CatalysisScenario.from_json(load_json(args.input))
    payload: dict = {"scenario": sc.report.to_json()}
    if not sc.report.admissible:
        return payload, False, True
    result = find_intertwiner(sc, seed=args.seed)
    payload["intertwiner"] = result.to_json()
    balance = correlation_balance(sc.unitary, sc.rho_s, sc.sigma_c)
    payload["correlation"] = balance.to_json()
    passed = (result.success and balance.catalyst_preserved
              and balance.identity_residual <= 1e-8
              and balance.rank_after >= balance.rank_before)
    return payload, passed, result.success


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


def _cmd_recovery_verify(args) -> tuple[dict, bool, bool]:
    if args.input:
        if args.levels is not None or args.theta is not None:
            raise FormatError("--N and --theta shape the built-in ladder; "
                              "they cannot be combined with --input")
        sc = _frame_scenario_from_json(load_json(args.input))
        config = {"source": args.input}
    else:
        config = {"N": 8 if args.levels is None else args.levels,
                  "theta": np.pi / 2 if args.theta is None else args.theta}
        sc = phase_reference_scenario(config["N"], config["theta"])
    _, report = catalytic_channel(sc, samples=args.samples, seed=args.seed)
    payload = {"scenario": config, "report": report.to_json()}
    return payload, report.passed, report.status in ("ok", "FAILED")


def _cmd_refframe_sweep(args) -> tuple[dict, bool, bool]:
    if not args.levels_list:
        raise FormatError("--Ns must list at least one ladder size")
    rows = degradation_sweep(args.levels_list, args.theta, samples=args.samples, seed=args.seed)
    csv_text = sweep_to_csv(rows)
    if args.output:
        write_text_atomic(args.output, csv_text)
    payload = {"rows": [r.to_csv_row() for r in rows], "csv": csv_text,
               "output": args.output}
    passed = all(r.status != "FAILED" for r in rows)
    # a certified failure decides the exit code whatever the other rows say
    return payload, passed, not passed or all(r.status == "ok" for r in rows)


def _cmd_demo_appendix(args) -> tuple[dict, bool, bool]:
    fx = rank_condition_counterexample()
    expected_gap = 2.0 * np.sqrt(3.0)
    gap_ok = abs(fx.gap - expected_gap) <= 1e-9
    verdict = wiegmann_equivalent(list(fx.a), list(fx.b))
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
    print(f"trace gap |Tr[b1 b2 b3] - Tr[a1 a2 a3]| = {fx.gap:.10f} "
          f"(expected {expected_gap:.10f})")
    print(f"triple distinguished by word: {verdict.witness}")
    for name, res in pair_results.items():
        print(f"{name}: {'SUCCESS' if res['success'] else 'FAILURE'} "
              f"residual {res['residual']:.2e}")
    print(f"tensored 9x9 instance: {'SUCCESS' if big_ok else 'FAILURE'} "
          f"residual {big.residual:.2e}")
    return payload, passed, True


def _cmd_demo_finite_group(args) -> tuple[dict, bool, bool]:
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
        print(f"{label}: covariant={cov.covariant} "
              f"(violation {cov.worst_violation:.2e}), "
              f"pointer action defect {action_defect:.2e}")
    return payload, passed, True


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
    p = command("recovery-verify", _cmd_recovery_verify, "back-action bound verification")
    p.add_argument("--input", default=None,
                   help="frame scenario JSON (default: the built-in phase-reference ladder)")
    p.add_argument("--N", dest="levels", type=_int_at_least(1), default=None,
                   help="ladder size of the built-in phase-reference scenario (default 8)")
    p.add_argument("--theta", type=_finite_float, default=None,
                   help="rotation angle of the built-in scenario (default pi/2)")
    p.add_argument("--samples", type=_int_at_least(1), default=100)
    p = command("refframe-sweep", _cmd_refframe_sweep, "degradation sweep over ladder sizes")
    p.add_argument("--Ns", dest="levels_list", default="2,4,8,16",
                   type=lambda text: [_int_at_least(1)(tok) for tok in text.split(",") if tok],
                   help="comma-separated ladder sizes")
    p.add_argument("--theta", type=_finite_float, default=np.pi / 2)
    p.add_argument("--samples", type=_int_at_least(1), default=100)
    command("demo-appendix", _cmd_demo_appendix, "run the bundled counterexample fixture")
    command("demo-finite-group", _cmd_demo_finite_group, "regular-representation constructions")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result, passed, solver_ok = args.handler(args)
    except (FormatError, DomainError, DimensionError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        report = {"command": args.command, "error": str(exc), "passed": False}
        status = EXIT_MALFORMED_INPUT
    else:
        report = {
            "command": args.command,
            "config": {key: getattr(args, key) for key in ("input", "seed", "tol")
                       if hasattr(args, key)},
            "result": result,
            "passed": passed,
            "metadata": {"timestamp_utc": datetime.now(timezone.utc).isoformat(),
                         "version": __version__},
        }
        if not solver_ok:
            status = EXIT_SOLVER  # bounded/uncertified result is still emitted
        else:
            status = EXIT_OK if passed else EXIT_VERIFICATION_FAILED
    try:
        if args.output and args.command != "refframe-sweep":
            write_json_atomic(args.output, report)
        elif not args.output and status != EXIT_MALFORMED_INPUT:
            sys.stdout.write(dump_json(report))
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MALFORMED_INPUT
    return status


if __name__ == "__main__":
    sys.exit(main())

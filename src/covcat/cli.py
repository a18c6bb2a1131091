"""Batch command-line front door.

Each command loads its JSON problem, makes one library call and routes the
record it gets back: the record's ``outcome`` decides the run, and the CLI
holds no verdict rule of its own. The exit status is `EXIT_STATUS` of the
outcome, and the report's ``passed`` is true for ``"passed"`` alone:

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
    demo_appendix,
    demo_finite_group,
    verify_catalysis,
)
from .channels import is_covariant
from .linalg import DimensionError, DomainError
from .refframe import (
    SWEEP_CSV_HEADER,
    FrameScenario,
    degradation_sweep,
    phase_reference_scenario,
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
    rep_from_json,
    tolerance_from_json,
    write_json_atomic,
    write_text_atomic,
)
from .words import wiegmann_equivalent

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
    return report.to_json(), report.outcome


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
    return verdict.to_json(), verdict.outcome


def _cmd_catalysis(args) -> tuple[dict, str]:
    """``find-intertwiner``, and ``catalysis-verify``, which adds the correlation ledger."""
    sc = CatalysisScenario.from_json(load_json(args.input))
    report = verify_catalysis(sc, args.seed, ledger=args.command == "catalysis-verify")
    return report.to_json(), report.outcome


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
    return payload, report.outcome


def _cmd_refframe_sweep(args) -> tuple[dict, str]:
    if not args.levels_list:
        raise FormatError("--Ns must list at least one ladder size")
    sweep = degradation_sweep(args.levels_list, args.theta)
    if args.output:
        write_text_atomic(args.output, "\n".join([SWEEP_CSV_HEADER, *sweep.rows]) + "\n")
    return sweep.to_json(), sweep.outcome


def _cmd_demo(args) -> tuple[dict, str]:
    report = (demo_appendix if args.command == "demo-appendix" else demo_finite_group)(args.seed)
    return report.to_json(), report.outcome


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
    command("find-intertwiner", _cmd_catalysis,
            "construct the intertwining unitary", "--input")
    command("catalysis-verify", _cmd_catalysis,
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
    command("demo-appendix", _cmd_demo, "run the bundled counterexample fixture")
    command("demo-finite-group", _cmd_demo, "regular-representation constructions")
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

"""Self-test of the covcat benchmark; takes seconds.

    python3 bench/selftest.py

Runs one small task of each kind through the benchmark's harness and checks
that each passes the oracle, that a deliberately wrong verdict (perturbed
tuples labelled equivalent) counts as failed and wrong, that both the
untraced and the traced run emit every metric of ``BENCHMARK.json`` with its
unit, that traced self times add up to the traced pass time, and that every
workload's generated inputs load through the CLI's readers. Exits 0 when all
hold, 1 otherwise.
"""

import math
import os
import shutil
import sys

import run  # first: fixes the BLAS thread count before numpy loads
import inputs

SEED = 7


def small_tasks(out_dir: str) -> list:
    b = inputs.TaskList(SEED, len(inputs.WORKLOADS), out_dir)
    b.add("ladder", "recovery", ["recovery-verify", "--N", "4", "--samples", "10"])
    b.add("frame-file", "recovery", ["recovery-verify", "--samples", "10"],
          inputs.frame_scenario_json(inputs.x_rotation(1.0), 4, inputs.uniform_superposition(4)))
    b.add("sweep", "sweep", ["refframe-sweep", "--Ns", "2,4", "--samples", "10"],
          stdout=True, rows=2)
    b.add("s3-twirl", "covariance", ["check-covariance"], inputs.twirled_channel_json(3, b.rng))
    b.add("demo-finite-group", "demo-finite-group", ["demo-finite-group"])
    b.add("demo-appendix", "demo-appendix", ["demo-appendix"])
    short = {"max_length": 3, "num_random_words": 20}
    b.add("planted", "wiegmann", ["wiegmann-equiv"],
          {**inputs.tuples_json(3, b.rng, perturb=False), "config": short}, truth="equivalent")
    b.add("perturbed", "wiegmann", ["wiegmann-equiv"],
          inputs.tuples_json(3, b.rng, perturb=True), truth="distinguished")
    b.add("catalysis", "catalysis", ["catalysis-verify"],
          inputs.catalysis_scenario_json(3, 2, 1, b.rng))
    b.add("intertwiner", "intertwiner", ["find-intertwiner"],
          inputs.catalysis_scenario_json(3, 2, 1, b.rng))
    b.add("mislabelled", "wiegmann", ["wiegmann-equiv"],
          inputs.tuples_json(3, b.rng, perturb=True), truth="equivalent")
    return b.tasks


def check(ok: bool, what: str, problems: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def check_metrics(result: dict, spec: list, what: str, problems: list) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in spec}
    check(emitted == wanted, f"{what}: every metric emitted with its unit", problems)
    check(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
              for m in result["metrics"].values()), f"{what}: values are finite", problems)


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "covcat", "cli.py")):
        sys.stderr.write(f"covcat sources not found in {run.SRC}\n")
        return 2
    sys.path.insert(0, run.SRC)
    from covcat import cli

    work = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    problems: list = []
    try:
        tasks = small_tasks(os.path.join(work, "small"))
        for task in tasks:
            v = run.run_task(cli, task)
            if task.label == "mislabelled":
                check(v.failed and v.wrong, "wrong verdict counts as failed and wrong", problems)
            else:
                check(not v.failed, f"{task.label} passes the oracle {v.reason}", problems)

        spec = run.load_spec()
        probe = run.setup_probe("frame", SEED, os.path.join(work, "probe"))
        result, _, _ = run.run_tasks(tasks, 0, 0, probe, "selftest")
        check(result["failed"] == 1 and not result["correct"],
              "untraced run: the wrong verdict is counted", problems)
        check_metrics(result, spec["end_to_end"], "untraced run", problems)
        result, _, _ = run.run_tasks(tasks, 0, 1, None, "selftest traced")
        check_metrics(result, spec["per_layer"], "traced run", problems)
        m = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s"))
        total += m["cli.main.self_s"] + m["trace.unspanned_s"]
        check(abs(total - m["trace.wall_s"]) <= 1e-6 * max(1.0, m["trace.wall_s"]),
              "self times plus unspanned time add up to the traced wall time", problems)

        for name in inputs.WORKLOADS:
            generated = inputs.generate(SEED, name, os.path.join(work, name))
            try:
                inputs.check_loadable(generated)
                check(True, f"{name} inputs load through the CLI readers", problems)
            except ValueError as exc:
                check(False, f"{name} inputs load through the CLI readers: {exc}", problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest " + ("passed" if not problems else f"FAILED: {problems}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

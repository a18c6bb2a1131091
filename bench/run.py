"""Run one covcat benchmark workload and print its metrics.

    python3 bench/run.py --workload frame --seed 1 --seconds 37 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 37

A workload is a seeded list of ``covcat`` CLI commands (see ``inputs.py``),
run back to back in this one process by calling ``covcat.cli.main`` with the
repository's ``src`` on the path: a closed loop with one client. One pass
runs the whole list once; passes repeat for about ``--seconds``.
Every task's report is judged by ``oracle.py``.

With ``--trace 0`` the metrics are end to end: ``wall_s`` (time to all
verdicts of one pass, summing each task's median over the passes),
``peak_rss_mb`` (this process's ``ru_maxrss``) and ``setup_s`` (median over
fresh processes, started between the passes, of the time from launch through
``import covcat`` and input generation). With ``--trace 1`` a first pass records peak allocations, then
passes alternate span-traced and untraced, and the metrics are the per-layer
ones from ``spans.py``, per traced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the machine and any failed task. ``failed_ratio`` is printed there as
``failed / attempted``. Every task's time in every pass goes to
``.bench_work/results/``.
"""

import os
import sys

# Fixed before numpy loads, here and in the set-up probes, which inherit it:
# one BLAS thread keeps timings steady on a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import time

import inputs
import oracle
from spans import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": platform.python_version()}


def setup_probe(workload: str, seed: int, probe_dir: str):
    """Return a function that starts one fresh process and returns its
    launch-to-ready time: interpreter start, ``import covcat`` and input
    generation into ``probe_dir``."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-probe", probe_dir]

    def probe() -> float:
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        return ready - start

    return probe


def read_report(task, stdout: str):
    try:
        if task.output is None:
            return json.loads(stdout[stdout.index("{"):])
        with open(task.output) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def run_task(cli, task) -> oracle.Verdict:
    if task.output is not None and os.path.exists(task.output):
        os.remove(task.output)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(task.argv)
    except SystemExit as exc:  # argparse rejected the argv
        return oracle.Verdict(True, False, f"usage error {exc.code}: {err.getvalue().strip()}")
    except Exception as exc:  # a task that raises is a failed task, not a crash
        return oracle.Verdict(True, False, f"raised {exc!r}")
    return oracle.judge(task.kind, code, read_report(task, out.getvalue()), task.expect)


def run_pass(cli, tasks) -> tuple[list, list]:
    """Run every task once; return each task's seconds and verdict."""
    times, verdicts = [], []
    for task in tasks:
        start = time.perf_counter()
        verdicts.append(run_task(cli, task))
        times.append(time.perf_counter() - start)
    return times, verdicts


def trace_mode(index: int):
    """Pass plan with tracing: first a pass that records peak allocations
    (it also warms up), then span-traced and untraced passes in turn."""
    if index == 0:
        return "alloc"
    return "spans" if index % 2 == 1 else None


def run_tasks(tasks, seconds: float, trace: int, probe, label: str) -> tuple:
    """Repeat the task list for about ``seconds``: another pass starts only
    if it should end less than half a pass past the deadline. Without
    tracing, ``probe`` (see ``setup_probe``) runs before every pass and then
    until there are ``SETUP_PROBES`` samples, so that set-up is sampled over
    the same stretch of time as the passes. Return the result object the
    benchmark prints, the tracer (``None`` without tracing) and every task's
    seconds in every pass."""
    from covcat import cli

    tracer = Tracer() if trace else None
    passes = []  # (mode, per-task seconds, verdicts)
    setup = []
    start = time.perf_counter()
    while (not passes or (trace and len(passes) < 3)
           or (time.perf_counter() - start) * (1 + 0.5 / len(passes)) < seconds):
        if not trace:
            setup.append(probe())
        mode = trace_mode(len(passes)) if trace else None
        if mode is not None:
            tracer.install(alloc=mode == "alloc")
        try:
            times, verdicts = run_pass(cli, tasks)
        finally:
            if mode is not None:
                tracer.uninstall()
        passes.append((mode, times, verdicts))
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(probe())

    verdicts = [(task, v) for _, _, vs in passes for task, v in zip(tasks, vs)]
    attempted = len(verdicts)
    failed = sum(v.failed for _, v in verdicts)
    untraced = [times for mode, times, _ in passes if mode is None]
    if trace:
        traced = [sum(times) for mode, times, _ in passes if mode == "spans"]
        metrics = layer_metrics(tracer, len(traced), statistics.mean(traced),
                                statistics.mean(sum(times) for times in untraced))
        units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    else:
        # a pass of median tasks: one slow moment on a shared machine moves
        # one task's sample, not the whole pass
        metrics = {"wall_s": sum(statistics.median(ts) for ts in zip(*untraced)),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "setup_s": statistics.median(setup)}
        units = {m["name"]: m["unit"] for m in load_spec()["end_to_end"]}

    reasons = {}
    for task, v in verdicts:
        if v.failed:
            key = (task.label, v.reason, v.wrong)
            reasons[key] = reasons.get(key, 0) + 1
    for (task_label, reason, wrong), n in reasons.items():
        print(f"{'WRONG' if wrong else 'failed'}: {task_label} x{n}: {reason}")
    print(f"{label}: {len(passes)} passes "
          f"({', '.join(f'{sum(ts):.2f}' + (f' {m}' if m else '') for m, ts, _ in passes)} s), "
          f"failed_ratio {failed / attempted:.4f} ({failed}/{attempted})")
    if trace:
        report_layers(metrics)
    result = {"correct": not any(v.wrong for _, v in verdicts),
              "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    timings = {"tasks": [task.label for task in tasks],
               "passes": [{"mode": mode, "seconds": times} for mode, times, _ in passes]}
    return result, tracer, timings


def run_workload(args) -> dict:
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        tasks = inputs.generate(args.seed, args.workload, os.path.join(run_dir, "inputs"))
        probe = setup_probe(args.workload, args.seed, os.path.join(run_dir, "probe"))
        result, tracer, timings = run_tasks(tasks, args.seconds, args.trace, probe,
                                            f"{args.workload} seed {args.seed}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if tracer is not None:
        write_trace(args, tracer)
    record_result(args, result, timings)
    return result


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report_layers(metrics: dict) -> None:
    layers = {k.split(".")[0]: v for k, v in metrics.items()
              if k.count(".") == 1 and k.endswith(".self_s")}
    layers["cli"] = metrics["cli.main.self_s"]
    layers["(unspanned)"] = metrics["trace.unspanned_s"]
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    print("self time per traced pass: " + ", ".join(f"{k} {v:.3f} s" for k, v in ranked)
          + f"; sum {sum(layers.values()):.3f} s = traced wall {metrics['trace.wall_s']:.3f} s")


def write_trace(args, tracer) -> None:
    path = os.path.join(WORK, "traces", f"{args.workload}-s{args.seed}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"fields": ["id", "parent", "name", "start", "end"],
                   "spans": tracer.spans}, fh)


def record_result(args, result: dict, timings: dict) -> None:
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_record(), "result": result,
              "timings": timings}
    print("machine: " + json.dumps(record["machine"]))
    path = os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is per workload."""
    results = {}
    for name in inputs.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    if not args.trace:
        print(f"{'workload':12s} {'wall_s':>9s} {'peak_rss_mb':>12s} {'setup_s':>8s} "
              f"{'failed_ratio':>13s}")
        for name, res in results.items():
            m = res["metrics"]
            print(f"{name:12s} {m['wall_s']['value']:9.3f} {m['peak_rss_mb']['value']:12.1f} "
                  f"{m['setup_s']['value']:8.3f} {res['failed'] / res['attempted']:13.4f}")
    print(json.dumps(results))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="covcat benchmark")
    parser.add_argument("--workload", required=True,
                        choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=37.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="internal: import covcat, write the inputs to DIR, report ready")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "covcat", "cli.py")):
        sys.stderr.write(f"covcat sources not found in {SRC}; "
                         "run from the root of a covcat checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        import covcat.cli  # noqa: F401  (the import is what is being timed)
        inputs.generate(args.seed, args.workload, args.setup_probe)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

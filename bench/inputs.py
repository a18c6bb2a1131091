"""Seeded input files and task lists for the covcat benchmark.

Everything here is built with numpy alone, from the seed, and written in the
file formats of the covcat README. None of covcat's own generators is used,
so a change to the library cannot change what the benchmark feeds it.

Each workload is a list of ``Task``: the argv of one ``covcat`` command plus
what the oracle needs to judge its report (see ``oracle.py``).

Run ``python3 bench/inputs.py --seed 1 --out DIR`` to write one seed's files
and check that each of them loads through the CLI's own readers.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("frame", "certify", "equivalence")

FRAME_LADDERS = (8, 12, 16, 20, 24)
SWEEP_NS = "2,4,8,16"
MIXED_LADDER = 12
CERTIFY_LADDERS = (8, 8, 8, 12)
# The certify targets come from this constant seed, not from --seed: over
# Haar-random qutrit targets the diamond solver's iteration count is heavy
# tailed (250 to over 40 000 iterations; one N=12 target took 69 s), so a
# seeded target would swing a run's wall time by more than any bound.
CERTIFY_TARGET_SEED = 2301
S_N = 5                                   # S5, order 120, 4-dim standard rep
CATALYSIS_DS = (2, 4, 8, 16, 32)
CATALYSIS_DC = (2, 3)
CATALYSIS_M = (1, 2)
CATALYSIS_LARGE_DS = 64
DEGENERATE_DS = (4, 8, 12, 16)


@dataclass
class Task:
    """One CLI call: ``argv`` for ``covcat.cli.main`` and its expectations.

    ``kind`` selects the oracle; ``expect`` holds the planted truth where one
    exists (for ``wiegmann-equiv``: "equivalent" or "distinguished").
    ``output`` is the report file; ``None`` means the report is on stdout.
    """

    label: str
    kind: str
    argv: list
    output: str | None
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# numpy building blocks
# ---------------------------------------------------------------------------

def matrix_json(m) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": int(m.shape[0]),
            "data": np.stack([m.real, m.imag], axis=-1).reshape(-1, 2).tolist()}


def haar_unitary(d: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(d: int, rng) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def sector_unitary(v: np.ndarray, n_levels: int) -> np.ndarray:
    """Charge-conserving unitary on qudit (x) N-level ladder.

    In every total-charge sector {|s, q-s>} that holds all d system levels it
    applies ``v`` (``v[s', s]`` maps |s, q-s> to |s', q-s'>); partial sectors
    at the ladder ends are left alone. For d = 2 and a rotation ``v`` this is
    the library's built-in phase ladder.
    """
    d = v.shape[0]
    u = np.eye(d * n_levels, dtype=complex)
    for q in range(d - 1, n_levels):
        idx = [s * n_levels + (q - s) for s in range(d)]
        u[np.ix_(idx, idx)] = v
    return u


def x_rotation(theta: float) -> np.ndarray:
    return np.array([[np.cos(theta / 2), -1j * np.sin(theta / 2)],
                     [-1j * np.sin(theta / 2), np.cos(theta / 2)]])


def uniform_superposition(n: int) -> np.ndarray:
    amp = np.ones(n, dtype=complex) / np.sqrt(n)
    return np.outer(amp, amp.conj())


def frame_scenario_json(v: np.ndarray, n_levels: int, sigma_c: np.ndarray) -> dict:
    d = v.shape[0]
    return {"unitary": matrix_json(sector_unitary(v, n_levels)),
            "sigma_c": matrix_json(sigma_c),
            "target": matrix_json(v),
            "gens_s": [matrix_json(np.diag(np.arange(d, dtype=float)))],
            "gens_c": [matrix_json(np.diag(np.arange(n_levels, dtype=float)))]}


def catalysis_scenario_json(d_s: int, d_c: int, m: int, rng,
                            degenerate: bool = False) -> dict:
    """Admissible scenario planted in hidden product bases.

    Generators and states are diagonal in random bases of S and C, the joint
    unitary is a planted system unitary times charge-sector phases, so both
    defining equations hold to round-off and the planted unitary is an
    intertwiner. ``degenerate`` gives rho_S a two-fold degenerate spectrum.
    """
    basis_s, basis_c, planted = haar_unitary(d_s, rng), haar_unitary(d_c, rng), \
        haar_unitary(d_s, rng)

    def conj(b, diag):
        return b @ np.diag(diag) @ b.conj().T

    gens_s = [conj(basis_s, rng.uniform(-1.5, 1.5, d_s)) for _ in range(m)]
    gens_c = [conj(basis_c, rng.uniform(-1.5, 1.5, d_c)) for _ in range(m)]
    if degenerate:
        p = np.repeat(rng.uniform(0.05, 1.0, d_s // 2), 2)
    else:
        p = rng.uniform(0.05, 1.0, d_s)
    rho_s = conj(basis_s, p / p.sum())
    q = rng.uniform(0.05, 1.0, d_c)
    sigma_c = conj(basis_c, q / q.sum())
    joint = np.kron(basis_s, basis_c)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, d_s * d_c))
    unitary = np.kron(planted, np.eye(d_c)) @ (joint @ np.diag(phases) @ joint.conj().T)
    out = lambda x: planted @ x @ planted.conj().T
    return {"unitary": matrix_json(unitary),
            "rho_s": matrix_json(rho_s),
            "rho_s_out": matrix_json(out(rho_s)),
            "sigma_c": matrix_json(sigma_c),
            "gens_s_in": [matrix_json(x) for x in gens_s],
            "gens_s_out": [matrix_json(out(x)) for x in gens_s],
            "gens_c": [matrix_json(x) for x in gens_c]}


def tuples_json(d: int, rng, perturb: bool) -> dict:
    """Three PSD matrices and their image under a hidden unitary.

    With ``perturb`` the second tuple's first matrix gets a traceless
    Hermitian kick. Only Tr(x0) is kept, so the tuples are distinguished at
    short words such as x0^2.
    """
    a = [random_density(d, rng) for _ in range(3)]
    u = haar_unitary(d, rng)
    b = [u @ x @ u.conj().T for x in a]
    if perturb:
        h = random_hermitian(d, rng)
        h -= np.trace(h).real / d * np.eye(d)
        b[0] = b[0] + 1e-2 * h / np.linalg.norm(h, 2) * np.linalg.eigvalsh(b[0])[0]
    return {"tuple_a": [matrix_json(x) for x in a],
            "tuple_b": [matrix_json(x) for x in b]}


def symmetric_group_table(n: int, rng):
    """Multiplication table of S_n under a seeded relabelling of elements,
    with the standard (n-1)-dim orthogonal representation as images."""
    perms = list(itertools.permutations(range(n)))
    order = len(perms)
    relabel = rng.permutation(order)          # element i gets index relabel[i]
    index = {p: int(relabel[i]) for i, p in enumerate(perms)}
    table = [[0] * order for _ in range(order)]
    for p in perms:
        for q in perms:
            table[index[p]][index[q]] = index[tuple(p[q[k]] for k in range(n))]
    ones = np.ones((n, 1)) / np.sqrt(n)
    basis, _ = np.linalg.qr(np.concatenate([ones, np.eye(n)[:, :n - 1]], axis=1))
    plane = basis[:, 1:]
    images = [None] * order
    for p in perms:
        pm = np.zeros((n, n))
        pm[list(p), list(range(n))] = 1.0
        images[index[p]] = plane.T @ pm @ plane
    return table, images


def twirled_channel_json(n: int, rng) -> dict:
    """A random two-Kraus channel twirled over S_n's standard representation."""
    table, images = symmetric_group_table(n, rng)
    d = images[0].shape[0]
    g = rng.standard_normal((2 * d, d)) + 1j * rng.standard_normal((2 * d, d))
    iso, _ = np.linalg.qr(g)
    base = [iso[:d], iso[d:]]
    norm = np.sqrt(len(images))
    kraus = [w.T @ k @ w / norm for w in images for k in base]
    rep = {"type": "finite",
           "group": {"order": len(table), "table": table},
           "images": [matrix_json(w) for w in images]}
    return {"channel": {"d_in": d, "d_out": d, "kraus": [matrix_json(k) for k in kraus]},
            "rep_in": rep, "rep_out": rep}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _write(path: str, payload: dict) -> str:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))  # dumps uses the C encoder, dump does not
    return path


class TaskList:
    """Tasks of one workload, with their input files written to ``out_dir``.

    ``rng`` draws the inputs from the seed and a stream number, so that each
    workload has its own stream; ``--seed`` is also passed to every command.
    """

    def __init__(self, seed: int, stream: int, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.rng = np.random.default_rng([seed, stream])
        self.cli_seed = seed
        self.out_dir = out_dir
        self.tasks: list[Task] = []

    def add(self, label: str, kind: str, args: list, payload: dict | None = None,
            stdout: bool = False, **expect) -> None:
        argv = list(args)
        if payload is not None:
            argv += ["--input", _write(os.path.join(self.out_dir, f"{label}.json"), payload)]
        output = None if stdout else os.path.join(self.out_dir, f"{label}.report.json")
        if output:
            argv += ["--output", output]
        argv += ["--seed", str(self.cli_seed)]
        self.tasks.append(Task(label, kind, argv, output, expect))


def _frame(b: TaskList) -> None:
    for n in FRAME_LADDERS:
        b.add(f"ladder-N{n}", "recovery", ["recovery-verify", "--N", str(n), "--samples", "100"])
    b.add("sweep", "sweep", ["refframe-sweep", "--Ns", SWEEP_NS], stdout=True,
          rows=len(SWEEP_NS.split(",")))
    n = MIXED_LADDER
    shift, weight = b.rng.uniform(0.3, 1.2), b.rng.uniform(0.2, 0.5)
    amp = np.ones(n, dtype=complex) / np.sqrt(n)
    shifted = np.exp(-1j * shift * np.arange(n)) * amp
    sigma = (1 - weight) * np.outer(amp, amp.conj()) + weight * np.outer(shifted, shifted.conj())
    b.add(f"mixed-N{n}", "recovery", ["recovery-verify", "--samples", "100"],
          frame_scenario_json(x_rotation(np.pi / 2), n, sigma))


def _certify(b: TaskList) -> None:
    targets = np.random.default_rng(CERTIFY_TARGET_SEED)
    for i, n in enumerate(CERTIFY_LADDERS):
        v = haar_unitary(3, targets)
        b.add(f"qutrit-{i}-N{n}", "recovery", ["recovery-verify", "--samples", "100"],
              frame_scenario_json(v, n, uniform_superposition(n)))
    b.add("s5-twirl", "covariance", ["check-covariance"], twirled_channel_json(S_N, b.rng))
    b.add("demo-finite-group", "demo-finite-group", ["demo-finite-group"])


def _equivalence(b: TaskList) -> None:
    b.add("demo-appendix", "demo-appendix", ["demo-appendix"])
    b.add("tuples-d4-planted", "wiegmann", ["wiegmann-equiv"],
          tuples_json(4, b.rng, perturb=False), truth="equivalent")
    for d in (3, 6):
        b.add(f"tuples-d{d}-perturbed", "wiegmann", ["wiegmann-equiv"],
              tuples_json(d, b.rng, perturb=True), truth="distinguished")
    for d_s, d_c, m in itertools.product(CATALYSIS_DS, CATALYSIS_DC, CATALYSIS_M):
        b.add(f"catalysis-{d_s}x{d_c}-m{m}", "catalysis", ["catalysis-verify"],
              catalysis_scenario_json(d_s, d_c, m, b.rng))
    b.add(f"catalysis-{CATALYSIS_LARGE_DS}x2-m1", "catalysis", ["catalysis-verify"],
          catalysis_scenario_json(CATALYSIS_LARGE_DS, 2, 1, b.rng))
    for d_s in DEGENERATE_DS:
        b.add(f"degenerate-{d_s}", "intertwiner", ["find-intertwiner"],
              catalysis_scenario_json(d_s, 2, 0, b.rng, degenerate=True))


def generate(seed: int, workload: str, out_dir: str) -> list[Task]:
    """Write the workload's input files for ``seed`` into ``out_dir`` and
    return its task list, in run order."""
    b = TaskList(seed, WORKLOADS.index(workload), out_dir)
    {"frame": _frame, "certify": _certify, "equivalence": _equivalence}[workload](b)
    return b.tasks


def check_loadable(tasks: list[Task]) -> None:
    """Parse every input file with the reader its CLI command uses."""
    from covcat import cli
    from covcat.catalysis import CatalysisScenario
    from covcat.serialize import channel_from_json, load_json, matrices_from_json

    readers = {
        "recovery-verify": cli._frame_scenario_from_json,
        "catalysis-verify": CatalysisScenario.from_json,
        "find-intertwiner": CatalysisScenario.from_json,
        "wiegmann-equiv": lambda o: [matrices_from_json(o[k], k) for k in ("tuple_a", "tuple_b")],
        "check-covariance": lambda o: (channel_from_json(o["channel"]),
                                       cli._rep_from_spec(o["rep_in"], "rep_in"),
                                       cli._rep_from_spec(o["rep_out"], "rep_out")),
    }
    for task in tasks:
        if "--input" in task.argv:
            readers[task.argv[0]](load_json(task.argv[task.argv.index("--input") + 1]))


if __name__ == "__main__":
    import argparse
    import sys

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    for name in WORKLOADS:
        tasks = generate(args.seed, name, os.path.join(args.out, name))
        check_loadable(tasks)
        print(f"{name}: {len(tasks)} tasks, inputs load")

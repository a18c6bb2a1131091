"""Diamond-norm distance between channels via a first-order semidefinite solver.

For trace-preserving maps T1, T2 with Hermitian Choi difference J (output
factor first, ``Tr_out J = 0``), the completely bounded trace-norm distance is
the value of the semidefinite program

    maximize    2 <J, W>
    subject to  W >= 0,  Q >= 0,  W + Q = 1 (x) rho,  Tr rho = 1,

whose dual is ``minimize ||Tr_out Z||_inf`` over ``Z >= 2 J, Z >= 0``
(Watrous, "Semidefinite programs for completely bounded norms", 2009). As
``<x|rho|x> = <e (x) x|W + Q|e (x) x> >= 0``, rho's cone is implied and rho
is left free. The solver runs over-relaxed Douglas-Rachford on the primal
program alone: the proximal step is one batched PSD projection of
``(W + 2 gamma J, Q)``, the other step the orthogonal projection onto the two
affine constraints (``_DiamondProgram.project_affine``, closed form from one
partial trace and one scalar). The step is ``gamma = 4 / ||J||_op``, so
``gamma J`` and every iterate are unchanged when J is scaled. The dual is
never iterated: ``u(P)`` below is a feasible dual value for every Hermitian
P, and it is taken at ``P = Z - 2J`` for the Douglas-Rachford multiplier
``Z = (x_Q - z_Q) / gamma`` of the affine constraint (x the PSD point, z the
iterate it came from), which tends to a dual optimum. Progress is certified
every ``CHECK_EVERY`` iterations:

* any Hermitian rho, through ``s = rho_+ / Tr rho_+``, gives the feasible
  primal value ``l(s) = || (1 (x) sqrt(s)) J (1 (x) sqrt(s)) ||_1``,
* any Hermitian P gives the feasible dual value
  ``u(P) = lambda_max(Tr_out(2J + P_+ + c 1))`` with ``c = max(0, -lambda_min(2J + P_+))``,

so the reported value is always bracketed by a certified interval. It closes
when ``upper - lower <= max(DEFAULT_GAP_TOL * upper, CROSSING_TOL * max(1,
||J||_op))``: relative to the value, down to a round-off floor set by the
scale of J (at ``J = 0`` up to round-off the a priori bracket closes on the
floor). If the iteration cap ``DEFAULT_MAX_ITER`` is reached first, the
result carries status ``"bounds"`` instead of a silently inaccurate number.

The solver starts from an a priori bracket. The maximally entangled input
``rho = 1/d`` gives the lower end. The upper end is the dual point
``Z = 2 J_+``, twice the positive part of J, which satisfies ``Z >= 0`` and
``Z >= 2J`` and is therefore always feasible; it is ``u(P)`` at
``P = 2 J_-``. As ``lambda_max(Tr_out 2J_+) <= 2 Tr J_+ = d l(1/d)``, it is
never looser than d times the lower end. For a covariant target, such as the
phase ladders of `covcat.refframe`, the two ends meet at round-off and no
iteration runs. `diamond_distance` also caps the upper end at 2, the largest
distance of two channels; `diamond_norm_of_difference` accepts any Hermitian
J with ``Tr_out J = 0`` and has no such cap.

Crossing rule: both ends are computed in floating point, so they can cross
by round-off. The bracket is then widened, never narrowed: ``lower`` is the
smaller and ``upper`` the larger of the two certificates, so
``lower <= value <= upper`` always holds. A crossing wider than
``CROSSING_TOL * max(1, value)`` cannot come from round-off and raises
``RuntimeError``.

An iteration costs one batched eigendecomposition of the two d^2 x d^2
blocks, O(d^6); memory is the O(d^4) iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import (DimensionError, DomainError, max_norm, partial_trace, require_hermitian,
                     require_unitary)
from .serialize import record_to_json

DEFAULT_GAP_TOL = 1e-6
DEFAULT_MAX_ITER = 200_000
OVER_RELAXATION = 1.8
STEP_SCALE = 4.0       # Douglas-Rachford step gamma = STEP_SCALE / ||J||_op
CHECK_EVERY = 25       # iterations between certificate checks
CROSSING_TOL = 1e-12   # relative width that round-off alone explains: a crossing, the gap floor


@dataclass(frozen=True)
class DiamondResult:
    """Certified diamond-norm value: lower <= true value <= upper."""

    value: float
    status: str  # "converged" | "bounds"
    lower: float
    upper: float
    iterations: int

    def to_json(self) -> dict:
        return record_to_json(self)


def _psd_part(m: np.ndarray) -> np.ndarray:
    """PSD part of a Hermitian matrix, or of each in a stack (``eigh`` reads one triangle)."""
    w, v = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    return (v * w[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def _trace_out_first(m: np.ndarray, d: int) -> np.ndarray:
    return np.trace(m.reshape(d, d, d, d), axis1=0, axis2=2)


class _DiamondProgram:
    """Constraint data for one Choi difference: J, its dimension and the embedding."""

    def __init__(self, j: np.ndarray, d: int):
        self.j = j
        self.d = d
        self.eye = np.eye(d)

    def embed(self, r: np.ndarray) -> np.ndarray:
        """1 (x) r, by broadcasting."""
        d = self.d
        return (self.eye[:, None, :, None] * r[None, :, None, :]).reshape(d * d, d * d)

    def project_affine(self, wq: np.ndarray, rho: np.ndarray) -> tuple[np.ndarray, float]:
        """Multipliers ``(R, t)`` of the orthogonal projection of ``wq = [W, Q]``
        and ``rho`` onto ``W + Q = 1 (x) rho``, ``Tr rho = 1``: the projection
        is ``W - R``, ``Q - R`` and ``rho + Tr_1 R - t 1``, with ``R`` built
        from ``r1 = W + Q - 1 (x) rho``."""
        d = self.d
        r1 = wq[0] + wq[1] - self.embed(rho)
        t = (np.trace(r1).real + (d + 2.0) * (np.trace(rho).real - 1.0)) / (2.0 * d)
        p = (_trace_out_first(r1, d) + t * d * self.eye) / (d + 2.0)
        return (r1 - self.embed(p - t * self.eye)) / 2.0, t

    # -- certified bracket ---------------------------------------------------

    def primal_value(self, rho: np.ndarray) -> float:
        """Exact program value of the best W for the density matrix
        ``rho_+ / Tr rho_+`` (``1/d`` if rho has no positive part), whose
        square root comes from the same ``eigh`` as ``rho_+``."""
        w, v = np.linalg.eigh(rho)
        w = np.maximum(w, 0.0)
        tr = w.sum()
        sq = (v * np.sqrt(w / tr)) @ v.conj().T if tr > 1e-12 else self.eye / np.sqrt(self.d)
        root = np.kron(self.eye, sq)
        mid = root @ self.j @ root
        return float(np.abs(np.linalg.eigvalsh((mid + mid.conj().T) / 2)).sum())

    def dual_value(self, p: np.ndarray) -> float:
        """Feasible dual value ``u(P)`` of the module docstring."""
        z = 2.0 * self.j + _psd_part(p)
        shift = max(0.0, -float(np.linalg.eigvalsh(z)[0]))
        marg = _trace_out_first(z, self.d) + shift * self.d * np.eye(self.d)
        return float(np.linalg.eigvalsh((marg + marg.conj().T) / 2)[-1])


def _a_priori_bracket(prog: _DiamondProgram) -> tuple[float, float]:
    """Primal value at the maximally entangled input and dual value at 2 J_+."""
    return prog.primal_value(prog.eye / prog.d), prog.dual_value(-2.0 * prog.j)


def _certified(low: float, up: float, status: str, iterations: int) -> DiamondResult:
    """Result from two certificates under the crossing rule of the module docstring."""
    lower, upper = min(low, up), max(low, up)
    value = (lower + upper) / 2
    if low - up > CROSSING_TOL * max(1.0, value):
        raise RuntimeError(f"diamond certificates cross by {low - up:.3e}: "
                           f"lower {low!r} above upper {up!r}")
    return DiamondResult(value=value, status=status, lower=lower, upper=upper,
                         iterations=iterations)


def _solve(j: np.ndarray, d: int, cap: float) -> DiamondResult:
    """Validate J and run the primal Douglas-Rachford iteration; ``cap`` is a
    known upper bound on the value (2 for a difference of channels). The
    stopping rule of the module docstring reads its constants at call time."""
    j = require_hermitian(j, tol=1e-8)
    if j.shape[0] != d * d:
        raise DimensionError(f"Choi matrix dim {j.shape[0]} != d^2 = {d * d}")
    if max_norm(partial_trace(j, [d, d], keep=[1])) > 1e-8 * max(1.0, max_norm(j)):
        raise DomainError("Choi difference does not trace to zero; not a difference of channels")
    prog = _DiamondProgram(j, d)
    j_op = np.linalg.norm(j, 2)
    floor = CROSSING_TOL * max(1.0, j_op)
    best_low, best_up = _a_priori_bracket(prog)
    best_up = min(cap, best_up)
    if best_up - best_low <= max(DEFAULT_GAP_TOL * best_up, floor):
        return _certified(best_low, best_up, "converged", 0)
    gamma = STEP_SCALE / j_op
    shift = np.stack([2.0 * gamma * j, np.zeros_like(j)])  # the objective's gradient step
    z = np.zeros((2, d * d, d * d), dtype=complex)  # W, Q
    z[1] = np.eye(d * d) / d  # Q = 1 (x) rho
    z_rho = np.eye(d, dtype=complex) / d  # free, so its reflection is itself
    it, max_iter = 0, DEFAULT_MAX_ITER
    while it < max_iter:
        x = _psd_part(z + shift)
        step = x - z
        it += 1
        if it % CHECK_EVERY == 0 or it == max_iter:
            best_low = max(best_low, prog.primal_value(z_rho))
            best_up = min(best_up, prog.dual_value(step[1] / gamma - 2.0 * j))
            if best_up - best_low <= max(DEFAULT_GAP_TOL * best_up, floor):
                return _certified(best_low, best_up, "converged", it)
        # z moves by OVER_RELAXATION (y - x), y the projection of (2x - z, z_rho)
        r, t = prog.project_affine(x + step, z_rho)
        z += OVER_RELAXATION * (step - r)
        z_rho += OVER_RELAXATION * (_trace_out_first(r, d) - t * prog.eye)
    return _certified(best_low, best_up, "bounds", it)


def diamond_norm_of_difference(j: np.ndarray, d: int) -> DiamondResult:
    """Diamond norm of a Hermitian-preserving difference of channels on dim d.

    ``j`` is the Choi difference; it must be Hermitian with vanishing output
    partial trace (automatic for differences of trace-preserving channels),
    both judged to 1e-8 relative to ``max(1, ||J||_max)``.
    """
    return _solve(j, d, np.inf)


def diamond_distance(t1: Channel, t2: Channel) -> DiamondResult:
    """Certified diamond-norm distance ||T1 - T2||_diamond between two channels."""
    if (t1.d_in, t1.d_out) != (t2.d_in, t2.d_out):
        raise DimensionError("channels must share input and output dimensions")
    if t1.d_in != t1.d_out:
        raise DimensionError("solver is restricted to equal input/output dimensions")
    # the distance of two channels never exceeds 2
    return _solve(t1.choi() - t2.choi(), t1.d_in, 2.0)


def unitary_diamond_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Closed-form diamond distance between two unitary conjugation channels.

    Determined by the eigenvalues of ``U^dag V`` on the unit circle: with
    ``s`` the smallest arc containing all of them, the distance is
    ``2 sin(s/2)`` for ``s < pi`` and 2 otherwise (the convex hull of the
    eigenvalues then contains the origin). Serves as an independent oracle
    for the semidefinite solver.
    """
    u, v = require_unitary(u), require_unitary(v)
    if u.shape != v.shape:
        raise DimensionError("unitaries must have equal dimension")
    angles = np.sort(np.angle(np.linalg.eigvals(u.conj().T @ v)))
    # the arc leaves out the widest gap, through -1 (read directly) or between neighbours
    span = min(angles[-1] - angles[0], 2 * np.pi - np.diff(angles).max(initial=0.0))
    if span >= np.pi:
        return 2.0
    return float(2 * np.sin(span / 2))

"""Diamond-norm distance between channels via a first-order semidefinite solver.

For trace-preserving maps T1, T2 with Hermitian Choi difference J (output
factor first, ``Tr_out J = 0``), the completely bounded trace-norm distance is
the value of the semidefinite program

    maximize    2 <J, W>
    subject to  0 <= W <= 1 (x) rho,   rho a density matrix on the input copy,

whose dual is ``minimize ||Tr_out Z||_inf`` over ``Z >= 2 J, Z >= 0``. The
solver stacks primal and dual feasibility together with the zero-gap equation
into one affine subspace and runs over-relaxed alternating projections
(Douglas-Rachford reflections) between that subspace and the product of PSD
cones. Progress is certified from the iterates themselves:

* any density matrix rho gives the feasible primal value
  ``l(rho) = || (1 (x) sqrt(rho)) J (1 (x) sqrt(rho)) ||_1``,
* any PSD matrix P gives the feasible dual value
  ``u(P) = lambda_max(Tr_out(2J + P + c 1))`` with ``c = max(0, -lambda_min(2J + P))``,

so the reported value is always bracketed by a certified interval. If the
iteration cap is reached before the bracket closes, the result carries status
``"bounds"`` instead of a silently inaccurate number.

The solver starts from an a priori bracket. The maximally entangled input
``rho = 1/d`` gives the lower end. The upper end is the dual point
``Z = 2 J_+``, twice the positive part of J, which satisfies ``Z >= 0`` and
``Z >= 2J`` and is therefore always feasible (Watrous, "Semidefinite programs
for completely bounded norms", 2009); it is ``u(P)`` at ``P = 2 J_-``. As
``lambda_max(Tr_out 2J_+) <= 2 Tr J_+ = d l(1/d)``, it is never looser than
d times the lower end. For a covariant target, such as the phase ladders of
`covcat.refframe`, the two ends meet at round-off and no iteration runs.

Crossing rule: both ends are computed in floating point, so they can cross
by round-off. The bracket is then widened, never narrowed: ``lower`` is the
smaller and ``upper`` the larger of the two certificates, so
``lower <= value <= upper`` always holds. A crossing wider than
``CROSSING_TOL * max(1, value)`` cannot come from round-off and raises
``RuntimeError``.

The iterate keeps its Hermitian blocks as they are: the four d^2 x d^2 blocks
``W, Q, Zp, Z0`` in one stack, ``rho`` and ``S`` in another, ``lambda`` as a
float, so the PSD projection is one batched ``eigh`` per stack. The affine
projection ``x - A* (A A*)^-1 (A x - b)`` needs no matrix: every block of A is
an identity, the embedding ``r -> 1 (x) r`` or its adjoint ``Tr_1``, so every
block of A A* combines the identity, ``Pi = (1/d) 1 (x) Tr_1`` (the orthogonal
projection onto the matrices ``1 (x) r``) and the rank-one map
``X -> J <J, X>``. Because ``Tr_out J = 0`` (checked on entry), ``Pi J = 0``,
and the multipliers follow from a few partial traces and scalars (see
``_DiamondProgram.project_affine``). Memory is the O(d^4) iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import DimensionError, DomainError, max_norm, partial_trace, require_hermitian

DEFAULT_GAP_TOL = 1e-6
DEFAULT_MAX_ITER = 200_000
OVER_RELAXATION = 1.8
CROSSING_TOL = 1e-12   # relative width up to which crossed certificates count as round-off


@dataclass(frozen=True)
class DiamondResult:
    """Certified diamond-norm value: lower <= true value <= upper."""

    value: float
    status: str  # "converged" | "bounds"
    lower: float
    upper: float
    iterations: int

    def to_json(self) -> dict:
        return {"value": self.value, "status": self.status, "lower": self.lower,
                "upper": self.upper, "iterations": self.iterations}


def _psd_part(m: np.ndarray) -> np.ndarray:
    """PSD part of a Hermitian matrix, or of each matrix in a stack."""
    w, v = np.linalg.eigh((m + np.swapaxes(m, -1, -2).conj()) / 2)
    w = np.maximum(w, 0.0)
    return (v * w[..., None, :]) @ np.swapaxes(v, -1, -2).conj()


def _trace_out_first(m: np.ndarray, d: int) -> np.ndarray:
    return np.trace(m.reshape(d, d, d, d), axis1=0, axis2=2)


class _DiamondProgram:
    """Constraint data for one Choi difference: J, its norm and the embedding."""

    def __init__(self, j: np.ndarray, d: int):
        self.j = j
        self.d = d
        self.eye = np.eye(d)
        self.j_sq = np.vdot(j, j).real

    def embed(self, r: np.ndarray) -> np.ndarray:
        """1 (x) r, by broadcasting."""
        d = self.d
        return (self.eye[:, None, :, None] * r[None, :, None, :]).reshape(d * d, d * d)

    def project_affine(self, big: np.ndarray, small: np.ndarray,
                       lam: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Orthogonal projection onto the constraints, in place on the stacks.

        ``big = [W, Q, Zp, Z0]``, ``small = [rho, S]``. The constraints are
        ``W + Q = 1 (x) rho``, ``Tr rho = 1``, ``Z0 - Zp = 2J``,
        ``Tr_1 Z0 + S = lam 1`` and ``2 <J, W> = lam``; the multipliers of
        ``(A A*)^-1 (A x - b)`` are written out in closed form.
        """
        d, j, eye = self.d, self.j, self.eye
        w, q, zp, z0 = big
        rho, s = small
        r1 = w + q - self.embed(rho)
        r2 = np.trace(rho).real - 1.0
        r3 = z0 - zp - 2.0 * j
        r4 = _trace_out_first(z0, d) + s - lam * eye
        r5 = 2.0 * np.vdot(j, w).real - lam
        c = 1.5 * d + 1.0
        g = r4 - 0.5 * _trace_out_first(r3, d)
        tr_g = np.trace(g).real
        nu = ((r5 - np.vdot(j, r1).real - tr_g / c)
              / (2.0 * self.j_sq + (d + 2.0) / (3.0 * d + 2.0)))
        t = (tr_g - d * nu) / c
        k = (g - (t + nu) * eye) / (d / 2.0 + 1.0)
        one_k = self.embed(k)
        n = (r3 - one_k) / 2.0
        mu = ((d + 2.0) * r2 + np.trace(r1).real) / (2.0 * d)
        # M = ((1 - Pi) r1 - 2 nu J) / 2 + 1 (x) a with Pi r1 = 1 (x) p, so Tr_1 M = d a
        p = _trace_out_first(r1, d) / d
        a = (p + mu * eye) / (d + 2.0)
        m = 0.5 * r1 - nu * j + self.embed(a - 0.5 * p)
        w -= m + 2.0 * nu * j
        q -= m
        rho += d * a - mu * eye
        zp += n
        z0 -= n + one_k
        s -= k
        return big, small, lam + t + nu

    # -- certified bracket ---------------------------------------------------

    def primal_value(self, rho: np.ndarray) -> float:
        """Exact program value of the best W for this density matrix."""
        d = self.d
        rho = _psd_part(rho)
        tr = np.trace(rho).real
        rho = rho / tr if tr > 1e-12 else np.eye(d) / d
        w, v = np.linalg.eigh(rho)
        sq = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
        root = np.kron(np.eye(d), sq)
        mid = root @ self.j @ root
        return float(np.abs(np.linalg.eigvalsh((mid + mid.conj().T) / 2)).sum())

    def dual_value(self, zp: np.ndarray) -> float:
        z = 2.0 * self.j + _psd_part(zp)
        shift = max(0.0, -float(np.linalg.eigvalsh(z)[0]))
        marg = _trace_out_first(z, self.d) + shift * self.d * np.eye(self.d)
        return float(np.linalg.eigvalsh((marg + marg.conj().T) / 2)[-1])


def _a_priori_bracket(prog: _DiamondProgram) -> tuple[float, float]:
    """Primal value at the maximally entangled input and dual value at 2 J_+."""
    return (prog.primal_value(prog.eye / prog.d),
            min(2.0, prog.dual_value(-2.0 * prog.j)))


def _certified(low: float, up: float, status: str, iterations: int) -> DiamondResult:
    """Result from two certificates under the crossing rule of the module docstring."""
    lower, upper = min(low, up), max(low, up)
    value = (lower + upper) / 2
    if low - up > CROSSING_TOL * max(1.0, value):
        raise RuntimeError(f"diamond certificates cross by {low - up:.3e}: "
                           f"lower {low!r} above upper {up!r}")
    return DiamondResult(value=value, status=status, lower=lower, upper=upper,
                         iterations=iterations)


def diamond_norm_of_difference(j: np.ndarray, d: int, gap_tol: float = DEFAULT_GAP_TOL,
                               max_iter: int = DEFAULT_MAX_ITER) -> DiamondResult:
    """Diamond norm of a Hermitian-preserving difference of channels on dim d.

    ``j`` is the Choi difference; it must be Hermitian with vanishing output
    partial trace (automatic for differences of trace-preserving channels).
    """
    j = require_hermitian(j, tol=1e-8)
    if j.shape[0] != d * d:
        raise DimensionError(f"Choi matrix dim {j.shape[0]} != d^2 = {d * d}")
    if max_norm(partial_trace(j, [d, d], keep=[1])) > 1e-8:
        raise DomainError("Choi difference does not trace to zero; not a difference of channels")
    prog = _DiamondProgram(j, d)
    big = np.zeros((4, d * d, d * d), dtype=complex)  # W, Q, Zp, Z0
    small = np.zeros((2, d, d), dtype=complex)  # rho, S
    small[0] = np.eye(d) / d
    big[1] = np.eye(d * d) / d  # Q = 1 (x) rho
    lam = 0.0
    best_low, best_up = _a_priori_bracket(prog)
    if best_up - best_low <= gap_tol:
        return _certified(best_low, best_up, "converged", 0)
    it = 0
    next_check = 25
    while it < max_iter:
        x_big, x_small = _psd_part(big), _psd_part(small)
        y_big, y_small, y_lam = prog.project_affine(2.0 * x_big - big, 2.0 * x_small - small, lam)
        big += OVER_RELAXATION * (y_big - x_big)
        small += OVER_RELAXATION * (y_small - x_small)
        lam += OVER_RELAXATION * (y_lam - lam)
        it += 1
        if it >= next_check or it == max_iter:
            next_check = it + min(250, max(25, it // 2))
            best_low = max(best_low, prog.primal_value(x_small[0]))
            best_up = min(best_up, prog.dual_value(x_big[2]))
            if best_up - best_low <= gap_tol:
                return _certified(best_low, best_up, "converged", it)
    return _certified(best_low, best_up, "bounds", it)


def diamond_distance(t1: Channel, t2: Channel, gap_tol: float = DEFAULT_GAP_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> DiamondResult:
    """Certified diamond-norm distance ||T1 - T2||_diamond between two channels."""
    if (t1.d_in, t1.d_out) != (t2.d_in, t2.d_out):
        raise DimensionError("channels must share input and output dimensions")
    if t1.d_in != t1.d_out:
        raise DimensionError("solver is restricted to equal input/output dimensions")
    j = t1.choi() - t2.choi()
    return diamond_norm_of_difference(j, t1.d_in, gap_tol=gap_tol, max_iter=max_iter)


def unitary_diamond_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Closed-form diamond distance between two unitary conjugation channels.

    Determined by the eigenvalues of ``U^dag V`` on the unit circle: with
    ``s`` the smallest arc containing all of them, the distance is
    ``2 sin(s/2)`` for ``s < pi`` and 2 otherwise (the convex hull of the
    eigenvalues then contains the origin). Serves as an independent oracle
    for the semidefinite solver.
    """
    from .linalg import require_unitary
    u, v = require_unitary(u), require_unitary(v)
    if u.shape != v.shape:
        raise DimensionError("unitaries must have equal dimension")
    angles = np.sort(np.angle(np.linalg.eigvals(u.conj().T @ v)))
    gaps = np.diff(angles, append=angles[0] + 2 * np.pi)
    widest = float(gaps.max())
    if widest <= np.pi:
        return 2.0
    span = 2 * np.pi - widest
    reach = np.cos(span / 2)
    return float(2 * np.sqrt(max(0.0, 1.0 - reach * reach)))

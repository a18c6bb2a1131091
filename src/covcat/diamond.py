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

Each Hermitian block X of the iterate is stored as the real matrix
``R(X) = Re X + Im X``: its symmetric part is Re X, its antisymmetric part
Im X. R maps the Hermitian n x n matrices onto all real n x n matrices and
preserves the Frobenius inner product, ``<R(X), R(Y)> = Tr(XY)``. It commutes
with ``1 (x) .``, with ``Tr_1`` and with the trace, so the constraint matrix A
is real and built directly from identities, the embedding ``r -> 1 (x) r`` and
its transpose, the partial trace. Any other orthonormal real coordinates of
the Hermitian matrices differ from these by an orthogonal change of basis,
which the affine projection ``x - A^T (A A^T)^-1 (A x - b)`` and the PSD
projection both commute with; the iterates are the same in either. The
inverse Gram matrix is formed once per program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import DimensionError, DomainError, max_norm, partial_trace, require_hermitian

DEFAULT_GAP_TOL = 1e-6
DEFAULT_MAX_ITER = 200_000
OVER_RELAXATION = 1.8


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


# -- real storage of Hermitian blocks ---------------------------------------

def _real(m: np.ndarray) -> np.ndarray:
    """R(X) = Re X + Im X: symmetric part Re X, antisymmetric part Im X."""
    return m.real + m.imag


def _herm(r: np.ndarray) -> np.ndarray:
    """The Hermitian X with R(X) = r, for any real square r."""
    return (r + r.T) / 2 + 0.5j * (r - r.T)


def _psd_part(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    w = np.maximum(w, 0.0)
    return (v * w) @ v.conj().T


def _trace_out_first(m: np.ndarray, d: int) -> np.ndarray:
    return np.trace(m.reshape(d, d, d, d), axis1=0, axis2=2)


class _DiamondProgram:
    """Assembled constraint data for one Choi difference."""

    def __init__(self, j: np.ndarray, d: int):
        self.j = j
        self.d = d
        dd = d * d
        n_big = dd * dd
        # variable layout: W | Q | rho | Zp | Z0 | S | lam, block X stored as vec R(X)
        self.dims = {"W": dd, "Q": dd, "rho": d, "Zp": dd, "Z0": dd, "S": d}
        self.slices, start = {}, 0
        for name, n in self.dims.items():
            self.slices[name] = slice(start, start + n * n)
            start += n * n
        lam = start
        self.nv = lam + 1
        s = self.slices
        eye = np.eye(d)
        # vec(1 (x) r) = embed @ vec(r); its transpose is the partial trace Tr_1
        embed = np.einsum("ab,ik,jl->aibjkl", eye, eye, eye).reshape(n_big, dd)
        vj = _real(j).ravel()
        primal, dual = slice(0, n_big), slice(n_big + 1, 2 * n_big + 1)
        marginal = slice(2 * n_big + 1, 2 * n_big + 1 + dd)
        a = np.zeros((2 * n_big + dd + 2, self.nv))
        b = np.zeros(a.shape[0])
        # primal feasibility: W + Q = 1 (x) rho, Tr rho = 1
        a[primal, s["W"]] = np.eye(n_big)
        a[primal, s["Q"]] = np.eye(n_big)
        a[primal, s["rho"]] = -embed
        a[n_big, s["rho"]] = eye.ravel()
        b[n_big] = 1.0
        # dual feasibility: Z0 - Zp = 2J  (Z0 >= 0 and Z0 >= 2J), Tr_out Z0 + S = lam 1
        a[dual, s["Z0"]] = np.eye(n_big)
        a[dual, s["Zp"]] = -np.eye(n_big)
        b[dual] = 2.0 * vj
        a[marginal, s["Z0"]] = embed.T
        a[marginal, s["S"]] = np.eye(dd)
        a[marginal, lam] = -eye.ravel()
        # zero duality gap: 2 <J, W> = lam
        a[-1, s["W"]] = 2.0 * vj
        a[-1, lam] = -1.0
        self.a = a
        self.b = b
        gram = a @ a.T
        gram[np.diag_indices_from(gram)] += 1e-13
        self._gram_inv = np.linalg.inv(gram)

    def project_affine(self, x: np.ndarray) -> np.ndarray:
        return x - (self._gram_inv @ (self.a @ x - self.b)) @ self.a

    def project_cones(self, x: np.ndarray) -> np.ndarray:
        out = x.copy()
        for name in self.dims:
            out[self.slices[name]] = _real(_psd_part(self.block(x, name))).ravel()
        return out

    def block(self, x: np.ndarray, name: str) -> np.ndarray:
        n = self.dims[name]
        return _herm(x[self.slices[name]].reshape(n, n))

    def initial_point(self) -> np.ndarray:
        x = np.zeros(self.nv)
        rho = np.eye(self.d) / self.d
        x[self.slices["rho"]] = rho.ravel()
        x[self.slices["Q"]] = np.kron(np.eye(self.d), rho).ravel()
        return x

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
    z = prog.initial_point()
    # a priori bracket: the stabilized trace norm at the maximally entangled
    # input bounds the value from below, d times it (capped at 2) from above
    best_low = prog.primal_value(np.eye(d) / d)
    best_up = min(2.0, d * best_low) if best_low > 0.0 else 0.0
    if best_up - best_low <= gap_tol:
        return DiamondResult(value=(best_up + best_low) / 2, status="converged",
                             lower=best_low, upper=best_up, iterations=0)
    it = 0
    next_check = 25
    while it < max_iter:
        x = prog.project_cones(z)
        y = prog.project_affine(2.0 * x - z)
        z = z + OVER_RELAXATION * (y - x)
        it += 1
        if it >= next_check or it == max_iter:
            next_check = it + min(250, max(25, it // 2))
            best_low = max(best_low, prog.primal_value(prog.block(x, "rho")))
            best_up = min(best_up, prog.dual_value(prog.block(x, "Zp")))
            if best_up - best_low <= gap_tol:
                return DiamondResult(value=(best_up + best_low) / 2, status="converged",
                                     lower=best_low, upper=best_up, iterations=it)
    return DiamondResult(value=(best_up + best_low) / 2, status="bounds",
                         lower=best_low, upper=best_up, iterations=it)


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

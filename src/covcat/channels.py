"""Quantum channels in Kraus form, with Choi conversion and covariance tests.

Conventions
-----------
* A channel's Kraus operators are one complex stack ``kraus[r, d_out, d_in]``,
  checked for trace preservation once by `Channel`, or derived from checked
  factors by the library (`Channel._derived`); it acts as
  ``sum_r K_r rho K_r^dag``.
* The Choi matrix is unnormalized and ordered output-first:
  ``J(T) = sum_ij T(E_ij) (x) E_ij``. The identity channel on dimension d has
  Choi ``d |Omega><Omega|``.
* Vectorization is row-major, ``vec(A K B) = (A (x) B^T) vec(K)``; the Choi
  matrix is ``V V^dag`` with one column ``vec(K)`` of V per Kraus operator.
* Composite systems are ordered system-first: a channel "on SC" acts on
  ``d_S * d_C`` with S owning the outer indices. Dilation unitaries place the
  environment last, ``U`` on S (x) E, unless noted otherwise.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    CHUNK_BYTES,
    DimensionError,
    DomainError,
    STRUCT_TOL,
    as_square,
    max_norm,
    require_density,
    require_hermitian,
    require_unitary,
    support_factor,
)
from .symmetry import FiniteGroupRep, generator_scale, require_same_group

CHANNEL_TOL = 1e-9  # trace preservation tolerance


class Channel:
    """Completely positive, trace-preserving map given by Kraus operators.

    ``kraus`` is one complex ``(r, d_out, d_in)`` array, built from a list, a
    tuple or an array of equal-shape operators. The constructor checks trace
    preservation within ``CHANNEL_TOL`` and raises `DomainError` otherwise.
    A stack derived from factors that are already validated is held by
    `Channel._derived`, which checks nothing.
    """

    def __init__(self, kraus: Sequence[np.ndarray] | np.ndarray):
        self._hold(kraus)
        dev = self.trace_preservation_defect()
        if not dev <= CHANNEL_TOL:  # also rejects a nan defect
            raise DomainError(f"Kraus sum deviates from trace preservation by {dev:.3e}")

    @classmethod
    def _derived(cls, kraus: Sequence[np.ndarray] | np.ndarray) -> "Channel":
        """The stack as a channel, unchecked: for stacks the library derives
        from validated factors, each caller stating why no check is needed."""
        t = cls.__new__(cls)
        t._hold(kraus)
        return t

    def _hold(self, kraus) -> None:
        try:
            ks = np.asarray(kraus, dtype=complex)
        except ValueError as exc:  # a ragged list has no stack
            raise DimensionError("Kraus operators have mixed shapes") from exc
        if ks.ndim != 3 or not ks.shape[0]:
            raise DimensionError(f"expected a non-empty (r, d_out, d_in) Kraus stack, "
                                 f"got shape {ks.shape}")
        self.kraus = ks
        self.d_out, self.d_in = ks.shape[1:]
        self._choi = None

    # -- basic queries ------------------------------------------------------

    def trace_preservation_defect(self) -> float:
        """``||sum_k K_k^dag K_k - 1||_max``, summed over row chunks of the
        stack so that no conjugated copy of the whole stack is formed."""
        flat = self.kraus.reshape(-1, self.d_in)
        step = max(1, CHUNK_BYTES // (flat.itemsize * max(1, self.d_in)))
        gram = -np.eye(self.d_in, dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf or nan defect
            for start in range(0, len(flat), step):
                rows = flat[start:start + step]
                gram += rows.conj().T @ rows
            return max_norm(gram)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = as_square(rho)
        if rho.shape[0] != self.d_in:
            raise DimensionError(f"state dim {rho.shape[0]} != channel input dim {self.d_in}")
        return (self.kraus @ rho @ self.kraus.conj().swapaxes(-1, -2)).sum(axis=0)

    def choi(self) -> np.ndarray:
        """Unnormalized Choi matrix, output factor first."""
        if self._choi is None:
            v = self.kraus.reshape(len(self.kraus), -1)  # rows vec(K) = sum_i (K e_i) (x) e_i
            self._choi = v.T @ v.conj()
        return self._choi

    def __repr__(self):
        return f"Channel(d_in={self.d_in}, d_out={self.d_out}, kraus={len(self.kraus)})"

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_unitary(cls, u: np.ndarray) -> "Channel":
        """The channel ``U . U^dag``. `require_unitary` bounds
        ``||U^dag U - 1||_max``, this stack's trace-preservation defect, by
        ``STRUCT_TOL``, below ``CHANNEL_TOL``."""
        return cls._derived([require_unitary(u)])


def _compressed(ks: np.ndarray) -> np.ndarray:
    """Kraus stack ``(r, d_out, d_in)`` cut to at most d_out d_in operators:
    a thin QR V^dag = Q R gives J = R^dag R, so conj(R) holds Kraus rows."""
    r, d_out, d_in = ks.shape
    if r <= d_out * d_in:
        return ks
    return np.linalg.qr(ks.reshape(r, -1).conj(), mode="r").conj().reshape(-1, d_out, d_in)


# ---------------------------------------------------------------------------
# covariance testing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CovarianceReport:
    """``conclusive`` is false when the channel is not covariant only by
    defects that rounding of the generators could produce (see `is_covariant`)."""
    covariant: bool
    worst_violation: float
    conclusive: bool = True

    @property
    def outcome(self) -> str:
        """``"passed"`` if covariant, ``"failed"`` if refuted, else ``"inconclusive"``."""
        return "passed" if self.covariant else "failed" if self.conclusive else "inconclusive"

    def to_json(self) -> dict:
        return asdict(self)


def _folded_r(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocks [A | B] of the R factor of a thin QR of [vec(first) | vec(second)];
    Q is an isometry, so ``A B^dag`` keeps the Frobenius norm of ``first second^dag``."""
    r = len(first)
    rf = np.linalg.qr(np.concatenate([first, second]).reshape(2 * r, -1).T, mode="r")
    return rf[:, :r], rf[:, r:]


def is_covariant(t: Channel, rep_in, rep_out, tol: float = STRUCT_TOL) -> CovarianceReport:
    """Test covariance on the Choi matrix J = V V^dag without forming J.

    The defect is the largest ``||[J, W_out(g) (x) conj(W_in(g))]||_F`` over
    group elements g, zero iff ``T[W_in(g) . W_in(g)^dag] = W_out(g) T[.] W_out(g)^dag``,
    or, for generator lists, the largest ``||[J, X' (x) 1 - 1 (x) X^T]||_F``
    divided by ``generator_scale(X, X')``, zero iff ``T[[X, .]] = [X', T[.]]``;
    so the generator defect does not grow with the scale of the generators.
    Before that division it equals the Frobenius norm of the superoperator
    commutator (realignment moves entries), so it is never below that
    commutator's max-norm. Memory is O(d_in d_out r), r <= d_in d_out.

    The generators' entries carry rounding of a few ulps of their largest,
    which moves the commutator by up to ``4 d eps max(||X||_max, ||X'||_max) Tr J``
    (d the larger dimension); at a scale where the spread of a nearly scalar
    generator is that rounding, a defect above ``tol`` but within this bound
    refutes nothing, and the report is not conclusive.
    """
    ks = _compressed(t.kraus)
    worst, refuted = 0.0, False
    if isinstance(rep_in, FiniteGroupRep) or isinstance(rep_out, FiniteGroupRep):
        if not (isinstance(rep_in, FiniteGroupRep) and isinstance(rep_out, FiniteGroupRep)):
            raise DomainError("mixed finite/Lie representation pair")
        require_same_group(rep_in, rep_out)
        if rep_in.dim != t.d_in or rep_out.dim != t.d_out:
            raise DimensionError("representation dims do not match channel dims")
        for w_in, w_out in zip(rep_in.images, rep_out.images):
            # U J U^dag - J = [UV | V] diag(1, -1) [UV | V]^dag, U unitary
            a, b = _folded_r(w_out @ ks @ w_in.conj().T, ks)
            worst = max(worst, float(np.linalg.norm(a @ a.conj().T - b @ b.conj().T)))
        refuted = worst > tol
    else:
        gens_in = [require_hermitian(g) for g in rep_in]
        gens_out = [require_hermitian(g) for g in rep_out]
        if len(gens_in) != len(gens_out):
            raise DimensionError("generator count mismatch between input and output")
        for x_in, x_out in zip(gens_in, gens_out):
            if x_in.shape[0] != t.d_in or x_out.shape[0] != t.d_out:
                raise DimensionError("generator dims do not match channel dims")
            # the defect is linear in the generators: scaled first, no product overflows
            scale = generator_scale(x_in, x_out)
            x_in, x_out = x_in / scale, x_out / scale
            # [G, J] = (GV) V^dag - V (GV)^dag, G Hermitian
            a, b = _folded_r(x_out @ ks - ks @ x_in, ks)
            m = a @ b.conj().T
            defect = float(np.linalg.norm(m - m.conj().T))
            rounding = float(4 * max(t.d_in, t.d_out) * np.finfo(float).eps * np.vdot(ks, ks).real
                             * max(max_norm(x_in), max_norm(x_out)))
            worst = max(worst, defect)
            refuted |= defect > max(tol, rounding)
    return CovarianceReport(covariant=worst <= tol, worst_violation=worst,
                            conclusive=worst <= tol or refuted)


# ---------------------------------------------------------------------------
# duals, induced and environment channels
# ---------------------------------------------------------------------------

def hs_dual(t: Channel) -> Channel:
    """Hilbert-Schmidt adjoint, Tr[A T[B]] = Tr[T*[A] B].

    The result is claimed completely positive (and unital) only, so it is
    held unchecked: the dual of a channel that is not unital is not trace
    preserving.
    """
    return Channel._derived(t.kraus.conj().swapaxes(-1, -2))


def induced_channel(t: Channel, sigma_c: np.ndarray, d_s: int, d_c: int) -> Channel:
    """Reduced dynamics on S of a channel on SC with a fixed C input.

    ``rho -> Tr_C[T[rho (x) sigma_C]]``, assembled in Kraus form from an
    eigendecomposition of sigma_C.
    """
    if t.d_in != d_s * d_c or t.d_out != d_s * d_c:
        raise DimensionError("channel does not act on the declared S (x) C split")
    sigma_c = require_density(sigma_c)
    if sigma_c.shape[0] != d_c:
        raise DimensionError(f"sigma_C dim {sigma_c.shape[0]} != d_C {d_c}")
    amps = support_factor(sigma_c)
    # sqrt(w_k) (1_S (x) <l|) K (1_S (x) |v_k>) at [K, a, l, b, k]
    ks = (t.kraus.reshape(-1, d_c) @ amps).reshape(-1, d_s, d_c, d_s, amps.shape[1])
    return Channel(ks.transpose(0, 4, 2, 1, 3).reshape(-1, d_s, d_s))  # index (K, k, l)


def env_channel(u: np.ndarray, rho_s: np.ndarray, d_s: int, d_c: int) -> Channel:
    """Complementary-direction channel on C of a unitary on SC.

    ``sigma -> Tr_S[U (rho_S (x) sigma) U^dag]``. Linear in rho_S. This is
    `induced_channel` of U with its legs swapped, so the Kraus operators are
    ``sqrt(w_k) (<l|_S (x) 1) U (|r_k>_S (x) 1)`` over the eigenpairs
    (w_k, r_k) of rho_S, k outer and l inner.
    """
    if np.shape(u) != (d_s * d_c, d_s * d_c):
        raise DimensionError("unitary does not act on the declared S (x) C split")
    swapped = np.reshape(u, (d_s, d_c, d_s, d_c)).transpose(1, 0, 3, 2).reshape(d_s * d_c, -1)
    return induced_channel(Channel.from_unitary(swapped), rho_s, d_c, d_s)


"""Dense complex linear algebra core.

Everything in this package runs on plain numpy arrays at desk scale
(dimensions up to a few hundred; the covariance check and the recovery
pipeline reach d = 512). Hermitian eigendecomposition is the single
spectral primitive: matrix functions, fractional powers, state metrics and
entropies all route through `numpy.linalg.eigh`. All comparisons are
tolerance-parameterized; nothing uses exact floating equality.

Conventions
-----------
* Tensor products use the numpy Kronecker convention: the first factor owns
  the slow (outer) indices.
* ``||M||_max`` denotes the entrywise maximum absolute value.
* Fractional powers of positive semi-definite matrices use the 0**s = 0
  convention for every real s, including s = 0. The zeroth power of a
  singular PSD matrix is therefore its support projector, not the identity.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

# Structural tolerance used for type-invariant checks (hermiticity,
# unitarity, trace normalization). End-to-end pipelines use looser values.
STRUCT_TOL = 1e-10

# Relative eigenvalue cutoff below which a PSD spectrum entry counts as zero.
ZERO_EIG_RTOL = 1e-12

# Relative eigenvalue cutoff of `psd_rank`.
RANK_RTOL = 1e-10

# Absolute eigenvalue cutoff of the support of a density matrix that is split
# into Kraus operators or purified on a copy of its support.
SUPPORT_TOL = 1e-14

# Bytes of temporaries that one chunk of a batched loop (sampled trace
# distances, Kraus sums) may hold; the loops run over chunks of their stack.
CHUNK_BYTES = 2**20


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class DomainError(ValueError):
    """Input violates a mathematical precondition (e.g. not PSD)."""


# ---------------------------------------------------------------------------
# validation helpers
# ---------------------------------------------------------------------------

def as_square(a: np.ndarray) -> np.ndarray:
    """Coerce to a square complex matrix with finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise DomainError("matrix has non-finite entries")
    return m


def max_norm(a: np.ndarray) -> float:
    """Entrywise maximum absolute value."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def require_hermitian(a: np.ndarray, tol: float = STRUCT_TOL) -> np.ndarray:
    """Symmetrised copy ``m/2 + m^dag/2`` of a matrix with
    ``||m - m^dag||_max <= tol * max(1, ||m||_max)``."""
    return _hermitian_part(as_square(a), tol)


def _hermitian_part(m: np.ndarray, tol: float) -> np.ndarray:
    """`require_hermitian` on a finite square matrix or on each matrix of a
    stack ``(n, d, d)``.

    The scaled test runs on ``m / 2``, where no finite entry overflows; it is
    reached only when some deviation exceeds ``tol``.
    """
    adj = np.conjugate(m).swapaxes(-1, -2)  # a fresh array, also for real m
    with np.errstate(over="ignore"):  # an infinite dev goes on to the scaled test
        dev = float(np.abs(m - adj).max(initial=0.0))
    if dev > tol:
        scale = np.maximum(0.5, np.abs(m / 2).max(axis=(-2, -1), initial=0.0))
        if np.any(np.abs(m / 2 - adj / 2).max(axis=(-2, -1), initial=0.0) > tol * scale):
            raise DomainError(f"matrix is not Hermitian within {tol} (deviation {dev:.3e})")
    out = m / 2
    adj /= 2
    out += adj
    return out


def require_unitary(a: np.ndarray) -> np.ndarray:
    m = as_square(a)
    with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf or nan dev
        dev = max_norm(m.conj().T @ m - np.eye(m.shape[0]))
    if not dev <= STRUCT_TOL:  # also rejects a nan dev
        raise DomainError(f"matrix is not unitary within {STRUCT_TOL} (deviation {dev:.3e})")
    return m


def require_density(a: np.ndarray) -> np.ndarray:
    m = require_hermitian(a)
    ev = np.linalg.eigvalsh(m)
    if ev[0] < -STRUCT_TOL:
        raise DomainError(f"density matrix has eigenvalue {ev[0]:.3e} below -{STRUCT_TOL}")
    tr = float(np.trace(m).real)
    if abs(tr - 1.0) > STRUCT_TOL:
        raise DomainError(f"density matrix trace {tr} deviates from 1 beyond {STRUCT_TOL}")
    return m


# ---------------------------------------------------------------------------
# tensor-product plumbing
# ---------------------------------------------------------------------------

def tensor(*ops: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators (first factor outermost)."""
    if not ops:
        raise ValueError("tensor() needs at least one operator")
    out = as_square(ops[0])
    for op in ops[1:]:
        out = np.kron(out, as_square(op))
    return out


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``dims`` lists the factor dimensions in tensor order; their product must
    equal the matrix dimension. Kept factors stay in their original relative
    order. Keeping nothing yields the 1x1 matrix [trace].
    """
    m = as_square(m)
    dims = [int(d) for d in dims]
    if any(d <= 0 for d in dims):
        raise DimensionError(f"factor dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != m.shape[0]:
        raise DimensionError(
            f"product of dims {dims} is {int(np.prod(dims))}, matrix has dim {m.shape[0]}")
    keep = sorted(set(int(k) for k in keep))
    if keep and (keep[0] < 0 or keep[-1] >= len(dims)):
        raise DimensionError(f"keep indices {keep} out of range for {len(dims)} factors")
    t = m.reshape(*dims, *dims)
    n_row = len(dims)
    for idx in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + n_row)
        n_row -= 1
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def permute_factors(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors: factor ``perm[i]`` of the input becomes factor i."""
    m = as_square(m)
    dims = [int(d) for d in dims]
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(len(dims))):
        raise DimensionError(f"{perm} is not a permutation of {len(dims)} factors")
    if int(np.prod(dims)) != m.shape[0]:
        raise DimensionError("dims do not match matrix size")
    n = len(dims)
    t = m.reshape(*dims, *dims)
    t = t.transpose(perm + [n + p for p in perm])
    return t.reshape(m.shape)


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def func_calc(a: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function eigenvalue-wise in the eigenbasis of a Hermitian matrix."""
    m = require_hermitian(a)
    w, v = np.linalg.eigh(m)
    fw = np.asarray(f(w), dtype=float)
    return (v * fw) @ v.conj().T


def hermitian_power(a: np.ndarray, s: float) -> np.ndarray:
    """Real power of a PSD matrix with the 0**s = 0 convention.

    Eigenvalues in [-STRUCT_TOL, 0) are treated as round-off and clamped to
    zero; anything more negative raises ``DomainError``. Eigenvalues at or
    below ``ZERO_EIG_RTOL * max_eigenvalue`` count as zero and are mapped to zero
    for every exponent, so ``s = 0`` yields the support projector of a
    singular input (and the identity for a full-rank one).
    """
    m = require_hermitian(a)
    w, v = np.linalg.eigh(m)
    if w.size and w[0] < -STRUCT_TOL:
        raise DomainError(f"eigenvalue {w[0]:.3e} below -{STRUCT_TOL}: input not PSD")
    w = np.maximum(w, 0.0)
    cutoff = ZERO_EIG_RTOL * (w[-1] if w.size and w[-1] > 0 else 1.0)
    zero = w <= cutoff
    with np.errstate(divide="ignore"):
        pw = np.where(zero, 0.0, w ** float(s))
    return (v * pw) @ v.conj().T


def support_projector(a: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the range of a PSD matrix."""
    return hermitian_power(a, 0.0)


def support_factor(rho: np.ndarray) -> np.ndarray:
    """Columns ``sqrt(p_i) v_i`` over the eigenpairs of a validated density
    matrix with ``p_i > SUPPORT_TOL``: a ``(d, rank)`` factor A with A A^dag = rho."""
    w, v = np.linalg.eigh(rho)
    keep = w > SUPPORT_TOL
    return v[:, keep] * np.sqrt(w[keep])


def psd_rank(a: np.ndarray) -> int:
    """Rank of a PSD matrix, counting eigenvalues above RANK_RTOL * max eigenvalue."""
    w = np.linalg.eigvalsh(require_hermitian(a))
    top = w[-1] if w.size else 0.0
    if top <= 0.0:
        return 0
    return int(np.sum(w > RANK_RTOL * top))


# ---------------------------------------------------------------------------
# state metrics
# ---------------------------------------------------------------------------

def trace_norm(a: np.ndarray) -> float:
    """Trace norm of a Hermitian matrix (sum of absolute eigenvalues)."""
    return float(np.abs(np.linalg.eigvalsh(require_hermitian(a))).sum())


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of the difference of two states."""
    return float(trace_distances(as_square(rho)[None], sigma)[0])


def trace_distances(states: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """`trace_distance` from each state of a stack ``(n, d, d)`` to ``sigma``.

    One batched ``eigvalsh`` of the stacked differences, each of which must
    pass the finite and Hermitian checks of `require_hermitian`. The stack is
    one temporary of the size of ``states``; callers bound it by chunking.
    """
    sigma = as_square(sigma)
    states = np.asarray(states, dtype=complex)
    if states.ndim != 3 or states.shape[1:] != sigma.shape:
        raise DimensionError(f"expected a stack of {sigma.shape} states, got shape {states.shape}")
    diff = states - sigma
    if not np.all(np.isfinite(diff)):
        raise DomainError("matrix has non-finite entries")
    return 0.5 * np.abs(np.linalg.eigvalsh(_hermitian_part(diff, STRUCT_TOL))).sum(axis=-1)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ||sqrt(rho) sqrt(sigma)||_1, in [0, 1].

    Computed from the singular values of the product of the two PSD square
    roots, which avoids amplifying eigenvalue round-off through a square
    root (equals Tr sqrt(sqrt(rho) sigma sqrt(rho)) analytically).
    """
    rho, sigma = as_square(rho), as_square(sigma)
    if rho.shape != sigma.shape:
        raise DimensionError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    prod = hermitian_power(rho, 0.5) @ hermitian_power(sigma, 0.5)
    return float(np.linalg.svd(prod, compute_uv=False).sum())


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(p ln p) in nats, with 0 ln 0 = 0."""
    w = np.linalg.eigvalsh(require_hermitian(rho))
    w = np.maximum(w, 0.0)
    nz = w[w > 0.0]
    return float(-(nz * np.log(nz)).sum())


# ---------------------------------------------------------------------------
# seeded random objects (used by generators and solvers, always explicit rng)
# ---------------------------------------------------------------------------

def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_pure_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state as a rank-one density matrix."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random mixed state (normalized Ginibre square)."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(d: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2

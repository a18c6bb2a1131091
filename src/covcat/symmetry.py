"""Group-symmetry layer.

Two kinds of symmetry data appear throughout the package:

* Lie-type symmetries, handled operationally as a finite list of Hermitian
  generators per system, passed as plain sequences. Covariance and
  symmetric-state checks then reduce to finitely many commutator conditions,
  which is exact.
* Finite groups, supplied as multiplication tables together with a unitary
  image per element. Only genuine (non-projective) representations are
  accepted; cocycle phases raise an error instead of guessing a convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    DimensionError,
    DomainError,
    STRUCT_TOL,
    as_square,
    func_calc,
    max_norm,
    require_density,
    require_hermitian,
    require_unitary,
    tensor,
    trace_distance,
)


def is_symmetric_state(rho: np.ndarray, symmetry, tol: float = STRUCT_TOL) -> tuple[bool, float]:
    """Whether a state commutes with every generator (or every group image).

    ``symmetry`` is either a list of Hermitian generators or a
    :class:`FiniteGroupRep`. Returns (verdict, worst commutator max-norm).
    """
    rho = as_square(rho)
    if isinstance(symmetry, FiniteGroupRep):
        ops = symmetry.images
    else:
        ops = [as_square(g) for g in symmetry]
    worst = 0.0
    for op in ops:
        if op.shape != rho.shape:
            raise DimensionError(f"operator dim {op.shape[0]} != state dim {rho.shape[0]}")
        worst = max(worst, max_norm(rho @ op - op @ rho))
    return worst <= tol, worst


def conservation_residuals(u: np.ndarray, legs_in: Sequence[Sequence[np.ndarray]],
                           legs_out: Sequence[Sequence[np.ndarray]] | None = None) -> list[float]:
    """``||U X_i - Y_i U||_max`` for every conserved quantity i.

    ``legs_in`` holds one generator list per tensor leg of U, in leg order;
    ``X_i = sum_leg 1 (x) ... (x) x_leg[i] (x) ... (x) 1``, and ``Y_i`` is
    built the same way from ``legs_out`` (default: ``legs_in``). Raises
    ``DimensionError`` when the legs hold different numbers of generators or
    their dimensions do not multiply to U's.
    """
    legs_out = legs_in if legs_out is None else legs_out
    if len({len(leg) for leg in [*legs_in, *legs_out]}) > 1:
        raise DimensionError("legs hold different numbers of generators")

    def total(gens):
        dims = [g.shape[0] for g in gens]
        if int(np.prod(dims)) != u.shape[0]:
            raise DimensionError(f"generator dims {dims} do not split the dimension {u.shape[0]}")
        return sum(tensor(*[g if j == leg else np.eye(d) for j, d in enumerate(dims)])
                   for leg, g in enumerate(gens))

    totals_in = [total(gens) for gens in zip(*legs_in)]
    totals_out = totals_in if legs_out is legs_in else [total(gens) for gens in zip(*legs_out)]
    return [max_norm(u @ x - y @ u) for x, y in zip(totals_in, totals_out)]


# ---------------------------------------------------------------------------
# Gibbs objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GibbsOperator:
    """Unnormalized exp(-X) of a conserved-quantity generator; strictly positive."""

    matrix: np.ndarray
    source: np.ndarray

    def __post_init__(self):
        w = np.linalg.eigvalsh(self.matrix)
        if w[0] <= 1e-12:
            raise DomainError(f"Gibbs operator has eigenvalue {w[0]:.3e} <= 1e-12")


def gibbs_operator(x: np.ndarray) -> GibbsOperator:
    """exp(-X) for a Hermitian generator X, without normalization."""
    x = require_hermitian(x)
    return GibbsOperator(matrix=func_calc(x, lambda w: np.exp(-w)), source=x)


def gibbs_state(h: np.ndarray, beta: float) -> np.ndarray:
    """Thermal state exp(-beta H) / Z."""
    h = require_hermitian(h)
    m = func_calc(h, lambda w: np.exp(-beta * (w - w.min())))
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# finite groups and their representations
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Finite group given by its multiplication table ``table[x, y] = x*y``.

    The constructor validates the Latin-square property, associativity,
    and identity/inverse consistency.
    """

    def __init__(self, table: np.ndarray, labels: tuple[str, ...] | None = None):
        table = np.asarray(table, dtype=int)
        n = table.shape[0]
        if table.shape != (n, n):
            raise DimensionError(f"multiplication table must be square, got {table.shape}")
        if table.min() < 0 or table.max() >= n:
            raise DomainError("table entries must be element indices in [0, order)")
        for i in range(n):
            if len(set(table[i, :])) != n or len(set(table[:, i])) != n:
                raise DomainError(f"multiplication table is not a Latin square at index {i}")
        identity = None
        for e in range(n):
            if np.array_equal(table[e, :], np.arange(n)) and np.array_equal(table[:, e], np.arange(n)):
                identity = e
                break
        if identity is None:
            raise DomainError("multiplication table has no identity element")
        for x in range(n):
            # (x*y)*z against x*(y*z) for every y, z at once, O(n^2) memory
            bad = np.argwhere(table[table[x]] != table[x][table])
            if bad.size:
                y, z = bad[0]
                raise DomainError(f"multiplication table is not associative at ({x},{y},{z})")
        inverse = np.full(n, -1, dtype=int)
        for x in range(n):
            hits = np.where(table[x, :] == identity)[0]
            if len(hits) != 1 or table[hits[0], x] != identity:
                raise DomainError(f"element {x} has no two-sided inverse")
            inverse[x] = hits[0]
        self.table = table
        self.order = n
        self.identity = identity
        self.inverse = inverse
        self.labels = labels

    def mul(self, x: int, y: int) -> int:
        return int(self.table[x, y])

    def inv(self, x: int) -> int:
        return int(self.inverse[x])

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        idx = np.arange(n)
        return cls((idx[:, None] + idx[None, :]) % n,
                   labels=tuple(str(k) for k in range(n)))

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """Symmetric group S_n on n points (order n!)."""
        perms = list(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        order = len(perms)
        table = np.zeros((order, order), dtype=int)
        for i, p in enumerate(perms):
            for j, q in enumerate(perms):
                table[i, j] = index[tuple(p[q[k]] for k in range(n))]
        return cls(table, labels=tuple("".join(map(str, p)) for p in perms))


class FiniteGroupRep:
    """Unitary representation of a finite group: one image per element.

    Projective representations are rejected: if the images only satisfy the
    homomorphism law up to a phase, the constructor raises instead of picking
    a cocycle convention.
    """

    def __init__(self, group: FiniteGroup, images: Sequence[np.ndarray]):
        if len(images) != group.order:
            raise DimensionError(f"{len(images)} images for group of order {group.order}")
        images = tuple(require_unitary(w) for w in images)
        d = images[0].shape[0]
        if any(w.shape[0] != d for w in images):
            raise DimensionError("representation images have mixed dimensions")
        stack = np.array(images)
        for x in range(group.order):
            # W(x) W(y) against W(x*y) for every y at once, O(n d^2) memory
            lhs_row = images[x] @ stack
            bad = np.flatnonzero(np.abs(lhs_row - stack[group.table[x]]).max(axis=(1, 2))
                                 > STRUCT_TOL)
            if bad.size:
                y = int(bad[0])
                lhs, rhs = lhs_row[y], stack[group.table[x, y]]
                phase = np.trace(rhs.conj().T @ lhs) / d
                if abs(abs(phase) - 1.0) < 1e-6 and max_norm(lhs - phase * rhs) < STRUCT_TOL:
                    raise DomainError(
                        f"images form a projective representation (cocycle phase at "
                        f"({x},{y})); projective finite-group representations are unsupported")
                raise DomainError(f"images violate the homomorphism law at ({x},{y})")
        self.group = group
        self.images = images
        self.dim = d

    def __repr__(self):
        return f"FiniteGroupRep(order={self.group.order}, dim={self.dim})"


def left_regular_representation(group: FiniteGroup) -> FiniteGroupRep:
    """Permutation representation of a group on itself, W(x)|y> = |xy>."""
    n = group.order
    images = []
    for x in range(n):
        w = np.zeros((n, n), dtype=complex)
        for y in range(n):
            w[group.mul(x, y), y] = 1.0
        images.append(w)
    return FiniteGroupRep(group, images)


def standard_representation(n: int) -> FiniteGroupRep:
    """``FiniteGroup.symmetric(n)`` on the plane orthogonal to (1, ..., 1), which
    every permutation matrix leaves invariant (an exact homomorphism)."""
    ones = np.ones((n, 1)) / np.sqrt(n)
    q, _ = np.linalg.qr(np.concatenate([ones, np.eye(n)[:, :n - 1]], axis=1))
    plane = q[:, 1:]
    images = [(plane.T @ np.eye(n)[:, list(p)] @ plane).astype(complex)
              for p in itertools.permutations(range(n))]
    return FiniteGroupRep(FiniteGroup.symmetric(n), images)


def trivial_rep(group: FiniteGroup, dim: int = 1) -> FiniteGroupRep:
    return FiniteGroupRep(group, [np.eye(dim, dtype=complex)] * group.order)


def tensor_rep(a: FiniteGroupRep, b: FiniteGroupRep) -> FiniteGroupRep:
    if a.group is not b.group and not np.array_equal(a.group.table, b.group.table):
        raise DomainError("tensor_rep requires representations of the same group")
    return FiniteGroupRep(a.group, [tensor(wa, wb) for wa, wb in zip(a.images, b.images)])


# ---------------------------------------------------------------------------
# asymmetry profiles
# ---------------------------------------------------------------------------

def asymmetry_profile(rho: np.ndarray, rep, params: Sequence[float] | None = None) -> np.ndarray:
    """Trace distance between a state and its rotated copies.

    With a :class:`FiniteGroupRep`, returns one value per group element,
    ``D(W(g) rho W(g)^dag, rho)``. With a Hermitian generator and a list of
    parameters t, returns the profile along ``exp(-i t X)``. A symmetric
    state gives the all-zero profile; a perfect frame state sits at 1 away
    from the identity.
    """
    rho = require_density(rho)
    if isinstance(rep, FiniteGroupRep):
        if params is not None:
            raise ValueError("params only apply to one-parameter families")
        return np.array([trace_distance(w @ rho @ w.conj().T, rho) for w in rep.images])
    generator = require_hermitian(rep)
    if params is None:
        raise ValueError("a one-parameter family needs explicit parameter values")
    w, v = np.linalg.eigh(generator)
    out = []
    for t in params:
        u = (v * np.exp(-1j * t * w)) @ v.conj().T
        out.append(trace_distance(u @ rho @ u.conj().T, rho))
    return np.array(out)

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
from typing import Sequence

import numpy as np

from .linalg import (
    DimensionError,
    DomainError,
    STRUCT_TOL,
    as_square,
    max_norm,
    require_unitary,
    tensor,
)


def is_symmetric_state(rho: np.ndarray, generators: Sequence[np.ndarray],
                       tol: float = STRUCT_TOL) -> tuple[bool, float]:
    """Whether a state commutes with every Hermitian generator.

    Returns (verdict, worst commutator max-norm).
    """
    rho = as_square(rho)
    worst = 0.0
    for op in map(as_square, generators):
        if op.shape != rho.shape:
            raise DimensionError(f"operator dim {op.shape[0]} != state dim {rho.shape[0]}")
        worst = max(worst, max_norm(rho @ op - op @ rho))
    return worst <= tol, worst


def conservation_residuals(u: np.ndarray, legs_in: Sequence[Sequence[np.ndarray]],
                           legs_out: Sequence[Sequence[np.ndarray]] | None = None) -> list[float]:
    """``||U X_i - Y_i U||_max / max(1, ||X_i - t 1||_max, ||Y_i - t 1||_max)``
    with ``t = tr(X_i) / d`` for every conserved quantity i, so the residual
    does not grow with the scale of X_i. Shifting X_i and Y_i by the same
    ``t 1`` leaves ``U X_i - Y_i U`` unchanged, so an identity offset in the
    generators changes neither the residual nor its denominator; the shift is
    taken leg by leg, before the legs are summed, so the offset adds no
    rounding error either.

    ``legs_in`` holds one generator list per tensor leg of U, in leg order;
    ``X_i = sum_leg 1 (x) ... (x) x_leg[i] (x) ... (x) 1``, and ``Y_i`` is
    built the same way from ``legs_out`` (default: ``legs_in``). Raises
    ``DimensionError`` when the legs hold different numbers of generators or
    their dimensions do not multiply to U's.
    """
    legs_out = legs_in if legs_out is None else legs_out
    if len({len(leg) for leg in [*legs_in, *legs_out]}) > 1:
        raise DimensionError("legs hold different numbers of generators")

    def total(gens, centres):
        dims = [g.shape[0] for g in gens]
        if int(np.prod(dims)) != u.shape[0]:
            raise DimensionError(f"generator dims {dims} do not split the dimension {u.shape[0]}")
        return sum(tensor(*[g - t * np.eye(d) if j == leg else np.eye(d)
                            for j, d in enumerate(dims)])
                   for leg, (g, t) in enumerate(zip(gens, centres)))

    residuals = []
    for gens_in, gens_out in zip(zip(*legs_in), zip(*legs_out)):
        centres = [np.trace(g).real / g.shape[0] for g in gens_in]
        x = total(gens_in, centres)
        y = x if legs_out is legs_in else total(gens_out, centres)
        residuals.append(max_norm(u @ x - y @ u) / max(1.0, max_norm(x), max_norm(y)))
    return residuals


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


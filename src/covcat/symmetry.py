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
    tensor,
)


def is_symmetric_state(rho: np.ndarray, generators: Sequence[np.ndarray],
                       tol: float = STRUCT_TOL) -> tuple[bool, float]:
    """Whether a state commutes with every Hermitian generator.

    Returns (verdict, worst deviation), the deviation being the commutator
    max-norm ``||rho X - X rho||_max`` relative to the generator by the rule
    of `conservation_residuals`, so it does not grow with the scale of X.
    """
    worst = max(conservation_residuals(as_square(rho), [[as_square(g) for g in generators]]),
                default=0.0)
    return worst <= tol, worst


def generator_scale(x: np.ndarray, y: np.ndarray) -> float:
    """``max(1, ||X - t 1||_max, ||Y - t 1||_max)`` with ``t = tr(X) / d``: the
    scale of the pair (X, Y) by which a conservation defect ``U X - Y U`` is
    judged. Shifting X and Y by the same ``t 1`` leaves that defect unchanged,
    so an identity offset in the generators does not enter the scale."""
    t = np.trace(x).real / x.shape[0]
    return max(1.0, max_norm(x - t * np.eye(x.shape[0])), max_norm(y - t * np.eye(y.shape[0])))


def conservation_defects(u: np.ndarray, legs_in: Sequence[Sequence[np.ndarray]],
                         legs_out: Sequence[Sequence[np.ndarray]]):
    """Yield ``(U X_i - Y_i U, max(1, ||X_i - t 1||_max, ||Y_i - t 1||_max))``
    with ``t = tr(X_i) / d``, one conserved quantity i at a time: the defect
    and the scale by which it is judged. Shifting X_i and Y_i by the same
    ``t 1`` leaves ``U X_i - Y_i U`` unchanged, so an identity offset in the
    generators changes neither the defect nor its scale; the shift is taken
    leg by leg, before the legs are summed, so the offset adds no rounding
    error either.

    ``legs_in`` holds one generator list per tensor leg of U, in leg order;
    ``X_i = sum_leg 1 (x) ... (x) x_leg[i] (x) ... (x) 1``, and ``Y_i`` is
    built the same way from ``legs_out`` (it is ``X_i`` if ``legs_out`` is
    ``legs_in``). A leg of dimension 1 whose centred generator is 0, which it
    is unless ``legs_out`` moves it, is left out of the sum and the products.
    Raises ``DimensionError`` when the legs hold different numbers of
    generators or their dimensions do not multiply to U's.
    """
    if len({len(leg) for leg in [*legs_in, *legs_out]}) > 1:
        raise DimensionError("legs hold different numbers of generators")

    def total(gens, centres):
        dims = [g.shape[0] for g in gens]
        if int(np.prod(dims)) != u.shape[0]:
            raise DimensionError(f"generator dims {dims} do not split the dimension {u.shape[0]}")
        shifted = [g - t * np.eye(d) for g, t, d in zip(gens, centres, dims)]
        kept = [j for j, d in enumerate(dims) if d > 1 or shifted[j].any()]
        if not kept:
            return np.zeros(u.shape)
        return sum(tensor(*[shifted[j] if j == leg else np.eye(dims[j]) for j in kept])
                   for leg in kept)

    for gens_in, gens_out in zip(zip(*legs_in), zip(*legs_out)):
        centres = [np.trace(g).real / g.shape[0] for g in gens_in]
        x = total(gens_in, centres)
        y = x if legs_out is legs_in else total(gens_out, centres)
        yield u @ x - y @ u, max(1.0, max_norm(x), max_norm(y))


def conservation_residuals(u: np.ndarray, legs_in: Sequence[Sequence[np.ndarray]],
                           legs_out: Sequence[Sequence[np.ndarray]] | None = None) -> list[float]:
    """``||U X_i - Y_i U||_max`` over its scale for every quantity i of
    `conservation_defects`, with ``legs_out`` defaulting to ``legs_in``."""
    pairs = conservation_defects(u, legs_in, legs_in if legs_out is None else legs_out)
    return [max_norm(delta) / scale for delta, scale in pairs]


# ---------------------------------------------------------------------------
# finite groups and their representations
# ---------------------------------------------------------------------------

class FiniteGroup:
    """Finite group given by its multiplication table ``table[x, y] = x*y``.

    The constructor validates the Latin-square property and the identity,
    derives ``generators`` greedily (each is the first element that right
    products of the earlier ones, starting from the identity, do not reach)
    and checks associativity by Light's test at each generator a only:
    ``(x a) y`` against ``x (a y)`` for all x, y. The elements that pass are
    closed under the product and include the identity and the generators,
    which reach every element, so the test is exact. The inverses follow
    from these laws.
    """

    def __init__(self, table: np.ndarray, labels: tuple[str, ...] | None = None):
        table = np.asarray(table, dtype=int)
        n = table.shape[0]
        if table.shape != (n, n):
            raise DimensionError(f"multiplication table must be square, got {table.shape}")
        if table.min() < 0 or table.max() >= n:
            raise DomainError("table entries must be element indices in [0, order)")
        idx = np.arange(n)
        # seen[0, x, z]: row x holds z, seen[1, z, y]: column y holds z; all n seen = each once
        seen = np.zeros((2, n, n), dtype=bool)
        seen[0, idx[:, None], table] = seen[1, table, idx] = True
        latin = seen[0].all(1) & seen[1].all(0)
        if not latin.all():
            raise DomainError(f"multiplication table is not a Latin square at index "
                              f"{np.argmin(latin)}")
        neutral = (table == idx).all(1) & (table.T == idx).all(1)
        if not neutral.any():
            raise DomainError("multiplication table has no identity element")
        identity = int(np.argmax(neutral))
        generators = []
        reached = idx == identity
        while not reached.all():
            generators.append(int(np.argmin(reached)))
            while not reached[products := table[np.ix_(reached, generators)]].all():
                reached[products] = True
        for a in generators:
            # (x*a)*y against x*(a*y) for every x, y at once, O(n^2) memory
            bad = np.argwhere(table[table[:, a]] != table[:, table[a]])
            if bad.size:
                x, y = bad[0]
                raise DomainError(f"multiplication table is not associative at ({x},{a},{y})")
        # the laws above make a group, so row x holds the identity once, at x's inverse
        inverse = np.argmax(table == identity, axis=1)
        self.table = table
        self.order = n
        self.identity = identity
        self.inverse = inverse
        self.generators = tuple(generators)
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
        """Symmetric group S_n on n points (order n!), elements in lexicographic order."""
        perms = np.array(list(itertools.permutations(range(n))))
        products = np.take_along_axis(perms[:, None], perms[None], axis=2)  # p[q[k]], all p, q
        codes = n ** np.arange(n - 1, -1, -1)  # base-n codes rise in lexicographic order
        table = np.searchsorted(perms @ codes, products @ codes)
        return cls(table, labels=tuple("".join(map(str, p)) for p in perms))


class FiniteGroupRep:
    """Unitary representation of a finite group: one image per element.

    Every image is checked unitary at once, by the stacked ``W^dag W - 1``. The
    homomorphism law ``W(x) W(y) = W(x y)`` is checked for every y at the
    identity and at each of ``group.generators``. Projective representations
    are rejected: if the images only satisfy the homomorphism law up to a
    phase, the constructor raises instead of picking a cocycle convention.
    """

    def __init__(self, group: FiniteGroup, images: Sequence[np.ndarray]):
        if len(images) != group.order:
            raise DimensionError(f"{len(images)} images for group of order {group.order}")
        images = tuple(as_square(w) for w in images)
        d = images[0].shape[0]
        if any(w.shape[0] != d for w in images):
            raise DimensionError("representation images have mixed dimensions")
        stack = np.array(images)
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries give an inf or nan dev
            dev = np.abs(np.swapaxes(stack, 1, 2).conj() @ stack - np.eye(d)).max(axis=(1, 2))
        if not (dev <= STRUCT_TOL).all():  # also rejects a nan dev
            k = int(np.argmin(dev <= STRUCT_TOL))
            raise DomainError(f"image {k}: matrix is not unitary within {STRUCT_TOL} "
                              f"(deviation {dev[k]:.3e})")
        # the elements x that pass are closed under the product and reach the group
        for x in (group.identity, *group.generators):
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
    return FiniteGroupRep(group, np.eye(group.order)[:, group.table].transpose(1, 0, 2))


def standard_representation(n: int) -> FiniteGroupRep:
    """``FiniteGroup.symmetric(n)`` on the plane orthogonal to (1, ..., 1), which
    every permutation matrix leaves invariant (an exact homomorphism)."""
    ones = np.ones((n, 1)) / np.sqrt(n)
    q, _ = np.linalg.qr(np.concatenate([ones, np.eye(n)[:, :n - 1]], axis=1))
    plane = q[:, 1:]
    images = [(plane.T @ np.eye(n)[:, list(p)] @ plane).astype(complex)
              for p in itertools.permutations(range(n))]
    return FiniteGroupRep(FiniteGroup.symmetric(n), images)


def require_same_group(a: FiniteGroupRep, b: FiniteGroupRep) -> None:
    """Raise ``DomainError`` unless a and b represent the same group: the same
    object or an equal multiplication table."""
    if a.group is not b.group and not np.array_equal(a.group.table, b.group.table):
        raise DomainError(f"representations of different groups: the tables of order "
                          f"{a.group.order} and {b.group.order} differ")


def tensor_rep(a: FiniteGroupRep, b: FiniteGroupRep) -> FiniteGroupRep:
    require_same_group(a, b)
    return FiniteGroupRep(a.group, [tensor(wa, wb) for wa, wb in zip(a.images, b.images)])


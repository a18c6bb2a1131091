import itertools

import numpy as np
import pytest

from covcat import linalg as la
from covcat import symmetry as sym

from conftest import s3_standard_images

SZ = np.diag([1.0, -1.0]).astype(complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)


# ---------------------------------------------------------------------------
# symmetric states and Gibbs objects
# ---------------------------------------------------------------------------

def test_symmetric_state_checks(rng):
    ok, dev = sym.is_symmetric_state(np.eye(3) / 3, [la.random_hermitian(3, rng)])
    assert ok and dev < 1e-12
    plus = np.ones((2, 2)) / 2
    ok, dev = sym.is_symmetric_state(plus, [SZ])
    assert not ok and abs(dev - 1.0) < 1e-12


def test_gibbs_state_is_symmetric_for_own_hamiltonian(rng):
    h = la.random_hermitian(4, rng)
    state = sym.gibbs_state(h, 0.8)
    assert abs(np.trace(state).real - 1.0) < 1e-12
    ok, dev = sym.is_symmetric_state(state, [h])
    assert ok, dev
    # simultaneous diagonalization oracle: both diagonal in the eigenbasis of h
    _, v = np.linalg.eigh(h)
    off = v.conj().T @ state @ v
    assert la.max_norm(off - np.diag(np.diag(off))) < 1e-12


def test_gibbs_state_limits():
    h = la.random_hermitian(3, np.random.default_rng(0))
    np.testing.assert_allclose(sym.gibbs_state(h, 0.0), np.eye(3) / 3, atol=1e-12)
    beta, gap = 1.3, 0.9
    state = sym.gibbs_state(np.diag([0.0, gap]), beta)
    z = 1 + np.exp(-beta * gap)
    np.testing.assert_allclose(np.diag(state).real,
                               [1 / z, np.exp(-beta * gap) / z], atol=1e-12)


def test_gibbs_operator_inverse(rng):
    x = la.random_hermitian(4, rng)
    prod = sym.gibbs_operator(x).matrix @ sym.gibbs_operator(-x).matrix
    assert la.max_norm(prod - np.eye(4)) < 1e-10


# ---------------------------------------------------------------------------
# finite groups
# ---------------------------------------------------------------------------

def test_trivial_group_regular_rep():
    g = sym.FiniteGroup.cyclic(1)
    rep = sym.left_regular_representation(g)
    np.testing.assert_allclose(rep.images[0], np.eye(1), atol=0)


def test_z2_regular_rep_is_swap():
    rep = sym.left_regular_representation(sym.FiniteGroup.cyclic(2))
    np.testing.assert_allclose(rep.images[0], np.eye(2), atol=0)
    np.testing.assert_allclose(rep.images[1], SX, atol=0)


def test_s3_regular_rep_homomorphism():
    g = sym.FiniteGroup.symmetric(3)
    rep = sym.left_regular_representation(g)
    for x in range(6):
        w = rep.images[x]
        assert set(np.unique(np.abs(w))) <= {0.0, 1.0}
        np.testing.assert_allclose(w.sum(axis=0), np.ones(6), atol=0)
        np.testing.assert_allclose(w.sum(axis=1), np.ones(6), atol=0)
        for y in range(6):
            np.testing.assert_allclose(rep.images[x] @ rep.images[y],
                                       rep.images[g.mul(x, y)], atol=0)


def test_group_table_validation():
    with pytest.raises(la.DomainError):
        sym.FiniteGroup(np.array([[0, 0], [1, 1]]))  # not a Latin square
    # Latin square with identity that fails associativity needs order >= 5;
    # easier: valid tables pass, tampered entries out of range fail
    with pytest.raises(la.DomainError):
        sym.FiniteGroup(np.array([[0, 1], [1, 2]]))


def test_non_associative_table_names_first_failing_triple():
    # order-5 Latin square with identity 0 whose elements all square to 0:
    # no group of order 5 has that, so associativity must fail
    table = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                      [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    first = next((x, y, z) for x, y, z in itertools.product(range(5), repeat=3)
                 if table[table[x, y], z] != table[x, table[y, z]])
    expected = rf"not associative at \({first[0]},{first[1]},{first[2]}\)"
    with pytest.raises(la.DomainError, match=expected):
        sym.FiniteGroup(table)


def test_projective_rep_rejected():
    # order-4 group (Z2 x Z2) represented by Paulis is projective, not linear
    g = sym.FiniteGroup(np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]))
    pauli = [np.eye(2, dtype=complex), SX, 1j * SX @ SZ, SZ]
    with pytest.raises(la.DomainError, match="projective"):
        sym.FiniteGroupRep(g, pauli)


def _first_homomorphism_failure(table, images, tol=la.STRUCT_TOL):
    """Double-loop oracle: the first failing (x, y) in row-major order and
    whether it is a cocycle phase."""
    d = images[0].shape[0]
    for x, y in itertools.product(range(len(images)), repeat=2):
        lhs, rhs = images[x] @ images[y], images[table[x, y]]
        if la.max_norm(lhs - rhs) > tol:
            phase = np.trace(rhs.conj().T @ lhs) / d
            return x, y, abs(abs(phase) - 1.0) < 1e-6 and la.max_norm(lhs - phase * rhs) < tol
    return None


@pytest.mark.parametrize("corrupt", ["random", "sign"])
def test_corrupted_s5_image_reports_first_failing_pair(corrupt, rng):
    good = sym.standard_representation(5)
    images = list(good.images)
    k = 37
    images[k] = la.random_unitary(4, rng) if corrupt == "random" else -images[k]
    x, y, projective = _first_homomorphism_failure(good.group.table, images)
    assert projective == (corrupt == "sign")
    kind = "projective representation" if projective else "violate the homomorphism law"
    with pytest.raises(la.DomainError, match=rf"{kind}.* at \({x},{y}\)"):
        sym.FiniteGroupRep(good.group, images)


def test_s3_standard_rep_is_valid():
    g = sym.FiniteGroup.symmetric(3)
    rep = sym.FiniteGroupRep(g, s3_standard_images())
    assert rep.dim == 2


# ---------------------------------------------------------------------------
# asymmetry profiles
# ---------------------------------------------------------------------------

def test_profile_symmetric_state_is_zero(rng):
    g = sym.FiniteGroup.cyclic(3)
    rep = sym.left_regular_representation(g)
    prof = sym.asymmetry_profile(np.eye(3) / 3, rep)
    np.testing.assert_allclose(prof, 0.0, atol=1e-12)


def test_profile_regular_basis_state_is_perfect_frame():
    g = sym.FiniteGroup.cyclic(3)
    rep = sym.left_regular_representation(g)
    state = np.zeros((3, 3), dtype=complex)
    state[1, 1] = 1.0
    prof = sym.asymmetry_profile(state, rep)
    assert prof[g.identity] < 1e-12
    for x in range(3):
        if x != g.identity:
            assert abs(prof[x] - 1.0) < 1e-12


def test_profile_qubit_phase_rotation():
    plus = np.ones((2, 2)) / 2
    ts = np.linspace(0.0, 2 * np.pi, 17)
    prof = sym.asymmetry_profile(plus, SZ / 2, params=ts)
    np.testing.assert_allclose(prof, np.abs(np.sin(ts / 2)), atol=1e-10)
    assert prof[0] == 0.0

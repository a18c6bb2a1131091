import numpy as np
import pytest
import scipy.linalg

from covcat import linalg as la

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# tensor / partial trace
# ---------------------------------------------------------------------------

def test_tensor_identities():
    np.testing.assert_allclose(la.tensor(np.eye(2), np.eye(3)), np.eye(6), atol=0)
    np.testing.assert_allclose(la.tensor(np.diag([1., 2]), np.diag([3., 4])),
                               np.diag([3., 4, 6, 8]), atol=0)


def test_tensor_matches_index_formula():
    # oracle: (a (x) b)[(i,k),(j,l)] = a[i,j] b[k,l] with the first factor outer
    a, b = SX, SZ
    out = la.tensor(a, b)
    oracle = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    oracle[i * 2 + k, j * 2 + l] = a[i, j] * b[k, l]
    np.testing.assert_allclose(out, oracle, atol=0)


def test_partial_trace_product_states(rng):
    rho = la.random_density(2, rng)
    sig = la.random_density(3, rng)
    joint = la.tensor(rho, sig)
    np.testing.assert_allclose(la.partial_trace(joint, [2, 3], [0]), rho, atol=1e-12)
    np.testing.assert_allclose(la.partial_trace(joint, [2, 3], [1]), sig, atol=1e-12)
    total = la.partial_trace(joint, [2, 3], [])
    assert total.shape == (1, 1)
    assert abs(total[0, 0] - 1.0) < 1e-12


def test_partial_trace_preserves_trace(rng):
    m = la.random_hermitian(12, rng)
    reduced = la.partial_trace(m, [3, 4], [1])
    assert abs(np.trace(reduced) - np.trace(m)) < 1e-12


def test_partial_trace_unnormalized_factors(rng):
    # tracing out one factor leaves the other scaled by its trace
    a = la.random_hermitian(2, rng)
    b = la.random_hermitian(3, rng)
    np.testing.assert_allclose(la.partial_trace(la.tensor(a, b), [2, 3], [0]),
                               a * np.trace(b), atol=1e-12)


def test_partial_trace_bell_state():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    np.testing.assert_allclose(la.partial_trace(proj, [2, 2], [0]), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_dim_mismatch():
    with pytest.raises(la.DimensionError):
        la.partial_trace(np.eye(6), [2, 2], [0])


# ---------------------------------------------------------------------------
# functional calculus
# ---------------------------------------------------------------------------

def test_hermitian_power_simple():
    np.testing.assert_allclose(la.hermitian_power(np.diag([4.0, 9.0]), 0.5),
                               np.diag([2.0, 3.0]), atol=1e-12)


def test_zeroth_power_is_support_projector():
    # 0**0 = 0: the zeroth power of a singular PSD matrix is its support
    # projector, not the identity
    np.testing.assert_allclose(la.hermitian_power(np.diag([1.0, 0.0]), 0.0),
                               np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(la.hermitian_power(np.diag([2.0, 0.5]), 0.0),
                               np.eye(2), atol=1e-12)


def test_fractional_power_round_trip(rng):
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    a = g @ g.conj().T  # full rank PSD almost surely
    s = 0.37
    back = la.hermitian_power(la.hermitian_power(a, s), 1.0 / s)
    np.testing.assert_allclose(back, a, atol=1e-8)


def test_hermitian_power_rejects_negative():
    with pytest.raises(la.DomainError):
        la.hermitian_power(np.diag([1.0, -0.5]), 0.5)


def test_power_multiplicative_over_tensor(rng):
    # (a (x) b)^s = a^s (x) b^s, including singular factors under 0**0 = 0
    for s in (0.0, 0.5, 1.7, -1.0):
        ua, ub = la.random_unitary(3, rng), la.random_unitary(2, rng)
        a = ua @ np.diag([1.3, 0.4, 0.0]) @ ua.conj().T
        b = ub @ np.diag([2.0, 0.7]) @ ub.conj().T
        lhs = la.hermitian_power(la.tensor(a, b), s)
        rhs = la.tensor(la.hermitian_power(a, s), la.hermitian_power(b, s))
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_func_calc_exponentials(rng):
    np.testing.assert_allclose(la.func_calc(np.zeros((3, 3)), np.exp), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(la.func_calc(np.diag([0.0, np.log(2)]), lambda w: np.exp(-w)),
                               np.diag([1.0, 0.5]), atol=1e-14)
    x = la.random_hermitian(5, rng)
    ours = la.func_calc(x, lambda w: np.exp(-w))
    oracle = scipy.linalg.expm(-x)  # independent scaling-and-squaring route
    np.testing.assert_allclose(ours, oracle, atol=1e-11)


def test_psd_rank():
    assert la.psd_rank(np.diag([1.0, 0.5, 0.0])) == 2
    assert la.psd_rank(np.zeros((3, 3))) == 0
    assert la.psd_rank(np.eye(4)) == 4


def test_support_factor_of_rank_deficient_density(rng):
    g = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real  # rank 2 on dimension 5
    a = la.support_factor(rho)
    assert a.shape == (5, 2)
    assert la.max_norm(a @ a.conj().T - rho) <= 1e-14


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_trace_distance_basics(rng):
    rho = la.random_density(3, rng)
    assert la.trace_distance(rho, rho) < 1e-14
    e0, e1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    assert abs(la.trace_distance(e0, e1) - 1.0) < 1e-14


def test_trace_distance_eigenvalue_oracle(rng):
    for _ in range(20):
        rho, sig = la.random_density(2, rng), la.random_density(2, rng)
        oracle = 0.5 * np.abs(np.linalg.eigvalsh(rho - sig)).sum()
        assert abs(la.trace_distance(rho, sig) - oracle) < 1e-12


def test_trace_distances_match_per_state_loop(rng):
    # half the nuclear norm (singular values) of each difference, state by state
    sigma = la.random_density(4, rng)
    for rho in [la.random_density(4, rng) for _ in range(9)]:
        want = np.linalg.norm(rho - sigma, "nuc") / 2
        assert abs(la.trace_distance(rho, sigma) - want) <= 1e-14


def test_trace_distances_keep_the_hermitian_checks(rng):
    sigma = la.random_density(3, rng)
    rho = la.random_density(3, rng)
    nan = rho.copy()
    nan[0, 1] = np.nan
    with pytest.raises(la.DomainError, match="non-finite"):
        la.trace_distance(nan, sigma)
    # finite states whose difference overflows
    huge = np.diag([1e308, -1e308, 0.0])
    with pytest.raises(la.DomainError, match="non-finite"):
        la.trace_distance(huge, -huge)
    skew = rho.copy()
    skew[0, 1] += 1e-6
    with pytest.raises(la.DomainError, match="not Hermitian"):
        la.trace_distance(skew, sigma)
    # the test is relative to the largest entry, as in require_hermitian
    big = 1e8 * rho
    big[0, 1] += 1e-3
    assert np.isfinite(la.trace_distance(big, sigma))
    with pytest.raises(la.DimensionError):
        la.trace_distance(rho, np.eye(2) / 2)


def test_trace_distance_triangle(rng):
    a, b, c = (la.random_density(4, rng) for _ in range(3))
    assert la.trace_distance(a, c) <= la.trace_distance(a, b) + la.trace_distance(b, c) + 1e-12


def test_fidelity_basics(rng):
    rho = la.random_density(3, rng)
    assert abs(la.fidelity(rho, rho) - 1.0) < 1e-10
    pure0 = np.diag([1.0, 0.0])
    assert abs(la.fidelity(pure0, np.eye(2) / 2) - 1 / np.sqrt(2)) < 1e-12


def test_fidelity_pure_state_formula(rng):
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    psi = np.outer(v, v.conj())
    sigma = la.random_density(4, rng)
    assert abs(la.fidelity(psi, sigma) ** 2 - np.real(v.conj() @ sigma @ v)) < 1e-10


def test_fuchs_van_de_graaf(rng):
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, sig = la.random_density(d, rng), la.random_density(d, rng)
        f = la.fidelity(rho, sig)
        assert la.trace_distance(rho, sig) <= np.sqrt(1 - f * f) + 1e-10


def test_fidelity_concavity(rng):
    # concave in each argument on sampled convex combinations
    for _ in range(10):
        rho1, rho2, sig = (la.random_density(3, rng) for _ in range(3))
        lam = rng.uniform()
        mix = lam * rho1 + (1 - lam) * rho2
        assert la.fidelity(mix, sig) >= lam * la.fidelity(rho1, sig) \
            + (1 - lam) * la.fidelity(rho2, sig) - 1e-10


def test_fidelity_partial_trace_monotone(rng):
    for _ in range(10):
        rho, sig = la.random_density(6, rng), la.random_density(6, rng)
        f_joint = la.fidelity(rho, sig)
        f_red = la.fidelity(la.partial_trace(rho, [2, 3], [0]),
                            la.partial_trace(sig, [2, 3], [0]))
        assert f_joint <= f_red + 1e-10


def test_entropy(rng):
    assert la.von_neumann_entropy(np.diag([1.0, 0.0, 0.0])) < 1e-12
    assert abs(la.von_neumann_entropy(np.eye(5) / 5) - np.log(5)) < 1e-12
    rho = la.random_density(4, rng)
    u = la.random_unitary(4, rng)
    rotated = u @ rho @ u.conj().T
    assert abs(la.von_neumann_entropy(rotated) - la.von_neumann_entropy(rho)) < 1e-10


# ---------------------------------------------------------------------------
# validators
# ---------------------------------------------------------------------------

def test_validators_reject_bad_inputs():
    with pytest.raises(la.DimensionError):
        la.as_square(np.ones((2, 3)))
    with pytest.raises(la.DomainError):
        la.as_square(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(la.DomainError):
        la.require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(la.DomainError):
        la.require_unitary(np.diag([1.0, 2.0]))
    with pytest.raises(la.DomainError):
        la.require_density(np.diag([0.7, 0.7]))
    with pytest.raises(la.DomainError):
        la.require_density(np.diag([1.5, -0.5]))


def test_require_unitary_rejects_overflowing_matrix():
    # m^dag m overflows; the suite turns the overflow warning into an error
    with pytest.raises(la.DomainError):
        la.require_unitary(np.array([[1e200, 0.5], [0.5, -1e200]]))


def test_require_hermitian_tolerance_scales_with_entries(rng):
    # rounding of a conjugated Hermitian matrix is relative to its entries
    q = la.random_unitary(3, rng)
    m = 1e100 * (q @ la.random_hermitian(3, rng) @ q.conj().T)
    assert la.max_norm(m - m.conj().T) > 1e-10
    h = la.require_hermitian(m)
    np.testing.assert_array_equal(h, h.conj().T)
    # entries near the overflow threshold stay finite
    for big in (np.array([[1.5e308, 1j], [-1j, 0]]),
                np.array([[0, 1.5e308 + 1e308j], [1.5e308 - 1e308j, 1.7e308]])):
        h = la.require_hermitian(big)
        assert np.isfinite(h.real).all() and np.isfinite(h.imag).all()
        np.testing.assert_array_equal(h, big)
    # a genuinely non-Hermitian matrix is still rejected at any scale
    for scale in (1.0, 1e100):
        with pytest.raises(la.DomainError):
            la.require_hermitian(scale * np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(la.DomainError):
        la.require_hermitian(np.array([[0, 1.5e308], [-1.5e308, 0]]))

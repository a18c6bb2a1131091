import numpy as np
import pytest

from covcat import linalg as la
from covcat.channels import Channel, tensor_channels
from covcat.diamond import (
    _DiamondProgram,
    _a_priori_bracket,
    _certified,
    diamond_distance,
    diamond_norm_of_difference,
    unitary_diamond_distance,
)
from covcat.refframe import implementation_error, phase_reference_scenario

from conftest import random_channel, shifted_superposition_mixture


def test_identical_channels(rng):
    t = random_channel(2, 2, rng)
    res = diamond_distance(t, t)
    assert res.status == "converged"
    assert res.value <= 1e-8


def test_qubit_phase_pair_closed_form():
    for theta in (0.4, 1.2, 2.7):
        t1 = Channel.identity(2)
        t2 = Channel.from_unitary(np.diag([1.0, np.exp(1j * theta)]))
        res = diamond_distance(t1, t2)
        assert res.status == "converged"
        assert abs(res.value - 2 * np.sin(theta / 2)) < 1e-6


def test_identity_vs_depolarizing_qubit(rng):
    res = diamond_distance(Channel.identity(2), Channel.depolarizing(2))
    assert res.status == "converged"
    assert abs(res.value - 1.5) < 1e-6
    # cross-check: sampled maximization over pure two-qubit inputs never beats it
    t1 = tensor_channels(Channel.identity(2), Channel.identity(2))
    t2 = tensor_channels(Channel.depolarizing(2), Channel.identity(2))
    best = 0.0
    for _ in range(300):
        psi = la.random_pure_state(4, rng)
        best = max(best, la.trace_norm(t1.apply(psi) - t2.apply(psi)))
    assert best <= res.value + 5e-6
    assert best > res.value - 0.05  # the sampled input family gets close


def test_agrees_with_unitary_hull_oracle(rng):
    for d in (2, 3, 4):
        for _ in range(4):
            u, v = la.random_unitary(d, rng), la.random_unitary(d, rng)
            res = diamond_distance(Channel.from_unitary(u), Channel.from_unitary(v))
            oracle = unitary_diamond_distance(u, v)
            assert res.status == "converged"
            assert abs(res.value - oracle) <= 5e-6


def test_certifies_unitary_pair_at_d8(rng):
    u, v = la.random_unitary(8, rng), la.random_unitary(8, rng)
    res = diamond_distance(Channel.from_unitary(u), Channel.from_unitary(v))
    assert res.status == "converged"
    assert abs(res.value - unitary_diamond_distance(u, v)) <= 5e-6


def _hermitian_basis(n):
    """Orthonormal basis of the n x n Hermitian matrices (trace inner product)."""
    basis = []
    for i in range(n):
        for k in range(i, n):
            e = np.zeros((n, n), dtype=complex)
            if i == k:
                e[i, i] = 1.0
                basis.append(e)
                continue
            e[i, k] = e[k, i] = 1.0 / np.sqrt(2.0)
            basis.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[i, k], f[k, i] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
            basis.append(f)
    return np.array(basis)


@pytest.mark.parametrize("d", [2, 3])
def test_affine_projection_is_a_projection(d, rng):
    t1, t2 = random_channel(d, 2, rng), random_channel(d, 2, rng)
    j = t1.choi() - t2.choi()
    prog = _DiamondProgram(j, d)
    big_basis, small_basis = _hermitian_basis(d * d), _hermitian_basis(d)
    n_big, n_small = len(big_basis), len(small_basis)

    def coords(m, basis):
        return np.tensordot(basis.conj(), m, axes=([1, 2], [0, 1])).real

    def to_vec(big, small, lam):
        return np.concatenate([coords(m, big_basis) for m in big]
                              + [coords(m, small_basis) for m in small] + [[lam]])

    def from_vec(x):
        big = np.tensordot(x[:4 * n_big].reshape(4, n_big), big_basis, axes=1)
        small = np.tensordot(x[4 * n_big:-1].reshape(2, n_small), small_basis, axes=1)
        return big, small, x[-1]

    def residual(x):
        """A x - b, written directly from the constraints of the program."""
        (w, q, zp, z0), (rho, s), lam = from_vec(x)
        return np.concatenate([
            coords(w + q - np.kron(np.eye(d), rho), big_basis),
            [np.trace(rho).real - 1.0],
            coords(z0 - zp - 2.0 * j, big_basis),
            coords(la.partial_trace(z0, [d, d], keep=[1]) + s - lam * np.eye(d), small_basis),
            [2.0 * np.trace(j @ w).real - lam],
        ])

    nv = 4 * n_big + 2 * n_small + 1
    offset = residual(np.zeros(nv))
    a = np.array([residual(e) - offset for e in np.eye(nv)]).T
    x = rng.standard_normal(nv)
    oracle = x - a.T @ np.linalg.lstsq(a @ a.T, residual(x), rcond=None)[0]
    p = to_vec(*prog.project_affine(*from_vec(x)))
    np.testing.assert_allclose(p, oracle, atol=1e-10)
    assert np.abs(residual(p)).max() <= 1e-10
    np.testing.assert_allclose(to_vec(*prog.project_affine(*from_vec(p))), p, atol=1e-10)


def test_unitary_oracle_special_cases():
    assert unitary_diamond_distance(np.eye(2), np.eye(2) * np.exp(0.3j)) < 1e-12
    assert abs(unitary_diamond_distance(np.eye(2),
                                        np.array([[0, 1], [1, 0]], dtype=complex)) - 2.0) < 1e-12
    theta = 0.8
    assert abs(unitary_diamond_distance(np.eye(2), np.diag([1, np.exp(1j * theta)]))
               - 2 * np.sin(theta / 2)) < 1e-12


def test_metric_properties(rng):
    channels = [random_channel(2, 2, rng) for _ in range(3)]
    d01 = diamond_distance(channels[0], channels[1]).value
    d10 = diamond_distance(channels[1], channels[0]).value
    d02 = diamond_distance(channels[0], channels[2]).value
    d12 = diamond_distance(channels[1], channels[2]).value
    assert abs(d01 - d10) < 2e-6  # symmetry
    assert d02 <= d01 + d12 + 2e-6  # triangle within solver slack
    for val in (d01, d02, d12):
        assert 0.0 <= val <= 2.0


def test_dominates_stabilized_trace_distance(rng):
    t1, t2 = random_channel(2, 2, rng), random_channel(2, 3, rng)
    res = diamond_distance(t1, t2)
    ident = Channel.identity(2)
    big1, big2 = tensor_channels(t1, ident), tensor_channels(t2, ident)
    for _ in range(20):
        rho = la.random_density(4, rng)
        gap = la.trace_norm(big1.apply(rho) - big2.apply(rho))
        assert gap <= res.value + 2e-6


def test_result_json_shape(rng):
    res = diamond_distance(random_channel(2, 2, rng), Channel.identity(2))
    payload = res.to_json()
    assert set(payload) == {"value", "status", "lower", "upper", "iterations"}
    assert payload["lower"] <= payload["value"] <= payload["upper"]


def test_rejects_non_channel_difference():
    with pytest.raises(la.DomainError):
        diamond_norm_of_difference(np.eye(4), 2)  # Tr_out J != 0


def test_iteration_cap_reports_bounds(rng):
    t1, t2 = random_channel(2, 2, rng), random_channel(2, 2, rng)
    res = diamond_distance(t1, t2, max_iter=3)
    assert res.status == "bounds"
    assert 0.0 <= res.lower <= res.upper <= 2.0
    trusted = diamond_distance(t1, t2)
    assert res.lower <= trusted.value + 1e-9
    assert trusted.value <= res.upper + 1e-9


def test_dimension_checks(rng):
    with pytest.raises(la.DimensionError):
        diamond_distance(Channel.identity(2), Channel.identity(3))


# ---------------------------------------------------------------------------
# a priori bracket and crossing rule
# ---------------------------------------------------------------------------

def _mixed_frame(theta):
    sigma = shifted_superposition_mixture(12, 0.7, weight=0.35)
    return phase_reference_scenario(12, theta, sigma_c=sigma)


# brackets at theta = pi/2 that the Douglas-Rachford iteration certifies in
# 112 to 252 iterations from the start bracket [l(1/d), d l(1/d)]
ITERATED_BRACKETS = {
    2: (0.8685592110186405, 0.8685592167017357),
    4: (0.4342796055093201, 0.4342796357831268),
    8: (0.21713980275466044, 0.2171398056799658),
    16: (0.10856990137732997, 0.10857012928751106),
    32: (0.054284950688664894, 0.05428576833671278),
    "mixed-N12": (0.38660575558401955, 0.386605949152626),
}
LADDERS = [2, 4, 8, 16, 32, "mixed-N12"]


@pytest.mark.parametrize("theta", [np.pi / 2, 1e-2, 1e-4])
@pytest.mark.parametrize("ladder", LADDERS)
def test_phase_ladders_certify_at_a_priori_dual_point(ladder, theta):
    sc = _mixed_frame(theta) if ladder == "mixed-N12" else phase_reference_scenario(ladder, theta)
    res = implementation_error(sc)
    assert res.status == "converged" and res.iterations == 0
    assert res.lower <= res.value <= res.upper <= res.lower + 1e-6
    assert res.upper - res.lower <= 1e-12 * max(1.0, res.value)
    if theta == np.pi / 2:
        # both brackets are computed in floating point: inclusion up to round-off
        low, up = ITERATED_BRACKETS[ladder]
        assert low - 1e-15 <= res.value <= up + 1e-15


@pytest.mark.parametrize("d", [2, 3])
def test_a_priori_upper_bound_between_solved_lower_and_d_times_lower(d, rng):
    for _ in range(3):
        j = random_channel(d, 2, rng).choi() - random_channel(d, 2, rng).choi()
        low, up = _a_priori_bracket(_DiamondProgram(j, d))
        assert up <= d * low + 1e-12
        solved = diamond_norm_of_difference(j, d)
        assert up >= solved.lower - 1e-12
        assert solved.lower <= solved.value <= solved.upper <= up + 1e-12


def test_crossed_certificates_widen_and_never_narrow():
    res = _certified(0.5 + 1e-15, 0.5, "converged", 0)
    assert (res.lower, res.upper) == (0.5, 0.5 + 1e-15)
    assert res.lower <= res.value <= res.upper
    ordered = _certified(0.25, 0.5, "bounds", 7)
    assert (ordered.lower, ordered.value, ordered.upper) == (0.25, 0.375, 0.5)
    with pytest.raises(RuntimeError, match="cross"):
        _certified(0.5 + 1e-9, 0.5, "converged", 0)

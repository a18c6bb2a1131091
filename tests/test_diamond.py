import numpy as np
import pytest

from covcat import linalg as la
from covcat.channels import Channel, tensor_channels
from covcat.diamond import (
    _DiamondProgram,
    _herm,
    _real,
    _trace_out_first,
    diamond_distance,
    diamond_norm_of_difference,
    unitary_diamond_distance,
)

from conftest import random_channel


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


@pytest.mark.parametrize("d", [2, 3])
def test_real_storage_of_hermitian_blocks(d, rng):
    r = rng.standard_normal((d * d, d * d))
    np.testing.assert_allclose(_real(_herm(r)), r, atol=1e-14)
    x, y = la.random_hermitian(d, rng), la.random_hermitian(d, rng)
    np.testing.assert_allclose(np.vdot(_real(x), _real(y)), np.trace(x @ y).real, atol=1e-12)
    np.testing.assert_allclose(_real(np.kron(np.eye(d), x)), np.kron(np.eye(d), _real(x)),
                               atol=0)
    z = la.random_hermitian(d * d, rng)
    np.testing.assert_allclose(_trace_out_first(_real(z), d), _real(_trace_out_first(z, d)),
                               atol=1e-12)


@pytest.mark.parametrize("d", [2, 3])
def test_affine_projection_is_a_projection(d, rng):
    t1, t2 = random_channel(d, 2, rng), random_channel(d, 2, rng)
    prog = _DiamondProgram(t1.choi() - t2.choi(), d)
    p = prog.project_affine(rng.standard_normal(prog.nv))
    assert np.abs(prog.a @ p - prog.b).max() <= 1e-10
    np.testing.assert_allclose(prog.project_affine(p), p, atol=1e-10)


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

import numpy as np
import pytest

from covcat import linalg as la
from covcat import symmetry as sym
from covcat.channels import (
    Channel,
    DilationSpec,
    compose,
    dilation_to_channel,
    env_channel,
    hs_dual,
    induced_channel,
    is_covariant,
    tensor_channels,
    thermal_operation,
    twirl,
    verify_covariant_dilation,
)

from conftest import env_channel_loop, random_channel

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def test_apply_identity_and_depolarizing(rng):
    rho = la.random_density(3, rng)
    np.testing.assert_allclose(Channel.identity(3).apply(rho), rho, atol=0)
    np.testing.assert_allclose(Channel.depolarizing(3).apply(rho), np.eye(3) / 3, atol=1e-12)


def test_apply_matches_choi_action(rng):
    # oracle: T(rho) = Tr_in[J (1 (x) rho^T)]
    t = random_channel(3, 2, rng)
    rho = la.random_density(3, rng)
    j = t.choi()
    oracle = la.partial_trace(j @ la.tensor(np.eye(3), rho.T), [3, 3], [0])
    np.testing.assert_allclose(t.apply(rho), oracle, atol=1e-12)


def test_apply_preserves_trace_and_positivity(rng):
    for _ in range(5):
        t = random_channel(4, 3, rng)
        rho = la.random_density(4, rng)
        out = t.apply(rho)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out)[0] > -1e-9


def test_choi_identity_and_depolarizing():
    d = 3
    omega = np.eye(d).reshape(-1)
    np.testing.assert_allclose(Channel.identity(d).choi(), np.outer(omega, omega), atol=1e-14)
    # completely depolarizing: J = sum_ij (1/d) (x) E_ii = 1/d (x) 1
    np.testing.assert_allclose(Channel.depolarizing(d).choi(),
                               la.tensor(np.eye(d) / d, np.eye(d)), atol=1e-12)


def test_channel_validation():
    with pytest.raises(la.DomainError):
        Channel([np.eye(2) * 0.5])
    Channel([np.eye(2) * 0.5], require_tp=False)  # allowed when asked


def test_covariance_identity_channel():
    rep = sym.left_regular_representation(sym.FiniteGroup.cyclic(3))
    report = is_covariant(Channel.identity(3), rep, rep)
    assert report.covariant and report.worst_violation < 1e-12


def test_covariance_generator_violation():
    report = is_covariant(Channel.from_unitary(SX), [SZ], [SZ])
    assert not report.covariant
    assert report.worst_violation > 0.5


def test_twirl_is_covariant(rng):
    g = sym.FiniteGroup.cyclic(4)
    rep = sym.left_regular_representation(g)
    raw = random_channel(4, 2, rng)
    averaged = twirl(raw, rep, rep)
    assert is_covariant(averaged, rep, rep).covariant
    assert not is_covariant(raw, rep, rep).covariant


def test_covariance_closed_under_compose_and_tensor(rng):
    g = sym.FiniteGroup.cyclic(3)
    rep = sym.left_regular_representation(g)
    a = twirl(random_channel(3, 2, rng), rep, rep)
    b = twirl(random_channel(3, 2, rng), rep, rep)
    assert is_covariant(compose(a, b), rep, rep).covariant
    both = tensor_channels(a, b)
    rep2 = sym.tensor_rep(rep, rep)
    assert is_covariant(both, rep2, rep2).covariant


def _dense_choi_commutator(t, rep_in, rep_out):
    """Oracle: largest Frobenius norm of [J, G] with J and G built densely,
    plus the largest max-norm of the superoperator commutator."""
    v = np.stack([k.reshape(-1) for k in t.kraus], axis=1)
    j = v @ v.conj().T
    sup = sum(np.kron(k, k.conj()) for k in t.kraus)
    frob = supmax = scale = 0.0
    if isinstance(rep_in, sym.FiniteGroupRep):
        pairs = [(np.kron(w_out, w_in.conj()), np.kron(w_out, w_out.conj()) @ sup
                  - sup @ np.kron(w_in, w_in.conj()))
                 for w_in, w_out in zip(rep_in.images, rep_out.images)]
    else:
        def ad(x):
            return np.kron(x, np.eye(len(x))) - np.kron(np.eye(len(x)), x.T)
        pairs = [(np.kron(x_out, np.eye(t.d_in)) - np.kron(np.eye(t.d_out), x_in.T),
                  ad(x_out) @ sup - sup @ ad(x_in))
                 for x_in, x_out in zip(rep_in, rep_out)]
    for g, sup_comm in pairs:
        frob = max(frob, np.linalg.norm(g @ j - j @ g))
        supmax = max(supmax, la.max_norm(sup_comm))
        scale = max(scale, 2 * np.linalg.norm(j) * np.linalg.norm(g))
    return frob, supmax, scale


def _mix(t, other, eps):
    """Kraus form of (1 - eps) t + eps other."""
    return Channel([np.sqrt(1 - eps) * k for k in t.kraus]
                   + [np.sqrt(eps) * k for k in other.kraus])


def _u1_covariant_channel(d, rng):
    """Twirl over Z_(2d-1) generated by exp(2 pi i n / (2d-1)): no two charge
    differences of a d-level ladder agree modulo 2d-1, so the result is
    covariant under the number operator n itself."""
    n = 2 * d - 1
    charges = np.arange(d)
    rep = sym.FiniteGroupRep(sym.FiniteGroup.cyclic(n),
                             [np.diag(np.exp(2j * np.pi * g * charges / n)) for g in range(n)])
    return twirl(random_channel(d, 2, rng), rep, rep), np.diag(charges.astype(float))


def _check_against_oracle(t, rep_in, rep_out):
    fast = is_covariant(t, rep_in, rep_out).worst_violation
    frob, supmax, scale = _dense_choi_commutator(t, rep_in, rep_out)
    assert abs(fast - frob) <= 1e-12 * scale
    assert fast >= supmax - 1e-12 * scale  # never below the old max-norm defect
    return fast


@pytest.mark.parametrize("d, rank", [(2, 6), (3, 3), (5, 3), (8, 3), (16, 3)])
def test_generator_covariance_matches_dense_oracle(d, rank, rng):
    t = random_channel(d, rank, rng)  # rank 6 > d^2 takes the compression path
    x_in, x_out = la.random_hermitian(d, rng), la.random_hermitian(d, rng)
    assert _check_against_oracle(t, [x_in, x_out], [x_out, x_in]) > 1e-3
    cov, number = _u1_covariant_channel(d, rng)
    assert _check_against_oracle(cov, [number], [number]) <= 1e-12 * d ** 2
    assert is_covariant(cov, [number], [number], tol=1e-9).covariant
    perturbed = _mix(cov, random_channel(d, 2, rng), 1e-6)
    fast = _check_against_oracle(perturbed, [number], [number])
    assert fast >= 1e-7
    assert not is_covariant(perturbed, [number], [number], tol=1e-9).covariant


def test_rectangular_generator_covariance_matches_dense_oracle(rng):
    g = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    q, _ = np.linalg.qr(g)
    t = Channel([q[:3], q[3:]])  # 2 -> 3
    _check_against_oracle(t, [la.random_hermitian(2, rng)], [la.random_hermitian(3, rng)])


@pytest.mark.parametrize("order", [4, 8, 16])
def test_group_covariance_matches_dense_oracle(order, rng):
    rep = sym.left_regular_representation(sym.FiniteGroup.cyclic(order))
    raw = random_channel(order, 3, rng)
    assert _check_against_oracle(raw, rep, rep) > 1e-3
    cov = twirl(raw, rep, rep)
    assert _check_against_oracle(cov, rep, rep) <= 1e-12 * order
    perturbed = _mix(cov, random_channel(order, 2, rng), 1e-6)
    assert _check_against_oracle(perturbed, rep, rep) >= 1e-7
    assert not is_covariant(perturbed, rep, rep, tol=1e-9).covariant


def test_s3_twirl_with_more_kraus_than_choi_dim_matches_oracle(rng):
    from conftest import s3_standard_images
    rep = sym.FiniteGroupRep(sym.FiniteGroup.symmetric(3), s3_standard_images())
    raw = random_channel(2, 2, rng)
    assert _check_against_oracle(raw, rep, rep) > 1e-3
    cov = twirl(raw, rep, rep)
    assert len(cov.kraus) > 4  # compressed to d_in d_out columns first
    assert _check_against_oracle(cov, rep, rep) <= 1e-13
    for eps in (1e-6, 1e-3):
        perturbed = _mix(cov, random_channel(2, 3, rng), eps)
        assert len(perturbed.kraus) > 4
        assert _check_against_oracle(perturbed, rep, rep) >= 0.1 * eps
        assert not is_covariant(perturbed, rep, rep, tol=1e-9).covariant


def test_hs_dual_unitary_is_inverse(rng):
    u = la.random_unitary(3, rng)
    dual = hs_dual(Channel.from_unitary(u))
    rho = la.random_density(3, rng)
    np.testing.assert_allclose(dual.apply(u @ rho @ u.conj().T), rho, atol=1e-12)


def test_hs_dual_trace_pairing(rng):
    t = random_channel(3, 3, rng)
    dual = hs_dual(t)
    for _ in range(5):
        a, b = la.random_hermitian(3, rng), la.random_hermitian(3, rng)
        lhs = np.trace(a @ t.apply(b))
        rhs = np.trace(dual.apply(a) @ b)
        assert abs(lhs - rhs) < 1e-10


def test_depolarizing_self_dual():
    t = Channel.depolarizing(2)
    dual = hs_dual(t)
    np.testing.assert_allclose(dual.choi(), t.choi(), atol=1e-12)


def test_hs_dual_involution(rng):
    t = random_channel(2, 2, rng)
    np.testing.assert_allclose(hs_dual(hs_dual(t)).choi(), t.choi(), atol=1e-10)


def test_env_channel_at_maximally_mixed_is_unital(rng):
    u = la.random_unitary(6, rng)
    frame_dyn = env_channel(u, np.eye(2) / 2, 2, 3)
    np.testing.assert_allclose(frame_dyn.apply(np.eye(3)), np.eye(3), rtol=0, atol=1e-12)


def test_induced_channel_product_dynamics(rng):
    v = la.random_unitary(2, rng)
    u = la.tensor(v, la.random_unitary(3, rng))
    t = induced_channel(Channel.from_unitary(u), la.random_density(3, rng), 2, 3)
    rho = la.random_density(2, rng)
    np.testing.assert_allclose(t.apply(rho), v @ rho @ v.conj().T, atol=1e-10)


def test_induced_channel_swap_is_constant(rng):
    sigma = la.random_density(2, rng)
    t = induced_channel(Channel.from_unitary(SWAP), sigma, 2, 2)
    for _ in range(3):
        np.testing.assert_allclose(t.apply(la.random_density(2, rng)), sigma, atol=1e-12)


def test_induced_channel_superoperator_oracle(rng):
    # dense oracle: act on every matrix unit of S directly
    big = random_channel(6, 2, rng)
    sigma = la.random_density(3, rng)
    t = induced_channel(big, sigma, 2, 3)
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            direct = la.partial_trace(big.apply(la.tensor(e, sigma)), [2, 3], [0])
            np.testing.assert_allclose(t.apply(e), direct, atol=1e-10)


def test_env_channel_identity_and_swap(rng):
    rho = la.random_density(2, rng)
    sig = la.random_density(2, rng)
    ident = env_channel(np.eye(4), rho, 2, 2)
    np.testing.assert_allclose(ident.apply(sig), sig, atol=1e-12)
    swapped = env_channel(SWAP, rho, 2, 2)
    np.testing.assert_allclose(swapped.apply(sig), rho, atol=1e-12)


@pytest.mark.parametrize("d_s, d_c", [(2, 3), (3, 4)])
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_env_channel_matches_per_eigenvector_loop(d_s, d_c, rank, rng):
    u = la.random_unitary(d_s * d_c, rng)
    cols = d_s if rank == "full" else d_s - 1
    g = rng.standard_normal((d_s, cols)) + 1j * rng.standard_normal((d_s, cols))
    rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
    got, want = env_channel(u, rho, d_s, d_c).kraus, env_channel_loop(u, rho, d_s, d_c).kraus
    assert len(got) == len(want) == cols * d_s
    for k_got, k_want in zip(got, want):
        np.testing.assert_allclose(k_got, k_want, rtol=0, atol=1e-14)


def test_env_channel_linear_in_system_state(rng):
    u = la.random_unitary(6, rng)
    sig = la.random_density(3, rng)
    probs = np.array([0.2, 0.5, 0.3])
    pures = [la.random_pure_state(2, rng) for _ in range(3)]
    mix = sum(p * psi for p, psi in zip(probs, pures))
    lhs = env_channel(u, mix, 2, 3).apply(sig)
    rhs = sum(p * env_channel(u, psi, 2, 3).apply(sig) for p, psi in zip(probs, pures))
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_dilation_identity():
    spec = DilationSpec(omega_e=np.eye(2) / 2, unitary=np.eye(4), d_s=2, d_e=2)
    t = dilation_to_channel(spec)
    rho = la.random_density(2, np.random.default_rng(0))
    np.testing.assert_allclose(t.apply(rho), rho, atol=1e-12)


def test_dilation_reproduces_direct_computation(rng):
    spec = DilationSpec(omega_e=la.random_density(3, rng),
                        unitary=la.random_unitary(6, rng), d_s=2, d_e=3)
    t = dilation_to_channel(spec)
    rho = la.random_density(2, rng)
    direct = la.partial_trace(
        spec.unitary @ la.tensor(rho, spec.omega_e) @ spec.unitary.conj().T, [2, 3], [0])
    np.testing.assert_allclose(t.apply(rho), direct, atol=1e-10)


def test_covariant_dilation_yields_covariant_channel(rng):
    # energy-conserving unitary, symmetric environment -> covariant channel
    h_s = np.diag([0.0, 1.0])
    h_e = np.diag([0.0, 1.0, 2.0])
    u = np.eye(6, dtype=complex)
    theta = 0.9
    for i, j in ((1, 3), (2, 4)):  # degenerate total-energy pairs of (s, e) indices
        u[i, i] = np.cos(theta)
        u[j, j] = np.cos(theta)
        u[i, j] = -np.sin(theta)
        u[j, i] = np.sin(theta)
    omega = sym.gibbs_state(h_e, 0.7)
    spec = DilationSpec(omega_e=omega, unitary=u, d_s=2, d_e=3)
    report = verify_covariant_dilation(spec, [h_s], [h_e])
    assert report.certifies_covariance and not report.env_state_pure
    t = dilation_to_channel(spec)
    assert is_covariant(t, [h_s], [h_s]).covariant


def test_thermal_operation_fixes_gibbs_state():
    h_s = np.diag([0.0, 1.0])
    h_e = np.diag([0.0, 1.0])
    u = np.eye(4, dtype=complex)
    th = 0.77
    u[1, 1] = u[2, 2] = np.cos(th)
    u[1, 2], u[2, 1] = -np.sin(th), np.sin(th)
    beta = 0.6
    t = thermal_operation(h_s, h_e, beta, u)
    fixed = sym.gibbs_state(h_s, beta)
    assert la.max_norm(t.apply(fixed) - fixed) < 1e-9


def test_thermal_operation_rejects_non_conserving():
    with pytest.raises(la.DomainError):
        thermal_operation(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]), 1.0,
                          la.tensor(SX, np.eye(2)))

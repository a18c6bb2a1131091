import dataclasses
import tracemalloc

import numpy as np
import pytest

from covcat import channels
from covcat import linalg as la
from covcat import refframe
from covcat.channels import (CHANNEL_TOL, Channel, env_channel, hs_dual, induced_channel,
                             is_covariant)
from covcat.diamond import DiamondResult
from covcat.symmetry import conservation_defects, generator_scale
from covcat.refframe import (
    FrameScenario,
    RecoveryReport,
    SweepReport,
    catalytic_channel,
    degradation_sweep,
    implementation_error,
    phase_ladder_unitary,
    phase_reference_scenario,
    recovery_channel,
    verify_recovery,
)

from conftest import (dilated_frame_scenario, env_channel_loop, kicked_frame,
                      shifted_superposition_mixture)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def product_frame_scenario(rng, d_s=2, d_c=3):
    """Exactly implementable target: U = V (x) W0 with commuting generators."""
    gen_s = np.diag(rng.uniform(-1, 1, size=d_s))
    gen_c = np.diag(rng.uniform(-1, 1, size=d_c))
    v = la.func_calc(gen_s, lambda w: np.cos(w)) + 1j * la.func_calc(gen_s, lambda w: np.sin(w))
    w0 = la.func_calc(gen_c, lambda w: np.cos(0.7 * w)) + 1j * la.func_calc(gen_c, lambda w: np.sin(0.7 * w))
    amp = rng.standard_normal(d_c) + 1j * rng.standard_normal(d_c)
    amp /= np.linalg.norm(amp)
    return FrameScenario(
        unitary=la.tensor(v, w0),
        sigma_c=np.outer(amp, amp.conj()),
        target=v,
        gens_s=(gen_s,),
        gens_c=(gen_c,),
    )


# ---------------------------------------------------------------------------
# scenario construction
# ---------------------------------------------------------------------------

def test_phase_scenario_theta_zero_has_no_error():
    sc = phase_reference_scenario(4, 0.0)
    np.testing.assert_allclose(sc.unitary, np.eye(8), atol=0)
    eps = implementation_error(sc)
    assert eps.value <= 1e-6


def test_ladder_unitary_conserves_charge():
    for n in (2, 5):
        u = phase_ladder_unitary(n, 1.1)
        total = la.tensor(np.diag([0.0, 1.0]), np.eye(n)) \
            + la.tensor(np.eye(2), np.diag(np.arange(n, dtype=float)))
        assert la.max_norm(u @ total - total @ u) < 1e-12


def test_scenario_rejects_non_covariant_dynamics(rng):
    with pytest.raises(la.DomainError):
        FrameScenario(
            unitary=la.random_unitary(8, rng),
            sigma_c=np.eye(4) / 4,
            target=np.eye(2),
            gens_s=(np.diag([0.0, 1.0]),),
            gens_c=(np.diag(np.arange(4.0)),),
        )


# ---------------------------------------------------------------------------
# implementation error
# ---------------------------------------------------------------------------

def test_product_scenario_has_zero_error(rng):
    sc = product_frame_scenario(rng)
    res = implementation_error(sc)
    assert res.value <= 1e-6


def test_identity_dynamics_vs_flip_target_is_maximal():
    # doing nothing while promising a bit flip: distance 2
    sc = FrameScenario(
        unitary=np.eye(4),
        sigma_c=np.eye(2) / 2,
        target=SX,
        gens_s=(np.zeros((2, 2)),),
        gens_c=(np.zeros((2, 2)),),
    )
    res = implementation_error(sc)
    assert abs(res.value - 2.0) <= 1e-5


def test_phase_reference_error_decreases_with_size():
    vals = [implementation_error(phase_reference_scenario(n, np.pi / 2)).value
            for n in (4, 16)]
    assert vals[1] < vals[0]


# ---------------------------------------------------------------------------
# drift
# ---------------------------------------------------------------------------

def test_drift_exact_for_product_dynamics(rng):
    sc = product_frame_scenario(rng)
    report = catalytic_channel(sc)[1]
    assert report.sup_deviation_sq <= 1e-10


def test_drift_bounded_by_twice_epsilon_on_perturbed_product(rng):
    # small covariant perturbation of a product unitary
    gen_s = np.diag([0.0, 1.0])
    gen_c = np.diag(np.arange(4.0))
    v = la.func_calc(gen_s, np.cos) + 1j * la.func_calc(gen_s, np.sin)
    amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amp /= np.linalg.norm(amp)
    perturb = phase_ladder_unitary(4, 0.2)[:, :]  # commutes with the total charge
    u = la.tensor(v, np.eye(4)) @ perturb
    sc = FrameScenario(unitary=u, sigma_c=np.outer(amp, amp.conj()), target=v,
                       gens_s=(gen_s,), gens_c=(gen_c,))
    eps = implementation_error(sc).value
    report = catalytic_channel(sc)[1]
    assert report.sup_deviation_sq <= 2 * eps + 1e-6


def test_drift_improves_with_frame_size():
    d4 = catalytic_channel(phase_reference_scenario(4, np.pi / 2))[1]
    d8 = catalytic_channel(phase_reference_scenario(8, np.pi / 2))[1]
    assert d8.sup_deviation_sq < d4.sup_deviation_sq


# ---------------------------------------------------------------------------
# recovery channel
# ---------------------------------------------------------------------------

def test_recovery_of_identity_dynamics(rng):
    sc = FrameScenario(unitary=np.eye(6), sigma_c=la.random_density(3, rng),
                       target=np.eye(2), gens_s=(np.zeros((2, 2)),),
                       gens_c=(np.zeros((3, 3)),))
    rec = recovery_channel(sc)
    rho = la.random_density(3, rng)
    np.testing.assert_allclose(rec.apply(rho), rho, atol=1e-10)


def test_recovery_of_swap_is_depolarizing(rng):
    sc = FrameScenario(unitary=SWAP, sigma_c=la.random_density(2, rng),
                       target=np.eye(2), gens_s=(np.eye(2),),
                       gens_c=(np.eye(2),))
    rec = recovery_channel(sc)
    a = la.random_hermitian(2, rng)
    np.testing.assert_allclose(rec.apply(a), np.trace(a) * np.eye(2) / 2, atol=1e-10)


def test_recovery_is_covariant():
    sc = phase_reference_scenario(6, np.pi / 3)
    rec = recovery_channel(sc)
    report = is_covariant(rec, list(sc.gens_c), list(sc.gens_c), tol=1e-9)
    assert report.covariant, report


def test_recovery_dual_pairing_fidelity(rng):
    # F(sigma, R[P]) = F(frame_dyn[sigma], P) for pure sigma and pure P
    sc = phase_reference_scenario(5, 1.0)
    frame_dyn = env_channel(sc.unitary, np.eye(2) / 2, 2, 5)
    rec = hs_dual(frame_dyn)
    for _ in range(5):
        psi = la.random_pure_state(5, rng)
        phi = la.random_pure_state(5, rng)
        lhs = la.fidelity(psi, rec.apply(phi))
        rhs = la.fidelity(frame_dyn.apply(psi), phi)
        assert abs(lhs - rhs) < 1e-9


# ---------------------------------------------------------------------------
# catalytic channel
# ---------------------------------------------------------------------------

def test_exact_scenario_gives_zero_distances(rng):
    sc = product_frame_scenario(rng)
    _, report = catalytic_channel(sc)
    assert report.outcome == "passed", report.failures
    assert report.epsilon <= 1e-6
    assert report.worst_distance <= 1e-6
    assert report.bound <= 2 * np.sqrt(2e-6) + 1e-12


def test_phase_reference_pipeline_n16():
    sc = phase_reference_scenario(16, np.pi / 2)
    t_prime, report = catalytic_channel(sc)
    assert report.outcome == "passed", report.failures
    assert report.worst_distance <= report.bound + 1e-5
    assert report.min_fidelity >= 1 - report.epsilon - 1e-6
    assert report.induced_identity_defect <= 1e-8
    assert report.covariance_defect == 0.0  # U conserves the charge exactly
    assert t_prime.trace_preservation_defect() <= CHANNEL_TOL


def test_mixed_frame_state_pipeline():
    sigma = shifted_superposition_mixture(8, 0.2)
    sc = phase_reference_scenario(8, np.pi / 2, sigma_c=sigma)
    _, report = catalytic_channel(sc)
    assert report.outcome == "passed", report.failures


def test_dilated_dynamics_pipeline(rng):
    sc = dilated_frame_scenario()
    t_prime, report = catalytic_channel(sc)
    assert report.outcome == "passed", report.failures
    assert t_prime.d_in == 8  # acts on S (x) C only, environment traced out
    # apply oracle: T'[x] = Tr_E sum_R (1 (x) R) U (x (x) omega_E) U^dag (1 (x) R)^dag
    lifted = [la.tensor(np.eye(2), k) for k in recovery_channel(sc).kraus]
    for x in (la.tensor(la.random_density(2, rng), sc.sigma_c), la.random_density(8, rng)):
        big = sc.unitary @ la.tensor(x, sc.omega_e) @ sc.unitary.conj().T
        recovered = sum(k @ big @ k.conj().T for k in lifted)
        oracle = la.partial_trace(recovered, [8, 2], keep=[0])
        np.testing.assert_allclose(t_prime.apply(x), oracle, atol=1e-12)


def _isometry_oracle(sc, phi):
    """``(U (x) 1_C')(|b> (x) phi)`` as column b, reshaped to ``[a, (f, i), b]``."""
    d_s, d_v = sc.d_s, len(phi)
    big = la.tensor(sc.unitary, np.eye(d_v // (sc.d_c * sc.d_e)))
    cols = [big @ np.kron(np.eye(d_s)[:, b], phi) for b in range(d_s)]
    return big, np.stack(cols, axis=-1).reshape(d_s, d_v, d_s)


def test_purifier_left_untouched(rng):
    # the isometry is U (x) 1_C' applied to (. (x) phi): the purifier C' is never touched
    sigma = shifted_superposition_mixture(4, 0.3)
    sc = phase_reference_scenario(4, np.pi / 2, sigma_c=sigma)
    m, phi = sc.isometry
    assert len(phi) == 4 * 2  # the purifier copies the support of sigma_C, rank 2
    big, want = _isometry_oracle(sc, phi)
    np.testing.assert_allclose(m, want, rtol=0, atol=1e-14)
    phi_rho = np.outer(phi, phi.conj())
    np.testing.assert_allclose(la.partial_trace(phi_rho, [4, 2], [0]), sigma, rtol=0, atol=1e-14)
    rec_pure = hs_dual(env_channel(big, np.eye(2) / 2, 2, len(phi)))
    state = la.random_density(len(phi), rng)
    out = rec_pure.apply(state)
    # compare purifier marginals before and after
    marg_in = la.partial_trace(state, [4, 2], [1])
    marg_out = la.partial_trace(out, [4, 2], [1])
    np.testing.assert_allclose(marg_in, marg_out, atol=1e-10)
    # a mixed environment is purified together with sigma_C
    dilated = dilated_frame_scenario(omega=np.diag([0.7, 0.3]))
    m, phi = dilated.isometry
    assert len(phi) == 8 * 2
    np.testing.assert_allclose(m, _isometry_oracle(dilated, phi)[1], rtol=0, atol=1e-14)
    np.testing.assert_allclose(la.partial_trace(np.outer(phi, phi.conj()), [8, 2], [0]),
                               la.tensor(dilated.sigma_c, dilated.omega_e), rtol=0, atol=1e-14)
    # a pure frame is purified on a one-dimensional copy: the isometry is U(. (x) phi)
    pure = phase_reference_scenario(4, np.pi / 2)
    m, phi = pure.isometry
    top = np.linalg.eigh(pure.sigma_c)[1][:, -1]
    np.testing.assert_allclose(phi, top, rtol=0, atol=1e-14)
    np.testing.assert_allclose(m, _isometry_oracle(pure, phi)[1], rtol=0, atol=1e-14)


def test_distance_contracts_from_purified_to_physical_frame(rng):
    # data processing: the physical-frame distance never exceeds the
    # purified-frame distance
    sigma = shifted_superposition_mixture(4, 0.25)
    sc = phase_reference_scenario(4, np.pi / 2, sigma_c=sigma)
    m, phi = sc.isometry
    d_v = len(phi)
    big, _ = _isometry_oracle(sc, phi)
    rec_pure = hs_dual(env_channel(big, np.eye(2) / 2, 2, d_v))
    phi_rho = np.outer(phi, phi.conj())
    for _ in range(5):
        rho = la.random_density(2, rng)
        frame_out = np.einsum("afb,bc,agc->fg", m, rho, m.conj())
        big_out = big @ la.tensor(rho, phi_rho) @ big.conj().T
        np.testing.assert_allclose(frame_out, la.partial_trace(big_out, [2, d_v], [1]),
                                   rtol=0, atol=1e-14)
        recovered = rec_pure.apply(frame_out)
        d_purified = la.trace_distance(recovered, phi_rho)
        d_physical = la.trace_distance(la.partial_trace(recovered, [4, d_v // 4], [0]),
                                       sc.sigma_c)
        assert d_physical <= d_purified + 1e-10


def _qutrit_sector_scenario(rng, n=5):
    """Haar qutrit target applied in every full total-charge sector of qutrit (x) ladder."""
    v = la.random_unitary(3, rng)
    u = np.eye(3 * n, dtype=complex)
    for q in range(2, n):
        idx = [s * n + (q - s) for s in range(3)]
        u[np.ix_(idx, idx)] = v
    amp = np.ones(n, dtype=complex) / np.sqrt(n)
    return FrameScenario(unitary=u, sigma_c=np.outer(amp, amp.conj()), target=v,
                         gens_s=(np.diag([0.0, 1.0, 2.0]),),
                         gens_c=(np.diag(np.arange(n, dtype=float)),))


def _system_states(d, seed):
    """20 Haar pure and 10 Hilbert-Schmidt mixed system states."""
    rng = np.random.default_rng(seed)
    return ([la.random_pure_state(d, rng) for _ in range(20)]
            + [la.random_density(d, rng) for _ in range(10)])


def _per_sample_oracle(sc, seed):
    """The chain and sampled distances, one global product per sample.

    The frame state sigma_C (x) omega_E is purified on a full copy of C (x) E
    (every eigenvector), and every frame output builds its own environment
    channel. The drift supremum is the operator norm of the dense columns
    ``U(|b> (x) phi) - V|b> (x) W phi``, the least fidelity the square root
    of the smallest eigenvalue of ``O[b, c] = <W phi| out(|b><c|) |W phi>``;
    the extrema are checked against probes, the sampled fidelities and the
    eigenvector input. Returns the drift distances of the samples and of the
    least-fidelity input, and ``frame(rho)``, the final distance of the
    physical frame C to sigma_C at system input rho.
    """
    d_s, d_c, d_e = sc.d_s, sc.d_c, sc.d_e
    d_f = d_c * d_e
    w, v = np.linalg.eigh(la.tensor(sc.sigma_c, sc.omega_e))
    phi = sum(np.sqrt(max(w[i], 0.0)) * np.kron(v[:, i], np.eye(d_f)[i]) for i in range(d_f))
    d_v = d_f * d_f
    u = la.tensor(sc.unitary, np.eye(d_f))
    phi_rho = np.outer(phi, phi.conj())

    def out(rho):
        return env_channel(u, rho, d_s, d_v).apply(phi_rho)

    # drifted frame W phi
    avg = out(np.eye(d_s) / d_s)
    wphi = np.linalg.eigh(avg)[1][:, -1]
    overlap = np.vdot(np.kron(sc.target[:, 0], wphi), u @ np.kron(np.eye(d_s)[:, 0], phi))
    wphi = wphi * overlap / abs(overlap)
    w_rho = np.outer(wphi, wphi.conj())
    # drift supremum, above every probe: the basis of S, then random unit vectors
    basis = np.eye(d_s, dtype=complex)
    delta = np.stack([u @ np.kron(basis[b], phi) - np.kron(sc.target[:, b], wphi)
                      for b in range(d_s)], axis=1)
    sup2 = np.linalg.norm(delta, 2) ** 2
    z = np.random.default_rng(seed).standard_normal((64, 2, d_s))
    for psi in np.concatenate([basis, z[:, 0] + 1j * z[:, 1]]):
        psi = psi / np.linalg.norm(psi)
        dev = u @ np.kron(psi, phi) - np.kron(sc.target @ psi, wphi)
        assert np.linalg.norm(dev) ** 2 <= sup2 + 1e-12

    # least fidelity from the overlap form on the matrix units, each
    # off-diagonal unit |b><c| by polarisation over the pure states of
    # |b>, |c>, |b> + |c> and |b> + i|c>
    def overlap_form(psi):
        psi = psi / np.linalg.norm(psi)
        return np.vdot(wphi, out(np.outer(psi, psi.conj())) @ wphi)

    form = np.zeros((d_s, d_s), dtype=complex)
    for b in range(d_s):
        for c in range(d_s):
            e_b, e_c = basis[b], basis[c]
            form[b, c] = overlap_form(e_b) if b == c else (
                overlap_form(e_b + e_c) + 1j * overlap_form(e_b + 1j * e_c)
                - (1 + 1j) / 2 * (overlap_form(e_b) + overlap_form(e_c)))
    lam, vecs = np.linalg.eigh(form)
    min_fid = np.sqrt(np.clip(lam[0], 0.0, 1.0))
    # <W phi| out(|y><y|) |W phi> = x^dag O x with x = conj(y): the input
    # conj(x) for the bottom eigenvector x of O attains the minimum
    y = vecs[:, 0].conj()
    assert abs(la.fidelity(out(np.outer(y, y.conj())), w_rho) - min_fid) <= 1e-12
    pullback = hs_dual(env_channel(u, np.eye(d_s) / d_s, d_s, d_v)).apply(w_rho)
    pullback_dist = la.trace_distance(phi_rho, pullback)
    drift_dists = []
    for rho in _system_states(d_s, seed):
        frame_out = out(rho)
        assert la.fidelity(frame_out, w_rho) >= min_fid - 1e-12
        drift_dists.append(la.trace_distance(frame_out, w_rho))
    least_drift = la.trace_distance(out(np.outer(y, y.conj())), w_rho)
    recovery = recovery_channel(sc)

    def frame(rho):
        big = sc.unitary @ la.tensor(rho, la.tensor(sc.sigma_c, sc.omega_e)) @ sc.unitary.conj().T
        recovered = recovery.apply(la.partial_trace(big, [d_s, d_f], [1]))
        return la.trace_distance(la.partial_trace(recovered, [d_c, d_e], [0]), sc.sigma_c)

    return sup2, pullback_dist, min_fid, drift_dists, least_drift, frame


CHAIN_CASES = {
    "ladder-N8": lambda: phase_reference_scenario(8, np.pi / 2),
    "mixed-N6": lambda: phase_reference_scenario(
        6, np.pi / 2, sigma_c=shifted_superposition_mixture(6, 0.4, weight=0.3)),
    "dilated": dilated_frame_scenario,
    "dilated-mixed-env": lambda: dilated_frame_scenario(omega=np.diag([0.7, 0.3])),
    "qutrit": lambda: _qutrit_sector_scenario(np.random.default_rng(17)),
    # a frame state without the ladder's symmetries: sigma_C^T differs from sigma_C
    "random-frame-state": lambda: phase_reference_scenario(
        4, 1.0, sigma_c=la.random_density(4, np.random.default_rng(3))),
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_induced_channel_from_isometry_matches_the_global_unitary(case):
    # the slices of the frame isometry against the reduced dynamics of the
    # unitary channel on all of S (x) C (x) E
    sc = CHAIN_CASES[case]()
    d_f = sc.d_c * sc.d_e
    want = induced_channel(Channel.from_unitary(sc.unitary), la.tensor(sc.sigma_c, sc.omega_e),
                           sc.d_s, d_f)
    np.testing.assert_allclose(sc.induced_system_channel().choi(), want.choi(),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
def test_ladder_unitary_matches_the_per_sector_loop(n):
    theta = 0.83
    want = np.eye(2 * n, dtype=complex)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    for q in range(1, n):
        up, dn = q, n + q - 1  # |0, q> and |1, q-1>
        want[up, up] = want[dn, dn] = c
        want[up, dn] = want[dn, up] = -1j * s
    np.testing.assert_array_equal(phase_ladder_unitary(n, theta), want)


def _purified_frame_overlap(t_prime, sc):
    """``psi -> <phi_C| Tr_S (T' (x) 1_C')(|psi><psi| (x) |phi_C><phi_C|) |phi_C>``
    for the purification phi_C of sigma_C on a full copy C', from the
    dilated Kraus operators ``K (x) 1_C'``, one state vector at a time."""
    d_c = sc.d_c
    w, v = np.linalg.eigh(sc.sigma_c)
    phi = sum(np.sqrt(max(w[i], 0.0)) * np.kron(v[:, i], np.eye(d_c)[i]) for i in range(d_c))
    dilated = [np.kron(k, np.eye(d_c)) for k in t_prime.kraus]

    def overlap(psi):
        return sum(np.linalg.norm((k @ np.kron(psi, phi)).reshape(sc.d_s, -1) @ phi.conj()) ** 2
                   for k in dilated)

    return overlap


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_tabulated_chain_matches_per_sample_oracle(case, monkeypatch):
    sc = CHAIN_CASES[case]()
    factored = []

    def counted(rho):
        factored.append(len(rho))
        return la.support_factor(rho)

    for module in (refframe, channels):
        monkeypatch.setattr(module, "support_factor", counted)
    t_prime, report = catalytic_channel(sc)
    # sigma_C and omega_E are each factored once
    assert factored == [sc.d_c, sc.d_e]
    monkeypatch.undo()
    # T' on S from the recovered isometry against the reduced dynamics of T'
    # on S (x) C, which factors sigma_C a second time
    assert report.induced_identity_defect <= 1e-14
    t_prime_s = induced_channel(t_prime, sc.sigma_c, sc.d_s, sc.d_c)
    np.testing.assert_allclose(t_prime_s.choi(), sc.induced_system_channel().choi(),
                               rtol=0, atol=1e-14)
    sup2, pullback_dist, min_fid, drift_dists, least_drift, frame = _per_sample_oracle(sc, seed=4)
    assert abs(report.sup_deviation_sq - sup2) <= 1e-12
    assert abs(report.recovery_pullback_distance - pullback_dist) <= 1e-12
    assert abs(report.min_fidelity - min_fid) <= 1e-12
    # the drift certificate sqrt(1 - F^2) lies above every sampled drift
    # distance and the distance at the least-fidelity input, itself >= 1 - F^2
    drift_cert = report.worst_output_drift_distance
    assert abs(drift_cert - np.sqrt(1 - min_fid ** 2)) <= 1e-12
    assert max(drift_dists + [least_drift]) <= drift_cert + 1e-12
    assert least_drift >= 1 - min_fid ** 2 - 1e-12
    # the frame certificate lies above every sampled frame distance; the
    # witness input attains its purified overlap 1 - worst^2, and the witness
    # distance is the dense distance there
    assert max(frame(rho) for rho in _system_states(sc.d_s, 5)) <= report.worst_distance + 1e-12
    x = report.witness_input
    overlap = _purified_frame_overlap(t_prime, sc)
    assert abs(overlap(x) - (1 - report.worst_distance ** 2)) <= 1e-12
    assert abs(frame(np.outer(x, x.conj())) - report.witness_distance) <= 1e-12
    assert report.witness_distance <= report.worst_distance
    assert report.outcome == "passed", report.failures


class _Proxy:
    """``inner`` with the attributes ``over`` replaced."""

    def __init__(self, inner, **over):
        self.__dict__.update(over)
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_frame_gram_and_overlaps_match_slow_oracles(case, monkeypatch):
    # slow oracles for the matrices the chain diagonalises: Y from the whole
    # Kraus stack of T' contracted with sigma_C, and the overlap matrix from
    # the frame outputs tabulated on the d_s^2 matrix units of S; the drifted
    # frame is the top eigenvector of their average
    sc = CHAIN_CASES[case]()
    seen = {"eigh": [], "eigvalsh": []}

    def recorded(name):
        def solve(a):
            seen[name].append(a)
            return getattr(np.linalg, name)(a)
        return solve

    linalg = _Proxy(np.linalg, eigh=recorded("eigh"), eigvalsh=recorded("eigvalsh"))
    monkeypatch.setattr(refframe, "np", _Proxy(np, linalg=linalg))
    t_prime, report = catalytic_channel(sc)
    monkeypatch.undo()
    (gram,), (overlaps,) = seen["eigh"], seen["eigvalsh"]
    d_s, d_c = sc.d_s, sc.d_c
    k = t_prime.kraus.reshape(-1, d_s, d_c, d_s, d_c)
    y = np.einsum("nsxbc,cx->nsb", k, sc.sigma_c).reshape(-1, d_s)
    np.testing.assert_allclose(gram, y.conj().T @ y, rtol=0, atol=1e-14)
    m, phi = sc.isometry
    d_v = len(phi)
    flat = m.transpose(2, 1, 0).reshape(d_s * d_v, d_s)
    out_units = (flat @ flat.conj().T).reshape(d_s, d_v, d_s, d_v).transpose(0, 2, 1, 3)
    wphi = report.drift_state
    np.testing.assert_allclose(overlaps, (out_units @ wphi) @ wphi.conj(), rtol=0, atol=1e-14)
    top = np.linalg.eigh(np.trace(out_units) / d_s)[1][:, -1]
    assert abs(abs(np.vdot(top, wphi)) - 1) <= 1e-12


def test_recovery_chain_peak_stays_below_twice_the_returned_stack():
    # T' is built after the last check, so no check runs beside its Kraus stack
    sc = phase_reference_scenario(256, np.pi / 2)
    tracemalloc.start()
    try:
        t_prime, report = catalytic_channel(sc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.outcome == "passed"
    assert peak < 2 * t_prime.kraus.nbytes


def _covariance_bound(sc, t_prime):
    """``(||D_T||, bound, report)`` for the one conserved quantity of ``sc``:
    the Frobenius norm of T''s superoperator commutator, summed densely over
    the matrix units of S (x) C, the bound of `catalytic_channel`'s docstring
    on it, read from the residuals ``Delta = U Z - Z U`` and
    ``[X_E, omega_E]`` alone, and the `is_covariant` report of T', whose
    defect before scaling is that norm."""
    (xs,), (xc,), (xe,) = sc.gens_s, sc.gens_c, sc.gens_e
    d_s, d_c, d_e = sc.d_s, sc.d_c, sc.d_e
    x = la.tensor(xs, np.eye(d_c)) + la.tensor(np.eye(d_s), xc)
    z = la.tensor(x, np.eye(d_e)) + la.tensor(np.eye(d_s * d_c), xe)
    d_t = 0.0
    for unit in np.eye((d_s * d_c) ** 2).reshape(-1, d_s * d_c, d_s * d_c):
        out = t_prime.apply(x @ unit - unit @ x) - x @ t_prime.apply(unit) + t_prime.apply(unit) @ x
        d_t += np.linalg.norm(out) ** 2
    d_t = np.sqrt(d_t)
    cov = is_covariant(t_prime, [x], [x], tol=1e-9)
    assert abs(d_t - cov.worst_violation * generator_scale(x, x)) <= 1e-13 + 1e-9 * d_t
    delta = sc.unitary @ z - z @ sc.unitary
    env = xe @ sc.omega_e - sc.omega_e @ xe
    bound = np.sqrt(d_e) * (2 * (np.linalg.norm(sc.unitary) + np.sqrt(d_s * d_c))
                            * np.linalg.norm(delta) + d_s * d_c * np.linalg.norm(env))
    return d_t, bound, cov


def _trace_preservation_bound(sc, t_prime):
    """``(||sum K'^dag K' - 1||, bound)`` in the operator norm: T''s
    trace-preservation defect, summed densely one Kraus operator at a time,
    and the bound of `catalytic_channel`'s docstring on it, from U's
    unitarity defect and the recovery's trace-preservation defect."""
    def defect(ks):
        return np.linalg.norm(sum(k.conj().T @ k for k in ks) - np.eye(ks.shape[2]), 2)

    u = sc.unitary
    bound = (np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2)
             + np.linalg.norm(u, 2) ** 2 * defect(recovery_channel(sc).kraus))
    return defect(t_prime.kraus), bound


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_recovered_dynamics_against_the_slow_oracles(case):
    # check (b) reads the recovery's covariance from the admitted residual;
    # T' itself stays covariant, its defect obeys the bound read from the
    # residuals, and T' is the channel of the
    # former construction: (1_S (x) K_r) U on S (x) C (x) E, then E traced
    # out by an eigendecomposition of omega_E
    sc = CHAIN_CASES[case]()
    t_prime, report = catalytic_channel(sc)
    d_t, bound, cov = _covariance_bound(sc, t_prime)
    assert cov.covariant and cov.worst_violation <= 1e-9
    assert report.covariance_defect <= 1e-14
    # the commands' report, without T', is the one returned beside T'
    assert verify_recovery(sc).to_json() == report.to_json()
    # both sides are round-off here, so the bound holds up to that round-off
    assert d_t <= bound + 1e-13
    # T' and the induced system channel are built unchecked; both are trace
    # preserving, and the defect of T' obeys the bound read from the recovery's
    assert t_prime.trace_preservation_defect() <= CHANNEL_TOL
    assert sc.induced_system_channel().trace_preservation_defect() <= CHANNEL_TOL
    tp_defect, tp_bound = _trace_preservation_bound(sc, t_prime)
    assert tp_defect <= tp_bound + 1e-14
    d_s, d_c, d_f = sc.d_s, sc.d_c, sc.d_c * sc.d_e
    kraus = recovery_channel(sc).kraus
    on_sce = (kraus[:, None] @ sc.unitary.reshape(d_s, d_f, -1)).reshape(-1, d_s * d_f, d_s * d_f)
    if sc.d_e == 1:
        np.testing.assert_array_equal(t_prime.kraus, on_sce)
    else:
        want = induced_channel(Channel(on_sce), sc.omega_e, d_s * d_c, sc.d_e)
        np.testing.assert_allclose(t_prime.choi(), want.choi(), rtol=0, atol=1e-14)


def _recovery_defects(sc):
    """``(D_R, identity, unitary_form)`` on every matrix unit Y of C (x) E, each
    a stack of d_f x d_f matrices: ``R([G, Y]) - [G, R(Y)]`` from R's Kraus
    operators, the identity's right side
    ``(1/d_s) Tr_S(U^dag (1 (x) Y) Delta - Delta^dag (1 (x) Y) U)``, and its
    form for unitary U, ``-(1/d_s) Tr_S(U^dag [Delta U^dag, 1 (x) Y] U)``, with
    Delta the residual that `conservation_defects` hands to admission."""
    (xc,), (xe,) = sc.gens_c, sc.gens_e
    d_s, d_f = sc.d_s, sc.d_c * sc.d_e
    g = la.tensor(xc, np.eye(sc.d_e)) + la.tensor(np.eye(sc.d_c), xe)
    legs = [sc.gens_s, sc.gens_c, sc.gens_e]
    ((delta, _),) = conservation_defects(sc.unitary, legs, legs)
    kraus, u = recovery_channel(sc).kraus, sc.unitary
    units = np.eye(d_f * d_f).reshape(-1, d_f, d_f)

    def rec(y):
        return np.einsum("kij,njl,kml->nim", kraus, y, kraus.conj())

    def tr_s(a):
        return np.trace(a.reshape(-1, d_s, d_f, d_s, d_f), axis1=1, axis2=3) / d_s

    lifted = np.array([la.tensor(np.eye(d_s), y) for y in units])
    u_dag, delta_dag = u.conj().T, delta.conj().T
    identity = tr_s(u_dag @ lifted @ delta - delta_dag @ lifted @ u)
    comm = delta @ u_dag @ lifted - lifted @ delta @ u_dag
    return (rec(g @ units - units @ g) - (g @ rec(units) - rec(units) @ g), identity,
            -tr_s(u_dag @ comm @ u))


KICKED_LADDERS = {f"ladder-N{n}-kick{kappa:g}": (n, kappa)
                  for n in (4, 8, 16) for kappa in (1e-10, 3e-11)}


@pytest.mark.parametrize("case", list(CHAIN_CASES) + list(KICKED_LADDERS))
def test_recovery_covariance_defect_is_read_from_the_admitted_residual(case):
    # the identity on every matrix unit, the bound it gives, and the dense
    # defect and `is_covariant` on R as the slow oracles of that bound
    if case in CHAIN_CASES:
        sc = CHAIN_CASES[case]()
    else:
        n, kappa = KICKED_LADDERS[case]
        sc = kicked_frame(phase_reference_scenario(n, np.pi / 2), kappa)
    d_r, identity, unitary_form = _recovery_defects(sc)
    np.testing.assert_allclose(identity, d_r, rtol=0, atol=1e-14)
    np.testing.assert_allclose(unitary_form, d_r, rtol=0, atol=1e-14)
    legs = [sc.gens_s, sc.gens_c, sc.gens_e]
    ((delta, scale),) = conservation_defects(sc.unitary, legs, legs)
    bound = 2 * np.linalg.norm(sc.unitary) * np.linalg.norm(delta) / sc.d_s
    assert sc.covariance_bound == pytest.approx(bound / scale, rel=1e-12, abs=0)
    dense = np.linalg.norm(d_r)
    (xc,), (xe,) = sc.gens_c, sc.gens_e
    g = la.tensor(xc, np.eye(sc.d_e)) + la.tensor(np.eye(sc.d_c), xe)
    cov = is_covariant(recovery_channel(sc), [g], [g], tol=1e-9)
    assert abs(cov.worst_violation * generator_scale(g, g) - dense) <= 1e-14 + 1e-9 * dense
    if case in KICKED_LADDERS:
        assert 1e-12 <= dense <= bound and cov.worst_violation <= bound
    else:  # Delta vanishes; R's dense defect is the round-off of applying it
        assert bound == 0.0 and dense <= 1e-14 and cov.covariant


@pytest.mark.parametrize("dilated", [False, True])
def test_recovery_covariance_bounds_that_of_the_recovered_dynamics(dilated):
    # dynamics and environment state perturbed within the admission
    # tolerance, so that every term of the bound is far above round-off
    sc = kicked_frame(dilated_frame_scenario(omega=np.diag([0.7, 0.3])), 1e-10, 1e-10) \
        if dilated else kicked_frame(phase_reference_scenario(4, np.pi / 2), 1e-10)
    t_prime, report = catalytic_channel(sc)
    assert report.covariance_defect >= 1e-11
    # the bound refutes nothing: above the tolerance, check (b) is open
    assert report.outcome == "inconclusive" and not report.failures
    assert any("recovery covariance" in c for c in report.inconclusive)
    d_t, bound, _ = _covariance_bound(sc, t_prime)
    assert 1e-11 <= d_t <= bound


@pytest.mark.parametrize("dilated", [False, True])
def test_recovery_trace_preservation_bounds_that_of_the_recovered_dynamics(dilated):
    # dynamics kicked off unitarity within the admission tolerance, so that
    # both defects of the bound are far above round-off
    rng = np.random.default_rng(12)
    base = dilated_frame_scenario(omega=np.diag([0.7, 0.3])) if dilated \
        else phase_reference_scenario(4, np.pi / 2)
    kick = rng.standard_normal(base.unitary.shape) + 1j * rng.standard_normal(base.unitary.shape)
    sc = FrameScenario(unitary=base.unitary + 1e-11 * kick, sigma_c=base.sigma_c,
                       target=base.target, gens_s=base.gens_s, gens_c=base.gens_c,
                       gens_e=base.gens_e, omega_e=base.omega_e)
    t_prime, _ = catalytic_channel(sc)
    assert recovery_channel(sc).trace_preservation_defect() >= 1e-12
    tp_defect, tp_bound = _trace_preservation_bound(sc, t_prime)
    assert 1e-12 <= tp_defect <= tp_bound


@pytest.mark.parametrize("case", [c for c in CHAIN_CASES if c != "qutrit"])
def test_pure_state_scan_stays_below_the_frame_certificate(case):
    # a 20 x 20 grid of the Bloch sphere of S. At each input psi the frame
    # distance is read densely from T'(|psi><psi| (x) sigma_C); the overlap
    # 1 - worst^2 of the certificate is the least purified overlap, and each
    # distance obeys Fuchs-van de Graaf.
    sc = CHAIN_CASES[case]()
    t_prime, report = catalytic_channel(sc)
    overlap = _purified_frame_overlap(t_prime, sc)
    least = 1 - report.worst_distance ** 2
    scan = []
    for polar in np.linspace(0, np.pi, 20):
        for azimuth in np.linspace(0, 2 * np.pi, 20, endpoint=False):
            psi = np.array([np.cos(polar / 2), np.exp(1j * azimuth) * np.sin(polar / 2)])
            out = t_prime.apply(la.tensor(np.outer(psi, psi.conj()), sc.sigma_c))
            scan.append(la.trace_distance(la.partial_trace(out, [2, sc.d_c], [1]), sc.sigma_c))
            fid_sq = overlap(psi)
            assert fid_sq >= least - 1e-12
            assert scan[-1] <= np.sqrt(1 - fid_sq) + 1e-12
    assert len(scan) == 400
    assert max(scan) <= report.worst_distance + 1e-12


@pytest.mark.parametrize("theta", [np.pi / 2, 1.0, 1e-2])
@pytest.mark.parametrize("n", [2, 9, 24])
def test_phase_ladder_extrema_sit_at_basis_inputs(n, theta):
    # on the ladders the exact drift supremum and least fidelity are reached
    # at basis inputs of S, so they agree with a scan of |0> and |1>
    sc = phase_reference_scenario(n, theta)
    report = catalytic_channel(sc)[1]
    m, _ = sc.isometry
    wphi = report.drift_state
    cols = m - sc.target[:, None, :] * wphi[None, :, None]  # [a, v, b]
    sup2 = max(np.linalg.norm(cols[..., b]) ** 2 for b in range(2))
    fid = min(np.linalg.norm(m[..., b] @ wphi.conj()) for b in range(2))
    assert abs(report.sup_deviation_sq - sup2) <= 1e-12
    assert abs(report.min_fidelity - fid) <= 1e-12


def assert_passed_follows_verdict(report):
    """``passed`` is no stored field: it is read from the outcome, and written
    beside it, under ``verdict``."""
    assert "passed" not in {f.name for f in dataclasses.fields(RecoveryReport)}
    assert not hasattr(report, "passed")
    js = report.to_json()
    assert js["passed"] is (report.outcome == "passed")
    assert js["verdict"] == report.outcome


def _with_bracket(monkeypatch, lower, upper):
    """Let the pipeline see the diamond bracket [lower, upper]."""
    def bracket(t1, t2):
        return DiamondResult(value=(lower + upper) / 2, status="converged",
                             lower=lower, upper=upper, iterations=0)
    monkeypatch.setattr(refframe, "diamond_distance", bracket)


def test_checks_are_judged_at_both_ends_of_the_bracket(monkeypatch):
    sc = phase_reference_scenario(8, np.pi / 2)
    eps = implementation_error(sc).value
    _, exact = catalytic_channel(sc)
    assert exact.outcome == "passed" and not exact.inconclusive
    assert_passed_follows_verdict(exact)
    # the frame distance check straddles: it holds at the upper end only
    worst, witness = exact.worst_distance, exact.witness_distance

    def eps_at(distance):  # the eps whose bound plus slack reads this distance
        return (distance - refframe.DIAMOND_SLACK) ** 2 / 8

    _with_bracket(monkeypatch, eps_at(worst) * 0.9, eps)
    _, report = catalytic_channel(sc)
    assert report.worst_distance == exact.worst_distance
    assert report.outcome == "inconclusive" and not report.failures
    assert_passed_follows_verdict(report)
    assert any("worst frame distance" in c for c in report.inconclusive)
    assert report.bound_lower < worst < report.bound_upper
    assert report.bound_lower <= report.bound <= report.bound_upper
    js = report.to_json()
    assert js["verdict"] == "inconclusive" and js["inconclusive"] == list(report.inconclusive)
    # the certificate alone refutes nothing: a bracket whose upper end lies
    # between the witness and the certificate leaves the frame check open
    mid = eps_at((witness + worst) / 2)
    _with_bracket(monkeypatch, mid * 0.9, mid)
    _, report = catalytic_channel(sc)
    assert any("worst frame distance" in c for c in report.inconclusive)
    assert not any("worst frame distance" in f for f in report.failures)
    # a bracket wholly below the witness refutes the check
    _with_bracket(monkeypatch, eps_at(witness) * 0.45, eps_at(witness) * 0.9)
    _, report = catalytic_channel(sc)
    assert report.outcome == "failed" and any("worst frame distance" in f for f in report.failures)
    assert_passed_follows_verdict(report)
    # the drift distance likewise lies in [1 - F^2, sqrt(1 - F^2)]
    drift_low, drift_cert = 1 - exact.min_fidelity ** 2, exact.worst_output_drift_distance
    mid = ((drift_low + drift_cert) / 2 - refframe.METRIC_SLACK) ** 2 / 2
    _with_bracket(monkeypatch, mid * 0.9, mid)
    _, report = catalytic_channel(sc)
    assert any("output drift distance" in c for c in report.inconclusive)
    assert not any("output drift distance" in f for f in report.failures)
    below = (drift_low - refframe.METRIC_SLACK) ** 2 / 2 * 0.9
    _with_bracket(monkeypatch, below / 2, below)
    _, report = catalytic_channel(sc)
    assert any("output drift distance" in f for f in report.failures)
    # a wide bracket whose lower end passes every check is a pass
    _with_bracket(monkeypatch, eps, 1.0)
    _, report = catalytic_channel(sc)
    assert report.outcome == "passed"
    assert_passed_follows_verdict(report)


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_recovery_kraus_match_dual_of_per_eigenvector_loop(case):
    sc = CHAIN_CASES[case]()
    d_s = sc.d_s
    want = hs_dual(env_channel_loop(sc.unitary, np.eye(d_s) / d_s, d_s, sc.d_c * sc.d_e)).kraus
    got = recovery_channel(sc).kraus
    assert len(got) == len(want) == d_s * d_s
    for k_got, k_want in zip(got, want):
        np.testing.assert_allclose(k_got, k_want, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_single_row_matches_scenario():
    sweep = degradation_sweep([4], np.pi / 2)
    reports = sweep.reports
    assert len(reports) == 1
    report = reports[0]
    assert isinstance(report, RecoveryReport)
    eps = implementation_error(phase_reference_scenario(4, np.pi / 2)).value
    assert abs(report.epsilon - eps) < 2e-6
    assert abs(report.bound - 2 * np.sqrt(2 * report.epsilon)) < 1e-12
    assert report.worst_distance <= report.bound
    assert sweep.rows[0].endswith(",ok") and report.outcome == "passed"


@pytest.fixture(scope="module")
def ladder_report():
    return verify_recovery(phase_reference_scenario(4, np.pi / 2))


@pytest.mark.parametrize("bracket, failures, inconclusive, status, verdict", [
    ("converged", (), (), "ok", "passed"),
    ("converged", ("frame distance",), (), "FAILED", "failed"),
    ("bounds", ("frame distance",), ("eps bracket open",), "FAILED", "failed"),
    ("bounds", (), ("eps bracket open",), "bounds", "inconclusive"),
    ("converged", (), ("frame distance: undecided",), "inconclusive", "inconclusive"),
])
def test_sweep_status_column_and_json_verdict(ladder_report, bracket, failures, inconclusive,
                                              status, verdict):
    """The row's status is derived in `SweepReport.rows` from failures, the
    bracket and inconclusive checks, in that order; ``passed`` and ``verdict``
    in the JSON from the outcome."""
    report = dataclasses.replace(
        ladder_report, failures=failures, inconclusive=inconclusive,
        epsilon_result=dataclasses.replace(ladder_report.epsilon_result, status=bracket))
    row = SweepReport((4,), np.pi / 2, (report,)).rows[0]
    assert row.split(",")[6] == status
    js = report.to_json()
    assert js["verdict"] == verdict == report.outcome
    assert js["passed"] is (verdict == "passed")


def test_sweep_epsilon_monotone():
    reports = degradation_sweep([2, 4, 8], np.pi / 2).reports
    eps = [r.epsilon for r in reports]
    assert all(eps[i + 1] <= eps[i] + 1e-9 for i in range(len(eps) - 1))

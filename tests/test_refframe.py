import numpy as np
import pytest

from covcat import linalg as la
from covcat import refframe
from covcat.channels import (Channel, CovarianceReport, env_channel, hs_dual, induced_channel,
                             is_covariant)
from covcat.diamond import DiamondResult
from covcat.refframe import (
    FrameScenario,
    SWEEP_CSV_HEADER,
    catalytic_channel,
    degradation_sweep,
    implementation_error,
    phase_ladder_unitary,
    phase_reference_scenario,
    recovery_channel,
    sweep_to_csv,
)
from covcat.refframe import _sample_system_states

from conftest import dilated_frame_scenario, env_channel_loop, shifted_superposition_mixture

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
    drift = catalytic_channel(sc)[1].drift
    assert drift.sup_deviation_sq <= 1e-10


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
    drift = catalytic_channel(sc)[1].drift
    assert drift.sup_deviation_sq <= 2 * eps + 1e-6


def test_drift_improves_with_frame_size():
    d4 = catalytic_channel(phase_reference_scenario(4, np.pi / 2))[1].drift
    d8 = catalytic_channel(phase_reference_scenario(8, np.pi / 2))[1].drift
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
    _, report = catalytic_channel(sc, samples=20, seed=1)
    assert report.passed, report.failures
    assert report.epsilon <= 1e-6
    assert report.worst_distance <= 1e-6
    assert report.bound <= 2 * np.sqrt(2e-6) + 1e-12


def test_phase_reference_pipeline_n16():
    sc = phase_reference_scenario(16, np.pi / 2)
    t_prime, report = catalytic_channel(sc, samples=30, seed=5)
    assert report.passed, report.failures
    assert report.worst_distance <= report.bound + 1e-5
    assert report.min_fidelity >= 1 - report.epsilon - 1e-6
    assert report.induced_identity_defect <= 1e-8
    assert report.covariance_defect <= 1e-9
    assert t_prime.is_trace_preserving()


def test_mixed_frame_state_pipeline():
    sigma = shifted_superposition_mixture(8, 0.2)
    sc = phase_reference_scenario(8, np.pi / 2, sigma_c=sigma)
    _, report = catalytic_channel(sc, samples=20, seed=2)
    assert report.passed, report.failures


def test_dilated_dynamics_pipeline(rng):
    sc = dilated_frame_scenario()
    t_prime, report = catalytic_channel(sc, samples=20, seed=3)
    assert report.passed, report.failures
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
                               dilated.frame_state, rtol=0, atol=1e-14)
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


def _per_sample_oracle(sc, samples, seed):
    """The chain and the sampled distances, one global product per sample.

    The frame state sigma_C (x) omega_E is purified on a full copy of C (x) E
    (every eigenvector), and every frame output builds its own environment
    channel. The drift supremum is the operator norm of the dense columns
    ``U(|b> (x) phi) - V|b> (x) W phi``, the least fidelity the square root
    of the smallest eigenvalue of ``O[b, c] = <W phi| out(|b><c|) |W phi>``;
    the extrema are checked against probes, the sampled fidelities and the
    eigenvector input.
    """
    d_s, d_c, d_e = sc.d_s, sc.d_c, sc.d_e
    d_f = d_c * d_e
    w, v = np.linalg.eigh(sc.frame_state)
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
    worst_drift = 0.0
    for rho in _sample_system_states(d_s, min(24, samples), seed + 2):
        frame_out = out(rho)
        assert la.fidelity(frame_out, w_rho) >= min_fid - 1e-12
        worst_drift = max(worst_drift, la.trace_distance(frame_out, w_rho))
    recovery = recovery_channel(sc)
    dists = []
    for rho in _sample_system_states(d_s, samples, seed):
        big = sc.unitary @ la.tensor(rho, sc.frame_state) @ sc.unitary.conj().T
        recovered = recovery.apply(la.partial_trace(big, [d_s, d_f], [1]))
        final_c = la.partial_trace(recovered, [d_c, d_e], [0])
        dists.append(la.trace_distance(final_c, sc.sigma_c))
    return sup2, pullback_dist, min_fid, worst_drift, dists


CHAIN_CASES = {
    "ladder-N8": lambda: phase_reference_scenario(8, np.pi / 2),
    "mixed-N6": lambda: phase_reference_scenario(
        6, np.pi / 2, sigma_c=shifted_superposition_mixture(6, 0.4, weight=0.3)),
    "dilated": dilated_frame_scenario,
    "dilated-mixed-env": lambda: dilated_frame_scenario(omega=np.diag([0.7, 0.3])),
    "qutrit": lambda: _qutrit_sector_scenario(np.random.default_rng(17)),
}


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_induced_channel_from_isometry_matches_the_global_unitary(case):
    # the slices of the frame isometry against the reduced dynamics of the
    # unitary channel on all of S (x) C (x) E
    sc = CHAIN_CASES[case]()
    d_f = sc.d_c * sc.d_e
    want = induced_channel(Channel.from_unitary(sc.unitary), sc.frame_state, sc.d_s, d_f)
    np.testing.assert_allclose(sc.induced_system_channel().choi(), want.choi(),
                               rtol=0, atol=1e-14)


@pytest.mark.parametrize("d, samples, seed", [(2, 1, 0), (2, 2, 5), (3, 2, 1), (2, 30, 4),
                                              (3, 24, 6), (4, 7, 11), (1, 3, 2)])
def test_sampled_states_match_the_per_state_draws(d, samples, seed):
    rng = np.random.default_rng(seed)
    n_pure = min(samples, max(1, round(samples * 0.64)))
    want = [la.random_pure_state(d, rng) for _ in range(n_pure)]
    want += [la.random_density(d, rng) for _ in range(samples - n_pure)]
    got = _sample_system_states(d, samples, seed)
    assert got.shape == (samples, d, d)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_tabulated_chain_matches_per_sample_oracle(case):
    sc = CHAIN_CASES[case]()
    _, report = catalytic_channel(sc, samples=30, seed=4)
    sup2, pullback_dist, min_fid, worst_drift, dists = _per_sample_oracle(sc, samples=30, seed=4)
    assert abs(report.drift.sup_deviation_sq - sup2) <= 1e-12
    assert abs(report.recovery_pullback_distance - pullback_dist) <= 1e-12
    assert abs(report.min_fidelity - min_fid) <= 1e-12
    assert abs(report.worst_output_drift_distance - worst_drift) <= 1e-12
    np.testing.assert_allclose(report.distances, dists, rtol=0, atol=1e-12)
    assert report.passed, report.failures


@pytest.mark.parametrize("theta", [np.pi / 2, 1.0, 1e-2])
@pytest.mark.parametrize("n", [2, 9, 24])
def test_phase_ladder_extrema_sit_at_basis_inputs(n, theta):
    # on the ladders the exact drift supremum and least fidelity are reached
    # at basis inputs of S, so they agree with a scan of |0> and |1>
    sc = phase_reference_scenario(n, theta)
    report = catalytic_channel(sc, samples=5, seed=4)[1]
    m, _ = sc.isometry
    wphi = report.drift.state
    cols = m - sc.target[:, None, :] * wphi[None, :, None]  # [a, v, b]
    sup2 = max(np.linalg.norm(cols[..., b]) ** 2 for b in range(2))
    fid = min(np.linalg.norm(m[..., b] @ wphi.conj()) for b in range(2))
    assert abs(report.drift.sup_deviation_sq - sup2) <= 1e-12
    assert abs(report.min_fidelity - fid) <= 1e-12


@pytest.mark.parametrize("chunk_bytes", [None, 1, 8 * 16 * 7 * 16])
@pytest.mark.parametrize("case", list(CHAIN_CASES))
def test_batched_distances_match_per_sample_trace_distance(case, chunk_bytes, monkeypatch):
    # chunk_bytes 1 puts one sample in each chunk; the last value makes chunks
    # of 112 / d^2 outputs of dimension d (7 at d = 4, one from d = 8 on),
    # with ragged tails
    if chunk_bytes is not None:
        monkeypatch.setattr(refframe, "CHUNK_BYTES", chunk_bytes)
    calls = []
    batched = refframe._sampled_distances

    def recorded(rhos, units, ref):
        got = batched(rhos, units, ref)
        calls.append((rhos, units, ref, got))
        return got

    monkeypatch.setattr(refframe, "_sampled_distances", recorded)
    _, report = catalytic_channel(CHAIN_CASES[case](), samples=30, seed=4)
    assert [len(c[0]) for c in calls] == [24, 30]  # drift distances, frame distances
    for rhos, units, ref, got in calls:
        want = [la.trace_distance(np.tensordot(rho, units, 2), ref) for rho in rhos]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
    assert report.distances == tuple(calls[1][3])


@pytest.mark.parametrize("case, ranks", [(8, (3, 5)), (16, (3, 5)), (64, (3, 5)),
                                         ("qutrit", (4, 5))])
def test_sampled_distances_run_on_the_joint_output_range(case, ranks, monkeypatch):
    # on the ladders from N = 5 up the drift outputs and W phi span 3
    # dimensions and the frame outputs and sigma_C 5; on the qutrit case the
    # frame outputs fill C (k = d_c). A few samples against dense distances.
    sc = CHAIN_CASES[case]() if case == "qutrit" else phase_reference_scenario(case, np.pi / 2)
    calls = []
    support = refframe._joint_support

    def recorded(units, ref):
        q = support(units, ref)
        calls.append((units, ref, q.shape[1]))
        return q

    monkeypatch.setattr(refframe, "_joint_support", recorded)
    _, report = catalytic_channel(sc, samples=4, seed=4)
    assert tuple(k for *_, k in calls) == ranks
    if case == "qutrit":
        assert ranks[1] == sc.d_c

    def dense(call, seed):
        units, ref, _ = call
        return [la.trace_distance(np.tensordot(rho, units, 2), ref)
                for rho in _sample_system_states(sc.d_s, 4, seed)]

    assert abs(report.worst_output_drift_distance - max(dense(calls[0], 6))) <= 1e-12
    np.testing.assert_allclose(report.distances, dense(calls[1], 4), rtol=0, atol=1e-12)


def test_sampled_distances_keep_the_support_of_ref(rng):
    # the outputs V rho V^dag span two of six dimensions and ref all six, so
    # the compression must keep the support of ref as well as the outputs'
    d_s, d = 2, 6
    v = la.random_unitary(d, rng)[:, :d_s]
    units = np.einsum("ib,jc->bcij", v, v.conj())
    ref = la.random_density(d, rng)
    rhos = _sample_system_states(d_s, 6, 3)
    want = [la.trace_distance(v @ rho @ v.conj().T, ref) for rho in rhos]
    np.testing.assert_allclose(refframe._sampled_distances(rhos, units, ref), want,
                               rtol=0, atol=1e-12)


def _with_bracket(monkeypatch, lower, upper):
    """Let the pipeline see the diamond bracket [lower, upper]."""
    def bracket(t1, t2):
        return DiamondResult(value=(lower + upper) / 2, status="converged",
                             lower=lower, upper=upper, iterations=0)
    monkeypatch.setattr(refframe, "diamond_distance", bracket)


def test_checks_are_judged_at_both_ends_of_the_bracket(monkeypatch):
    sc = phase_reference_scenario(8, np.pi / 2)
    eps = implementation_error(sc).value
    _, exact = catalytic_channel(sc, samples=30, seed=4)
    assert exact.verdict == "passed" and exact.passed and not exact.inconclusive
    # the frame distance check straddles: it holds at the upper end only
    worst = exact.worst_distance
    straddle = (worst - refframe.DIAMOND_SLACK) ** 2 / 8 * 0.9
    _with_bracket(monkeypatch, straddle, eps)
    _, report = catalytic_channel(sc, samples=30, seed=4)
    assert report.distances == exact.distances
    assert report.verdict == "inconclusive" and not report.passed and not report.failures
    assert any("worst frame distance" in c for c in report.inconclusive)
    assert report.bound_lower < worst < report.bound_upper
    assert report.bound_lower <= report.bound <= report.bound_upper
    js = report.to_json()
    assert js["verdict"] == "inconclusive" and js["inconclusive"] == list(report.inconclusive)
    # a bracket wholly below the checks refutes them
    _with_bracket(monkeypatch, straddle / 2, straddle)
    _, report = catalytic_channel(sc, samples=30, seed=4)
    assert report.verdict == "failed" and any("worst frame distance" in f for f in report.failures)
    # a wide bracket whose lower end passes every check is a pass
    _with_bracket(monkeypatch, eps, 1.0)
    _, report = catalytic_channel(sc, samples=30, seed=4)
    assert report.verdict == "passed" and report.passed


def test_covariance_defect_within_rounding_is_inconclusive(monkeypatch):
    sc = phase_reference_scenario(4, np.pi / 2)
    for conclusive, verdict in ((False, "inconclusive"), (True, "failed")):
        monkeypatch.setattr(refframe, "is_covariant",
                            lambda *args, **kwargs: CovarianceReport(False, 2e-9, conclusive))
        _, report = catalytic_channel(sc, samples=10, seed=4)
        assert report.verdict == verdict
        assert any("not covariant" in c for c in report.failures + report.inconclusive)


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
    rows = degradation_sweep([4], np.pi / 2, samples=15, seed=9)
    assert len(rows) == 1
    row = rows[0]
    eps = implementation_error(phase_reference_scenario(4, np.pi / 2)).value
    assert abs(row.epsilon - eps) < 2e-6
    assert abs(row.bound - 2 * np.sqrt(2 * row.epsilon)) < 1e-12
    assert row.worst_distance <= row.bound
    assert row.status == "ok"


def test_sweep_csv_format():
    rows = degradation_sweep([2, 4], np.pi / 2, samples=10, seed=1)
    text = sweep_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == SWEEP_CSV_HEADER == "N,theta,epsilon,bound,worst_distance,mean_distance,status"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert float(fields[4]) <= float(fields[3])  # worst <= bound


def test_sweep_epsilon_monotone():
    rows = degradation_sweep([2, 4, 8], np.pi / 2, samples=10, seed=2)
    eps = [r.epsilon for r in rows]
    assert all(eps[i + 1] <= eps[i] + 1e-9 for i in range(len(eps) - 1))

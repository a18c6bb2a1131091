import numpy as np
import pytest

from covcat import linalg as la
from covcat import symmetry as sym
from covcat.catalysis import (
    CatalysisScenario,
    correlation_balance,
    find_intertwiner,
    generate_admissible_scenario,
    rank_condition_counterexample,
    reduce_to_tuples,
    regular_rep_channel,
    state_swap_channel,
    verify_scenario,
)
from covcat.channels import CHANNEL_TOL, Channel, induced_channel, is_covariant
from covcat.words import find_simultaneous_unitary

from conftest import random_channel, s3_standard_images, scale_generators, stinespring_unitary_loop

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)


def product_scenario(rng, d_s=2, d_c=3, m=1):
    """Scenario with U = V0 (x) 1 for a planted intertwiner V0 commuting setup."""
    v0 = la.random_unitary(d_s, rng)
    gens_s = [la.random_hermitian(d_s, rng) for _ in range(m)]
    gens_c = [la.random_hermitian(d_c, rng) for _ in range(m)]
    rho = la.random_density(d_s, rng)
    return CatalysisScenario(
        unitary=la.tensor(v0, np.eye(d_c)),
        rho_s=rho,
        rho_s_out=v0 @ rho @ v0.conj().T,
        sigma_c=la.random_density(d_c, rng),
        gens_s_in=gens_s,
        gens_s_out=[v0 @ x @ v0.conj().T for x in gens_s],
        gens_c=gens_c,
    )


# ---------------------------------------------------------------------------
# scenario verification
# ---------------------------------------------------------------------------

def test_product_scenario_is_admissible(rng):
    report = verify_scenario(product_scenario(rng))
    assert report.admissible
    assert report.state_residual < 1e-12
    assert max(report.generator_residuals) < 1e-12


def test_swap_scenario_fails_state_equation(rng):
    rho, sigma = la.random_density(2, rng), la.random_density(2, rng)
    sc = CatalysisScenario(unitary=SWAP, rho_s=rho, rho_s_out=rho, sigma_c=sigma,
                           gens_s_in=[], gens_s_out=[], gens_c=[])
    report = verify_scenario(sc)
    assert not report.admissible
    assert report.state_residual > 1e-3


def test_generated_scenarios_are_admissible():
    for seed in range(10):
        sc = generate_admissible_scenario(2, 3, 2, seed=seed)
        report = verify_scenario(sc)
        assert report.admissible, (seed, report)
        assert report.state_residual < 1e-10


def test_generator_determinism():
    a = generate_admissible_scenario(3, 2, 1, seed=5)
    b = generate_admissible_scenario(3, 2, 1, seed=5)
    np.testing.assert_array_equal(a.unitary, b.unitary)
    np.testing.assert_array_equal(a.rho_s, b.rho_s)


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_zero_generators(rng):
    sc = product_scenario(rng, m=0)
    reduced = reduce_to_tuples(sc)
    assert len(reduced.system_a) == 1
    np.testing.assert_allclose(reduced.system_a[0], sc.rho_s, atol=0)
    np.testing.assert_allclose(reduced.catalyst[0], sc.sigma_c, atol=0)


def test_reduce_zero_generator_matrix_gives_identity_factor(rng):
    sc = product_scenario(rng, m=1)
    zeroed = CatalysisScenario(
        unitary=sc.unitary, rho_s=sc.rho_s, rho_s_out=sc.rho_s_out, sigma_c=sc.sigma_c,
        gens_s_in=[np.zeros((2, 2))], gens_s_out=[np.zeros((2, 2))],
        gens_c=[np.zeros((3, 3))])
    reduced = reduce_to_tuples(zeroed)
    np.testing.assert_allclose(reduced.system_a[1], np.eye(2), atol=1e-12)
    np.testing.assert_allclose(reduced.catalyst[1], np.eye(3), atol=1e-12)


def test_reduce_exponentials_match_eigenvalue_oracle(rng):
    sc = generate_admissible_scenario(3, 2, 2, seed=1)
    reduced = reduce_to_tuples(sc)
    for x, omega in zip(sc.gens_s_in, reduced.system_a[1:]):
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(omega)),
                                   np.sort(np.exp(-np.linalg.eigvalsh(x))), atol=1e-10)
        assert np.linalg.eigvalsh(omega)[0] > 1e-12


def test_reduce_rejects_inadmissible(rng):
    rho, sigma = la.random_density(2, rng), la.random_density(2, rng)
    sc = CatalysisScenario(unitary=SWAP, rho_s=rho, rho_s_out=rho, sigma_c=sigma,
                           gens_s_in=[], gens_s_out=[], gens_c=[])
    with pytest.raises(la.DomainError):
        reduce_to_tuples(sc)


def test_reduction_matches_joint_conjugation(rng):
    # the joint unitary conjugates the tensored tuples exactly
    sc = generate_admissible_scenario(2, 2, 1, seed=9)
    reduced = reduce_to_tuples(sc)
    u = sc.unitary
    for a_s, b_s, c in zip(reduced.system_a, reduced.system_b, reduced.catalyst):
        joint_a = la.tensor(a_s, c)
        joint_b = la.tensor(b_s, c)
        assert la.max_norm(u @ joint_a @ u.conj().T - joint_b) < 1e-9


# ---------------------------------------------------------------------------
# intertwiner construction
# ---------------------------------------------------------------------------

def test_intertwiner_on_planted_product_scenario(rng):
    sc = product_scenario(rng)
    result = find_intertwiner(sc)
    assert result.success
    assert result.state_residual < 1e-8
    assert result.intertwining_residual < 1e-8


def test_intertwiner_trivial_scenario(rng):
    gens = [la.random_hermitian(2, rng)]
    rho = la.random_density(2, rng)
    sc = CatalysisScenario(
        unitary=np.eye(4), rho_s=rho, rho_s_out=rho,
        sigma_c=la.random_density(2, rng),
        gens_s_in=gens, gens_s_out=gens, gens_c=[la.random_hermitian(2, rng)])
    result = find_intertwiner(sc)
    assert result.success
    assert result.state_residual < 1e-10
    assert result.intertwining_residual < 1e-10


def test_intertwiner_on_generated_scenarios():
    for seed in range(8):
        sc = generate_admissible_scenario(2 + seed % 2, 2 + seed % 3, 1 + seed % 2, seed=seed)
        result = find_intertwiner(sc, seed=seed)
        assert result.success, (seed, result.state_residual, result.intertwining_residual)
        assert result.state_residual <= 1e-7
        assert result.intertwining_residual <= 1e-7


def test_intertwiner_with_singular_states():
    sc = generate_admissible_scenario(3, 2, 1, seed=4, singular_states=True)
    assert np.linalg.eigvalsh(sc.rho_s)[0] < 1e-12  # really singular
    result = find_intertwiner(sc)
    assert result.success


@pytest.mark.parametrize("d_s", [8, 12, 16])
def test_intertwiner_with_degenerate_state_spectrum(d_s):
    # m = 0 and a two-fold degenerate rho_S: every combination of the reduced
    # tuple is degenerate, so the intertwiner lives in 2x2 eigenvalue blocks
    rng = np.random.default_rng(d_s)
    basis, planted = la.random_unitary(d_s, rng), la.random_unitary(d_s, rng)
    p = np.repeat(rng.uniform(0.05, 1.0, d_s // 2), 2)
    rho = basis @ np.diag(p / p.sum()) @ basis.conj().T
    sc = CatalysisScenario(
        unitary=la.tensor(planted, np.eye(2)), rho_s=rho,
        rho_s_out=planted @ rho @ planted.conj().T, sigma_c=np.diag([0.6, 0.4]),
        gens_s_in=[], gens_s_out=[], gens_c=[])
    result = find_intertwiner(sc, seed=1)
    assert result.success, result.solver.to_json()
    assert result.state_residual <= 1e-12
    assert result.solver.nullity == 2 * d_s  # d_s / 2 blocks of size 2


SCALED = [(3, 2, 2, 4)] + [(4, 2, 2, seed) for seed in range(4)]


@pytest.mark.parametrize("scale", [20, 30, 60, 1000])
@pytest.mark.parametrize("d_s, d_c, m, seed", SCALED)
def test_intertwiner_on_scaled_generators(d_s, d_c, m, seed, scale):
    # exp(-X) of the scaled generators is near-singular or overflows, so the
    # reduced tuples could not decide; the solver runs on the generators
    sc = scale_generators(generate_admissible_scenario(d_s, d_c, m, seed=seed), scale)
    assert verify_scenario(sc).admissible
    result = find_intertwiner(sc)
    assert result.success, result.solver.to_json()
    assert result.state_residual <= 1e-14 * scale
    assert result.intertwining_residual <= 1e-14 * scale


def test_intertwiner_rejects_inadmissible(rng):
    rho, sigma = la.random_density(2, rng), la.random_density(2, rng)
    sc = CatalysisScenario(unitary=SWAP, rho_s=rho, rho_s_out=rho, sigma_c=sigma,
                           gens_s_in=[], gens_s_out=[], gens_c=[])
    with pytest.raises(la.DomainError, match="not admissible"):
        find_intertwiner(sc)


# ---------------------------------------------------------------------------
# correlation balance
# ---------------------------------------------------------------------------

def test_balance_product_preserving_unitary(rng):
    sc = generate_admissible_scenario(2, 3, 1, seed=2)
    report = correlation_balance(sc.unitary, sc.rho_s, sc.sigma_c)
    assert report.catalyst_preserved
    assert abs(report.mutual_information) < 1e-9
    assert abs(report.entropy_change) < 1e-9
    assert report.rank_after >= report.rank_before


def test_balance_correlating_unitary():
    # conditional flip with maximally mixed catalyst: marginal preserved,
    # correlations created, entropy of the remainder grows by exactly ln 2
    cnot = np.zeros((4, 4), dtype=complex)
    cnot[0, 0] = cnot[1, 1] = cnot[2, 3] = cnot[3, 2] = 1.0
    plus = np.ones((2, 2), dtype=complex) / 2
    report = correlation_balance(cnot, plus, np.eye(2) / 2)
    assert report.catalyst_preserved
    assert report.mutual_information > 0.69
    assert report.identity_residual <= 1e-8
    assert report.rank_after > report.rank_before


def test_balance_pure_catalyst_forbids_correlation(rng):
    # a pure catalyst that returns unchanged cannot end up correlated
    sc = product_scenario(rng, m=0)
    pure = np.zeros((3, 3), dtype=complex)
    pure[0, 0] = 1.0
    report = correlation_balance(sc.unitary, sc.rho_s, pure)
    assert report.catalyst_preserved
    assert abs(report.mutual_information) < 1e-9


def test_entropy_and_rank_monotone_on_generated(seed_count=6):
    for seed in range(seed_count):
        sc = generate_admissible_scenario(2, 2, 1, seed=seed)
        report = correlation_balance(sc.unitary, sc.rho_s, sc.sigma_c)
        assert report.catalyst_preserved
        assert report.entropy_change >= -1e-9
        assert report.rank_after >= report.rank_before


# ---------------------------------------------------------------------------
# finite-group constructions
# ---------------------------------------------------------------------------

def test_trivial_group_lifts_target_unchanged(rng):
    g = sym.FiniteGroup.cyclic(1)
    rep_s = sym.FiniteGroupRep(g, [np.eye(2)])
    target = random_channel(2, 2, rng)
    lifted = regular_rep_channel(rep_s, target)
    rho = la.random_density(2, rng)
    out = lifted.apply(la.tensor(rho, np.eye(1)))
    np.testing.assert_allclose(out, target.apply(rho), atol=1e-10)


def test_z2_regular_rep_channel(rng):
    g = sym.FiniteGroup.cyclic(2)
    rep_s = sym.FiniteGroupRep(g, [np.eye(2), np.diag([1.0, -1.0])])
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    target = Channel.from_unitary(hadamard)  # not covariant on its own
    assert not is_covariant(target, rep_s, rep_s).covariant
    lifted = regular_rep_channel(rep_s, target)
    comp = sym.tensor_rep(rep_s, sym.left_regular_representation(g))
    assert is_covariant(lifted, comp, comp).covariant
    rho = la.random_density(2, rng)
    pointer = np.diag([1.0, 0.0]).astype(complex)
    out = lifted.apply(la.tensor(rho, pointer))
    np.testing.assert_allclose(out, la.tensor(hadamard @ rho @ hadamard.conj().T, pointer),
                               atol=1e-10)


def test_s3_regular_rep_channel(rng):
    g = sym.FiniteGroup.symmetric(3)
    rep_s = sym.FiniteGroupRep(g, s3_standard_images())
    comp = sym.tensor_rep(rep_s, sym.left_regular_representation(g))
    for _ in range(3):
        target = random_channel(2, 2, rng)
        lifted = regular_rep_channel(rep_s, target)
        assert lifted.trace_preservation_defect() <= CHANNEL_TOL
        report = is_covariant(lifted, comp, comp)
        assert report.covariant, report
        rho = la.random_density(2, rng)
        pointer = np.zeros((6, 6), dtype=complex)
        pointer[g.identity, g.identity] = 1.0
        out = lifted.apply(la.tensor(rho, pointer))
        np.testing.assert_allclose(out, la.tensor(target.apply(rho), pointer), atol=1e-9)


def test_regular_rep_channel_matches_hand_written_kraus(rng):
    g = sym.FiniteGroup.symmetric(3)
    rep_s = sym.FiniteGroupRep(g, s3_standard_images())
    d_s, d_e, n = 2, 3, g.order
    omega, unitary = la.random_density(d_e, rng), la.random_unitary(d_s * d_e, rng)
    # reference: rotate the environment-first unitary, contract with the
    # eigenvectors of omega_E, read off one Kraus operator per output E index
    v_env_first = unitary.reshape(d_s, d_e, d_s, d_e).transpose(1, 0, 3, 2).reshape(d_s * d_e, -1)
    w_env, v_env = np.linalg.eigh(omega)
    expected = []
    for y in range(n):
        rot = la.tensor(np.eye(d_e), rep_s.images[y])
        vb = (rot @ v_env_first @ rot.conj().T).reshape(d_e, d_s, d_e, d_s)
        pointer = np.zeros((n, n), dtype=complex)
        pointer[y, y] = 1.0
        for k in range(d_e):
            block = np.einsum("lanb,n->lab", vb, v_env[:, k])
            expected += [la.tensor(np.sqrt(w_env[k]) * block[l], pointer) for l in range(d_e)]
    lifted = regular_rep_channel(rep_s, induced_channel(Channel([unitary]), omega, d_s, d_e))
    assert len(lifted.kraus) == len(expected)
    for got, want in zip(lifted.kraus, expected):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def _stinespring_route(group, rep_s, unitary, omega, d_e):
    """Regular-representation lift through a dilation: rotate the unitary on
    S (x) E by W(y) (x) 1, reduce it with `induced_channel`, place it at |y><y|."""
    n, d_s = group.order, rep_s.dim
    ks = []
    for y in range(n):
        rot = la.tensor(rep_s.images[y], np.eye(d_e))
        turned = induced_channel(Channel([rot @ unitary @ rot.conj().T]), omega, d_s, d_e)
        pointer = np.zeros((n, n), dtype=complex)
        pointer[y, y] = 1.0
        ks += [la.tensor(k, pointer) for k in turned.kraus]
    return Channel(ks)


@pytest.mark.parametrize("kind", ["channel", "dilation-mixed-env"])
@pytest.mark.parametrize("group", ["Z2", "S3"])
def test_regular_rep_channel_matches_stinespring_route(group, kind, rng):
    if group == "Z2":
        g = sym.FiniteGroup.cyclic(2)
        rep_s = sym.FiniteGroupRep(g, [np.eye(2), np.diag([1.0, -1.0])])
    else:
        g = sym.FiniteGroup.symmetric(3)
        rep_s = sym.FiniteGroupRep(g, s3_standard_images())
    d_e = 3
    if kind == "channel":
        target = random_channel(2, d_e, rng)
        unitary = stinespring_unitary_loop(target)
        omega = np.zeros((d_e, d_e), dtype=complex)
        omega[0, 0] = 1.0
    else:
        omega, unitary = la.random_density(d_e, rng), la.random_unitary(2 * d_e, rng)
        target = induced_channel(Channel([unitary]), omega, 2, d_e)
    want = _stinespring_route(g, rep_s, unitary, omega, d_e)
    got = regular_rep_channel(rep_s, target)
    assert len(got.kraus) == len(want.kraus)
    assert la.max_norm(got.choi() - want.choi()) <= 1e-12


def test_regular_rep_channel_rejects_mismatched_target(rng):
    g = sym.FiniteGroup.cyclic(2)
    rep_s = sym.FiniteGroupRep(g, [np.eye(2), np.diag([1.0, -1.0])])
    with pytest.raises(la.DimensionError):
        regular_rep_channel(rep_s, random_channel(3, 2, rng))
    with pytest.raises(la.DimensionError):  # 2 -> 3 on a two-dimensional representation
        regular_rep_channel(rep_s, random_channel(2, 2, rng, d_out=3))


def test_state_swap_channel_properties(rng):
    g = sym.FiniteGroup.cyclic(2)
    rep_s = sym.FiniteGroupRep(g, [np.eye(2), np.diag([1.0, -1.0])])
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    swap = state_swap_channel(rep_s, rho, sigma, x=1)
    pointer = np.diag([0.0, 1.0]).astype(complex)
    out = swap.apply(la.tensor(rho, pointer))
    np.testing.assert_allclose(out, la.tensor(sigma, pointer), atol=1e-10)
    comp = sym.tensor_rep(rep_s, sym.left_regular_representation(g))
    assert is_covariant(swap, comp, comp).covariant
    # trace preservation on a full operator basis
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4), dtype=complex)
            e[i, j] = 1.0
            assert abs(np.trace(swap.apply(e)) - np.trace(e)) < 1e-10


def _state_swap_loop(rep_s, sigma, x):
    """Measure-and-prepare Kraus operators built per pointer state y from a
    fresh support factor of the rotated state W(y x^-1) sigma W(y x^-1)^dag."""
    group, n, d_s = rep_s.group, rep_s.group.order, rep_s.dim
    ks = []
    for y in range(n):
        w = rep_s.images[group.mul(y, group.inv(x))]
        amps = la.support_factor(w @ sigma @ w.conj().T)
        pointer = np.zeros((n, n), dtype=complex)
        pointer[y, y] = 1.0
        ks += [la.tensor(np.outer(amps[:, a], np.eye(d_s)[b]), pointer)
               for a in range(amps.shape[1]) for b in range(d_s)]
    return Channel(ks)


@pytest.mark.parametrize("group", ["Z2", "S3"])
def test_state_swap_channel_matches_per_pointer_construction(group, rng):
    if group == "Z2":
        rep_s = sym.FiniteGroupRep(sym.FiniteGroup.cyclic(2), [np.eye(2), np.diag([1.0, -1.0])])
    else:
        rep_s = sym.FiniteGroupRep(sym.FiniteGroup.symmetric(3), s3_standard_images())
    for x in range(rep_s.group.order):
        rho, sigma = la.random_density(2, rng), la.random_density(2, rng)
        got = state_swap_channel(rep_s, rho, sigma, x=x)
        want = _state_swap_loop(rep_s, sigma, x)
        assert len(got.kraus) == len(want.kraus)
        assert la.max_norm(got.choi() - want.choi()) <= 1e-14


def test_state_swap_identity_case(rng):
    g = sym.FiniteGroup.cyclic(2)
    rep_s = sym.FiniteGroupRep(g, [np.eye(2), np.diag([1.0, -1.0])])
    rho = la.random_density(2, rng)
    swap = state_swap_channel(rep_s, rho, rho, x=0)
    pointer = np.diag([1.0, 0.0]).astype(complex)
    out = swap.apply(la.tensor(rho, pointer))
    np.testing.assert_allclose(out, la.tensor(rho, pointer), atol=1e-10)


# ---------------------------------------------------------------------------
# fixture invariants
# ---------------------------------------------------------------------------

def test_fixture_commutation_relations():
    fx = rank_condition_counterexample()
    a1, a2, a3 = fx.a
    assert la.max_norm(a1 @ fx.w - fx.w @ a1) == 0.0
    assert la.max_norm(a2 @ fx.v - fx.v @ a2) == 0.0
    vw = fx.v.conj().T @ fx.w
    assert la.max_norm(a3 @ vw - vw @ a3) == 0.0


def test_fixture_gap_value():
    fx = rank_condition_counterexample()
    assert abs(fx.gap - 2 * np.sqrt(3)) < 1e-12


def test_fixture_catalyst_products_vanish():
    fx = rank_condition_counterexample()
    c1, c2, c3 = fx.c
    for order in ((c1, c2, c3), (c2, c1, c3), (c3, c2, c1)):
        prod = order[0] @ order[1] @ order[2]
        assert la.max_norm(prod) == 0.0


def test_fixture_pairwise_and_joint():
    fx = rank_condition_counterexample()
    for i, j in ((0, 1), (1, 2), (2, 0)):
        match = find_simultaneous_unitary([fx.a[i], fx.a[j]], [fx.b[i], fx.b[j]])
        assert match.success and match.residual < 1e-6
    big = find_simultaneous_unitary(list(fx.tensored_a()), list(fx.tensored_b()))
    assert big.success and big.residual < 1e-6

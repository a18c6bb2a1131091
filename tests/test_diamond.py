import numpy as np
import pytest

from covcat import diamond
from covcat import linalg as la
from covcat.channels import Channel
from covcat.diamond import (
    CHECK_EVERY,
    DEFAULT_GAP_TOL,
    _DiamondProgram,
    _a_priori_bracket,
    _certified,
    diamond_distance,
    diamond_norm_of_difference,
    unitary_diamond_distance,
)
from covcat.refframe import implementation_error, phase_reference_scenario

from conftest import (
    certify_targets,
    depolarizing_loop,
    random_channel,
    shifted_superposition_mixture,
    tensor_channels_loop,
)


def test_identical_channels(rng):
    t = random_channel(2, 2, rng)
    res = diamond_distance(t, t)
    assert res.status == "converged"
    assert res.value <= 1e-8


def test_qubit_phase_pair_closed_form():
    for theta in (0.4, 1.2, 2.7):
        t1 = Channel([np.eye(2)])
        t2 = Channel.from_unitary(np.diag([1.0, np.exp(1j * theta)]))
        res = diamond_distance(t1, t2)
        assert res.status == "converged"
        assert abs(res.value - 2 * np.sin(theta / 2)) < 1e-6


def test_identity_vs_depolarizing_qubit(rng):
    ident, depol = Channel([np.eye(2)]), Channel(depolarizing_loop(2))
    res = diamond_distance(ident, depol)
    assert res.status == "converged"
    assert abs(res.value - 1.5) < 1e-6
    # cross-check: sampled maximization over pure two-qubit inputs never beats it
    t1 = Channel(tensor_channels_loop(ident, ident))
    t2 = Channel(tensor_channels_loop(depol, ident))
    best = 0.0
    for _ in range(300):
        psi = la.random_pure_state(4, rng)
        best = max(best, 2 * la.trace_distance(t1.apply(psi), t2.apply(psi)))
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
    prog = _DiamondProgram(t1.choi() - t2.choi(), d)
    big_basis, small_basis = _hermitian_basis(d * d), _hermitian_basis(d)
    n_big, n_small = len(big_basis), len(small_basis)

    def coords(m, basis):
        return np.tensordot(basis.conj(), m, axes=([1, 2], [0, 1])).real

    def to_vec(wq, rho):
        return np.concatenate([coords(m, big_basis) for m in wq] + [coords(rho, small_basis)])

    def from_vec(x):
        wq = np.tensordot(x[:2 * n_big].reshape(2, n_big), big_basis, axes=1)
        return wq, np.tensordot(x[2 * n_big:], small_basis, axes=1)

    def residual(x):
        """A x - b, written directly from the constraints of the program."""
        (w, q), rho = from_vec(x)
        return np.concatenate([
            coords(w + q - np.kron(np.eye(d), rho), big_basis),
            [np.trace(rho).real - 1.0],
        ])

    def project(x):
        """The projection read from the multipliers ``(R, t)``."""
        wq, rho = from_vec(x)
        r, t = prog.project_affine(wq, rho)
        return to_vec(wq - r, rho + la.partial_trace(r, [d, d], keep=[1]) - t * np.eye(d))

    nv = 2 * n_big + n_small
    offset = residual(np.zeros(nv))
    a = np.array([residual(e) - offset for e in np.eye(nv)]).T
    x = rng.standard_normal(nv)
    oracle = x - a.T @ np.linalg.lstsq(a @ a.T, residual(x), rcond=None)[0]
    p = project(x)
    np.testing.assert_allclose(p, oracle, atol=1e-10)
    assert np.abs(residual(p)).max() <= 1e-10
    np.testing.assert_allclose(project(p), p, atol=1e-10)


def test_unitary_oracle_special_cases():
    assert unitary_diamond_distance(np.eye(2), np.eye(2) * np.exp(0.3j)) < 1e-12
    assert abs(unitary_diamond_distance(np.eye(2),
                                        np.array([[0, 1], [1, 0]], dtype=complex)) - 2.0) < 1e-12
    theta = 0.8
    assert abs(unitary_diamond_distance(np.eye(2), np.diag([1, np.exp(1j * theta)]))
               - 2 * np.sin(theta / 2)) < 1e-12


@pytest.mark.parametrize("arc", [1e-9, 4.5e-8, 1e-6, 1e-3])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_unitary_oracle_does_not_cancel_at_small_arcs(arc, d, rng):
    # eigenphases arc * a_k of a diagonal V: the arc spanned is arc * spread(a)
    a = rng.uniform(-1, 1, size=d)
    v = np.diag(np.exp(1j * arc * a))
    want = 2 * np.sin(arc * (a.max() - a.min()) / 2)
    assert abs(unitary_diamond_distance(np.eye(d), v) - want) <= 1e-9 * want


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
    ident = Channel([np.eye(2)])
    big1, big2 = Channel(tensor_channels_loop(t1, ident)), Channel(tensor_channels_loop(t2, ident))
    for _ in range(20):
        rho = la.random_density(4, rng)
        gap = 2 * la.trace_distance(big1.apply(rho), big2.apply(rho))
        assert gap <= res.value + 2e-6


def test_result_json_shape(rng):
    res = diamond_distance(random_channel(2, 2, rng), Channel([np.eye(2)]))
    payload = res.to_json()
    assert set(payload) == {"value", "status", "lower", "upper", "iterations"}
    assert payload["lower"] <= payload["value"] <= payload["upper"]


def test_rejects_non_channel_difference():
    with pytest.raises(la.DomainError):
        diamond_norm_of_difference(np.eye(4), 2)  # Tr_out J != 0
    with pytest.raises(la.DomainError):  # judged relative to J, at any scale
        diamond_norm_of_difference(1e10 * np.eye(4), 2)


def test_iteration_cap_reports_bounds(rng, monkeypatch):
    t1, t2 = random_channel(2, 2, rng), random_channel(2, 2, rng)
    monkeypatch.setattr(diamond, "DEFAULT_MAX_ITER", 3)
    res = diamond_distance(t1, t2)
    monkeypatch.undo()
    assert res.status == "bounds"
    assert 0.0 <= res.lower <= res.upper <= 2.0
    trusted = diamond_distance(t1, t2)
    assert res.lower <= trusted.value + 1e-9
    assert trusted.value <= res.upper + 1e-9


def test_dimension_checks(rng):
    with pytest.raises(la.DimensionError):
        diamond_distance(Channel([np.eye(2)]), Channel([np.eye(3)]))


# ---------------------------------------------------------------------------
# a priori bracket and crossing rule
# ---------------------------------------------------------------------------

def _mixed_frame(theta):
    sigma = shifted_superposition_mixture(12, 0.7, weight=0.35)
    return phase_reference_scenario(12, theta, sigma_c=sigma)


# brackets at theta = pi/2 that an iterated solve certified (112 to 252
# iterations) before the a priori dual point 2 J_+ closed them at iteration 0
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


# ---------------------------------------------------------------------------
# generic targets: scale invariance, certify targets, a priori cap
# ---------------------------------------------------------------------------

def _criterion_5_pair():
    """Choi difference of the first d = 3 unitary pair of acceptance criterion 5."""
    rng = np.random.default_rng(55)
    for _ in range(20):  # the ten d = 2 pairs come first
        u, v = la.random_unitary(2, rng), la.random_unitary(2, rng)
    u, v = la.random_unitary(3, rng), la.random_unitary(3, rng)
    return Channel.from_unitary(u).choi() - Channel.from_unitary(v).choi()


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e8, 1e10])
def test_scaled_choi_difference_scales_value_not_iterations(scale):
    j = _criterion_5_pair()
    base = diamond_norm_of_difference(j, 3)
    assert base.iterations > 0
    # the stopping rule is relative, so one tolerance serves every scale
    scaled = diamond_norm_of_difference(scale * j, 3)
    assert scaled.status == base.status == "converged"
    assert abs(scaled.value - scale * base.value) <= 1e-6 * scale * base.value
    assert abs(scaled.iterations - base.iterations) <= CHECK_EVERY


# brackets the earlier four-block iteration certified for the targets above,
# in 1 317, 1 067, 252 and 567 iterations
CERTIFY_BRACKETS = [
    (0.9498207459628691, 0.94982076283474),
    (0.9520030619361785, 0.9520032514504078),
    (0.8022506810915888, 0.8022510406775253),
    (0.5946143472684946, 0.5946143547932985),
]


# values the iteration that projected rho onto its cone certified for the same
# targets, in 275, 325, 125 and 75 iterations
CERTIFY_VALUES = [0.9498207468432414, 0.9520036282201487, 0.8022506810917818,
                  0.5946144685953731]


@pytest.mark.parametrize("k", range(4))
def test_certify_targets_overlap_earlier_brackets(k):
    res = implementation_error(certify_targets()[k])
    low, up = CERTIFY_BRACKETS[k]
    assert res.status == "converged" and res.upper - res.lower <= DEFAULT_GAP_TOL
    assert res.lower <= up and low <= res.upper
    # leaving rho free moves the value only within the bracket
    assert abs(res.value - CERTIFY_VALUES[k]) <= DEFAULT_GAP_TOL


def test_iterations_eigendecompose_no_d_by_d_matrix(monkeypatch):
    """rho's cone is implied by ``W, Q >= 0`` and ``W + Q = 1 (x) rho``, so an
    iteration makes one ``eigh`` of the (2, d^2, d^2) stack, and a d x d
    ``eigh`` or ``eigvalsh`` runs only inside the bracket checks."""
    sc = certify_targets()[0]
    j = sc.induced_system_channel().choi() - Channel.from_unitary(sc.target).choi()
    d, in_check = 3, []
    calls = {"outside": 0, "inside": 0, "stack": 0}

    def counting(fn):
        def wrapped(a, *args, **kwargs):
            if a.shape[-2:] == (d, d):
                calls["inside" if in_check else "outside"] += 1
            elif a.shape == (2, d * d, d * d):
                calls["stack"] += 1
            return fn(a, *args, **kwargs)
        return wrapped

    def checking(fn):
        def wrapped(*args):
            in_check.append(fn)
            try:
                return fn(*args)
            finally:
                in_check.pop()
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    for name in ("primal_value", "dual_value"):
        monkeypatch.setattr(_DiamondProgram, name, checking(getattr(_DiamondProgram, name)))
    res = diamond_norm_of_difference(j, d)
    assert res.status == "converged" and res.iterations > 0
    assert calls["outside"] == 0
    assert calls["inside"] > 0 and calls["stack"] == res.iterations


def test_a_priori_cap_applies_to_channels_only():
    # 4 J is Hermitian with Tr_out 4J = 0 but no difference of channels: its
    # value exceeds 2, so the cap of the channel path must not reach it
    sc = certify_targets()[0]
    j = sc.induced_system_channel().choi() - Channel.from_unitary(sc.target).choi()
    base = diamond_norm_of_difference(j, 3)
    res = diamond_norm_of_difference(4.0 * j, 3)
    assert res.status == "converged" and res.value > 2.0
    assert res.lower <= 4.0 * base.upper and 4.0 * base.lower <= res.upper

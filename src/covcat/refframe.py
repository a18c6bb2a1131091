"""Back-action of quantum reference frames that implement unitary dynamics.

A frame scenario consists of covariant global dynamics on system (x) frame
(either a unitary, or a unitary dilation with a symmetric environment), a
frame state, and a target unitary V on the system alone. The implementation
error is the certified diamond distance between the induced system channel
and V. The central construction is a covariant recovery channel, the
Hilbert-Schmidt dual of the frame-side dynamics at maximally mixed system
input; composing it onto the dynamics leaves the induced system channel
untouched while returning the frame to within ``2 sqrt(2 eps)`` in trace
distance of its initial state, for every system input.

The verification chain mirrors the underlying argument: the drifted frame
``W|phi>`` is the top eigenvector of the average frame output (the argument
needs no more of W than this state). The drift supremum and the least
fidelity ``F(frame output, W|phi>)`` are quadratic forms in the input, exact
as one operator norm and one smallest eigenvalue; only the trace distances
are sampled, over Haar pure and Hilbert-Schmidt mixed system inputs. The chain
runs on a pure frame: the frame state sigma_C (x) omega_E, mixed or pure, is
purified on a copy C' of its support (one dimension for a pure frame), and
the dynamics ``U (x) 1_C'`` enters only as the isometry ``U(. (x) phi)``. By
data processing the bound on C (x) E (x) C' gives the bound on the physical
legs C (x) E, on which the recovery acts.

Every frame output sampled is linear in the system input rho, so it is
tabulated once on the d_s^2 matrix units ``|b><c|`` of S, and every sample is
a d_s^2-term sum. The purified chain reads the table ``Tr_S M |b><c| M^dag``
of the isometry M; the physical-frame distances read
``Tr_S T'(|b><c| (x) sigma_C)`` from the Kraus operators of T', so they
measure the channel that is returned. The induced system channel consists of
the slices of M: no channel on all of S (x) C (x) E is formed but T'. The
sampled trace distances are taken on the joint range of each table and its
reference state: every output lies below the output of the identity, so one
``eigh`` gives an isometry Q onto a support of dimension k (3 for the drift
and 5 for the frame on the phase ladders), the table is compressed once to
``Q^dag . Q``, and batched ``eigvalsh`` runs over chunks of stacked k x k
outputs, whose temporaries stay within about ``CHUNK_BYTES``. Memory is
O(d_s^2 d_f^2) for frame dimension d_f, the size of the tables; no global
``U (rho (x) sigma) U^dag`` is formed per sample.

The diamond solver certifies eps only up to a bracket ``[lower, upper]``, and
every check of the chain weakens as eps grows. So a check is passed when it
holds at ``lower``, failed when it fails at ``upper``, and inconclusive when
it holds only at ``upper``; an inconclusive check fails the report without
asserting a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channels import Channel, induced_channel, is_covariant
from .diamond import DiamondResult, diamond_distance
from .linalg import (
    CHUNK_BYTES,
    SUPPORT_TOL,
    DimensionError,
    DomainError,
    max_norm,
    require_density,
    require_hermitian,
    require_unitary,
    support_factor,
    tensor,
    trace_distance,
    trace_distances,
)
from .symmetry import conservation_residuals, is_symmetric_state

COVARIANCE_TOL = 1e-9
DIAMOND_SLACK = 1e-5   # slack on assertions involving the diamond-norm value
METRIC_SLACK = 1e-6    # slack on state-metric assertions


@dataclass(frozen=True, eq=False)
class FrameScenario:
    """Covariant global dynamics, frame state and target unitary.

    ``unitary`` acts on S (x) C (x) E with the environment last; a trivial
    environment (``omega_e is None``) means the dynamics on SC itself is
    unitary. Generator lists must have one entry per conserved quantity for
    every leg that exists. Covariance of the dynamics and symmetry of the
    environment state are validated at construction.
    """

    unitary: np.ndarray
    sigma_c: np.ndarray
    target: np.ndarray
    gens_s: tuple
    gens_c: tuple
    gens_e: tuple = ()
    omega_e: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "unitary", require_unitary(self.unitary))
        object.__setattr__(self, "sigma_c", require_density(self.sigma_c))
        object.__setattr__(self, "target", require_unitary(self.target))
        object.__setattr__(self, "gens_s", tuple(require_hermitian(g) for g in self.gens_s))
        object.__setattr__(self, "gens_c", tuple(require_hermitian(g) for g in self.gens_c))
        object.__setattr__(self, "gens_e", tuple(require_hermitian(g) for g in self.gens_e))
        if self.omega_e is not None:
            object.__setattr__(self, "omega_e", require_density(self.omega_e))
            if len(self.gens_e) != len(self.gens_s):
                raise DimensionError("environment generators required for dilated dynamics")
            sym, dev = is_symmetric_state(self.omega_e, self.gens_e, COVARIANCE_TOL)
            if not sym:
                raise DomainError(f"environment state is not symmetric (deviation {dev:.3e})")
        if self.unitary.shape[0] != self.d_s * self.d_c * self.d_e:
            raise DimensionError("global unitary does not act on S (x) C (x) E")
        dev = self._covariance_defect()
        if dev > COVARIANCE_TOL:
            raise DomainError(f"global dynamics is not covariant (defect {dev:.3e})")

    def _covariance_defect(self) -> float:
        legs = [self.gens_s, self.gens_c] + ([self.gens_e] if self.gens_e else [])
        return max(conservation_residuals(self.unitary, legs), default=0.0)

    @property
    def d_s(self) -> int:
        return self.target.shape[0]

    @property
    def d_c(self) -> int:
        return self.sigma_c.shape[0]

    @property
    def d_e(self) -> int:
        return 1 if self.omega_e is None else self.omega_e.shape[0]

    @property
    def frame_state(self) -> np.ndarray:
        """State of the full frame legs C (x) E."""
        return self.sigma_c if self.omega_e is None else tensor(self.sigma_c, self.omega_e)

    @cached_property
    def isometry(self) -> tuple[np.ndarray, np.ndarray]:
        """The dynamics on a pure frame, as ``(m, phi)``.

        The frame state sigma_C (x) omega_E is purified on a copy C' of its
        support by one eigendecomposition, ``phi = sum_i sqrt(p_i) |v_i> (x) |i>``
        on F (x) C' with F = C (x) E, so ``d_cp = rank``, which is 1 for a pure
        frame. The dynamics ``U (x) 1_C'`` never touches C'; it enters only
        through the isometry ``M = (U (x) 1_C')(. (x) phi)``, returned as
        ``m[a, (f, i), b]``: output S index a, frame index (f, i), input S index b.
        """
        amps = support_factor(self.frame_state)  # phi as a (d_f, d_cp) matrix
        d_s, d_f, d_cp = self.d_s, len(amps), amps.shape[1]
        m = (self.unitary.reshape(d_s * d_f, d_s, d_f) @ amps).reshape(d_s, d_f, d_s, d_cp)
        return m.transpose(0, 1, 3, 2).reshape(d_s, d_f * d_cp, d_s), amps.reshape(-1)

    def induced_system_channel(self) -> Channel:
        """``rho -> Tr_F U(rho (x) frame_state)U^dag``: each slice ``m[:, v, :]``
        of the isometry is one Kraus operator, taken with the purifier index i
        of ``v = (f, i)`` outer, the order of `induced_channel`."""
        m, phi = self.isometry
        d_s, d_cp = self.d_s, len(phi) // (self.d_c * self.d_e)
        return Channel(m.reshape(d_s, -1, d_cp, d_s).transpose(2, 1, 0, 3).reshape(-1, d_s, d_s))


def implementation_error(sc: FrameScenario) -> DiamondResult:
    """Certified diamond distance between the induced system channel and the target."""
    return diamond_distance(sc.induced_system_channel(), Channel.from_unitary(sc.target))


@dataclass(frozen=True, eq=False)
class DriftResult:
    """Frame-side drift approximating the dynamics at every system input.

    ``state`` is the drifted frame ``W|phi>``: the top eigenvector of the
    average frame output, its phase fixed by the image of a reference input.
    ``sup_deviation_sq`` is the supremum over unit psi of
    ``|| U |psi phi> - V|psi> (x) W|phi> ||^2``, a squared operator norm; the
    information-disturbance tradeoff promises a W that keeps it below twice
    the implementation error.
    """

    state: np.ndarray
    sup_deviation_sq: float


def _drift(m: np.ndarray, out_units: np.ndarray, target: np.ndarray) -> DriftResult:
    """Drift from the isometry ``m`` of `FrameScenario.isometry` and its frame
    outputs ``out_units[b, c] = Tr_S M |b><c| M^dag``."""
    d_s, d_v = m.shape[:2]
    # average frame output Tr_S M (1/d_s) M^dag
    top = np.linalg.eigh(np.trace(out_units) / d_s)[1][:, -1]
    # phase from the image M|0> of a fixed reference input
    overlap = np.vdot(np.kron(target[:, 0], top), m[:, :, 0].reshape(-1))
    if abs(overlap) > 1e-12:
        top = top * (overlap / abs(overlap))
    # sup over unit psi of || (M - V (x) W phi) psi ||^2 is the squared operator norm
    delta = m.reshape(d_s * d_v, d_s) - np.kron(target, top[:, None])
    return DriftResult(state=top, sup_deviation_sq=float(np.linalg.norm(delta, 2) ** 2))


def recovery_channel(sc: FrameScenario) -> Channel:
    """Covariant recovery map on the physical frame legs C (x) E.

    Dual of the frame-side dynamics ``Tr_S[U (1/d_s (x) .) U^dag]``: Kraus
    operators ``(<a| (x) 1) U^dag (|b> (x) 1) / sqrt(d_s)``, index
    ``a * d_s + b`` as in `env_channel`. Its trace preservation, checked by
    `Channel`, is the frame-side dynamics fixing the identity. Covariance
    follows from covariance of the dynamics and is re-checked by callers
    through `is_covariant`.
    """
    d_s = sc.d_s
    d_f = sc.unitary.shape[0] // d_s
    u_dag = sc.unitary.conj().T.reshape(d_s, d_f, d_s, d_f)
    return Channel(u_dag.transpose(0, 2, 1, 3).reshape(d_s * d_s, d_f, d_f) / np.sqrt(d_s))


# ---------------------------------------------------------------------------
# the catalytic channel and its verification report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RecoveryReport:
    """Full verification record of the recovery construction.

    ``epsilon`` is the certified diamond-norm implementation error, the
    midpoint of ``epsilon_result``'s bracket, and ``bound = 2 sqrt(2 epsilon)``;
    ``bound_lower`` and ``bound_upper`` are the bound at the two ends of the
    bracket. ``worst_distance`` must stay below ``bound_lower`` (plus solver
    slack) for the report to pass; all intermediate fidelity and
    trace-distance steps are recorded as well. ``failures`` lists the checks
    that fail at the upper end of the bracket, ``inconclusive`` those that
    hold at the upper end but not at the lower one.
    """

    epsilon: float
    epsilon_result: DiamondResult
    bound: float
    bound_lower: float
    bound_upper: float
    drift: DriftResult
    worst_distance: float
    mean_distance: float
    distances: tuple[float, ...]
    min_fidelity: float
    worst_output_drift_distance: float
    recovery_pullback_distance: float
    induced_identity_defect: float
    covariance_defect: float
    passed: bool
    failures: tuple[str, ...]
    inconclusive: tuple[str, ...]

    @property
    def verdict(self) -> str:
        """One of ``"failed"`` (any failure), ``"inconclusive"`` or ``"passed"``."""
        if self.failures:
            return "failed"
        return "inconclusive" if self.inconclusive else "passed"

    @property
    def status(self) -> str:
        """Sweep status: ``"FAILED"`` (any failure, certified at the upper end
        of the bracket even when it did not close), ``"bounds"`` (the bracket
        did not close), ``"inconclusive"`` or ``"ok"``. Only ``"ok"`` and
        ``"FAILED"`` are conclusive."""
        if self.failures:
            return "FAILED"
        if self.epsilon_result.status != "converged":
            return "bounds"
        return "inconclusive" if self.inconclusive else "ok"

    def to_json(self) -> dict:
        return {"epsilon": self.epsilon,
                "epsilon_result": self.epsilon_result.to_json(),
                "bound": self.bound,
                "bound_lower": self.bound_lower,
                "bound_upper": self.bound_upper,
                "sup_deviation_sq": self.drift.sup_deviation_sq,
                "worst_distance": self.worst_distance,
                "mean_distance": self.mean_distance,
                "min_fidelity": self.min_fidelity,
                "worst_output_drift_distance": self.worst_output_drift_distance,
                "recovery_pullback_distance": self.recovery_pullback_distance,
                "induced_identity_defect": self.induced_identity_defect,
                "covariance_defect": self.covariance_defect,
                "passed": self.passed,
                "verdict": self.verdict,
                "failures": list(self.failures),
                "inconclusive": list(self.inconclusive)}


def _sample_system_states(d: int, samples: int, seed: int):
    """64:36 split of Haar pure and Hilbert-Schmidt mixed states (seeded)."""
    rng = np.random.default_rng(seed)
    n_pure = min(samples, max(1, round(samples * 0.64)))
    z = rng.standard_normal((n_pure, 2, d))  # the draws of `random_pure_state`, in order
    v = z[:, 0] + 1j * z[:, 1]
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    g = rng.standard_normal((samples - n_pure, 2, d, d))  # those of `random_density`
    g = g[:, 0] + 1j * g[:, 1]
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return np.concatenate([v[:, :, None] * v[:, None].conj(), rho])


def _joint_support(units: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Isometry Q (d, k) onto the support of ``G = sum_b units[b, b] + ref``:
    the eigenvectors of G whose eigenvalue exceeds ``SUPPORT_TOL * Tr G``."""
    w, v = np.linalg.eigh(np.trace(units) + ref)
    return v[:, w > SUPPORT_TOL * w.sum()]


def _sampled_distances(rhos: np.ndarray, units: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Trace distance of ``sum_bc rho_bc units[b, c]`` to ``ref`` for every
    input ``rho`` of the stack ``rhos``, chunk by chunk, on the joint range.

    ``units`` tabulates a CP map A on the matrix units, so for a density rho
    ``A(rho) <= A(1) = sum_b units[b, b]``: every output, and ``ref``, lies in
    the support of G of `_joint_support`. The table and ``ref`` are compressed
    once to ``Q^dag . Q`` (k x k), and the trace norm on that support is
    unitarily invariant, so each distance is that of the full d x d matrices
    up to round-off. A discarded weight ``mu = Tr (1 - Q Q^dag) G`` moves a
    distance by at most ``2 sqrt(mu) + mu`` (Cauchy-Schwarz, as in Winter's
    gentle-measurement lemma, IEEE Trans. Inf. Theory 45, 2481 (1999)).

    A chunk's outputs take an eighth of ``CHUNK_BYTES`` (one output at
    least): `trace_distances` holds up to five arrays of their size at once.
    """
    q = _joint_support(units, ref)
    q_dag = q.conj().T
    units, ref = q_dag @ units @ q, q_dag @ ref @ q
    step = max(1, CHUNK_BYTES // (8 * ref.nbytes))
    return np.concatenate([trace_distances(np.tensordot(rhos[i:i + step], units, 2), ref)
                           for i in range(0, len(rhos), step)])


def catalytic_channel(sc: FrameScenario, samples: int = 100,
                      seed: int = 7) -> tuple[Channel, RecoveryReport]:
    """Recovery-corrected dynamics with certified back-action bound.

    Returns the covariant channel T' on S (x) C together with the
    verification report. T' composes the recovery onto the given dynamics
    (tracing out the dilation environment if there is one), so its induced
    system channel is identical to the original; the report additionally
    samples the frame disturbance over ``samples`` system states and checks
    the full inequality chain on the purified frame. Each check against eps
    is judged at both ends of the certified bracket (see the module
    docstring).
    """
    t_orig = sc.induced_system_channel()
    eps_result = diamond_distance(t_orig, Channel.from_unitary(sc.target))
    eps = eps_result.value

    def root(e: float) -> float:  # sqrt(2 eps)
        return float(np.sqrt(2.0 * max(e, 0.0)))

    failures: list[str] = []
    inconclusive: list[str] = []

    def check(what: str, holds) -> None:
        if not holds(eps_result.upper):
            failures.append(what)
        elif not holds(eps_result.lower):
            inconclusive.append(f"{what} at the lower end of eps only")

    d_s, d_c, d_e = sc.d_s, sc.d_c, sc.d_e
    d_f = d_c * d_e
    recovery = recovery_channel(sc)  # on C (x) E

    # T' on SC: inject omega_E, run U, recover on CE, trace out E.
    t_prime = Channel((recovery.kraus[:, None] @ sc.unitary.reshape(d_s, d_f, -1))
                      .reshape(-1, d_s * d_f, d_s * d_f))  # (1_S (x) K_r) U
    if sc.omega_e is not None:
        t_prime = induced_channel(t_prime, sc.omega_e, d_s * d_c, d_e)

    # (a) induced dynamics on S unchanged
    t_prime_s = induced_channel(t_prime, sc.sigma_c, d_s, d_c)
    induced_defect = max_norm(t_prime_s.choi() - t_orig.choi())
    if induced_defect > 1e-8:
        failures.append(f"induced channel changed by {induced_defect:.3e}")

    # (b) covariance of T' under the composite generators on S (x) C
    comp_in = [tensor(xs, np.eye(d_c)) + tensor(np.eye(d_s), xc)
               for xs, xc in zip(sc.gens_s, sc.gens_c)]
    cov = is_covariant(t_prime, comp_in, comp_in, tol=COVARIANCE_TOL)
    if not cov.covariant:
        (failures if cov.conclusive else inconclusive).append(
            f"recovered dynamics not covariant (defect {cov.worst_violation:.3e})")

    # (c) inequality chain on the purified frame C (x) E (x) C'; by data
    # processing its bound gives the bound on C (x) E. Every frame output is
    # linear in the system input rho, so it is tabulated once on the matrix
    # units |b><c| of S: Tr_S M rho M^dag = sum_bc rho_bc out_units[b, c].
    m, phi = sc.isometry
    d_v = len(phi)
    d_cp = d_v // d_f
    flat = m.transpose(2, 1, 0).reshape(d_s * d_v, d_s)
    out_units = (flat @ flat.conj().T).reshape(d_s, d_v, d_s, d_v).transpose(0, 2, 1, 3)
    drift = _drift(m, out_units, sc.target)
    wphi = drift.state
    w_rho = np.outer(wphi, wphi.conj())
    phi_rho = np.outer(phi, phi.conj())
    # recovery pullback Tr_S[U^dag (1 (x) |W phi><W phi|) U] / d_s, the
    # recovery acting on C (x) E and leaving C' alone
    z = (recovery.kraus @ wphi.reshape(d_f, d_cp)).reshape(-1, d_v)
    recovery_pullback_distance = trace_distance(phi_rho, z.T @ z.conj())
    check("recovery pullback distance exceeds sqrt(2 eps)",
          lambda e: recovery_pullback_distance <= root(e) + METRIC_SLACK)

    # F(out(rho), W phi)^2 = Tr rho O^T for the Hermitian O[b, c] =
    # <W phi| out_units[b, c] |W phi>, least at the smallest eigenvalue of O
    overlaps = (out_units @ wphi) @ wphi.conj()
    min_fid = float(np.sqrt(np.clip(np.linalg.eigvalsh(overlaps)[0], 0.0, 1.0)))
    rhos = _sample_system_states(d_s, min(24, samples), seed + 2)
    worst_drift_dist = float(_sampled_distances(rhos, out_units, w_rho).max())
    check(f"drift fidelity {min_fid:.6f} below 1 - eps",
          lambda e: min_fid >= 1.0 - e - METRIC_SLACK)
    check("output drift distance exceeds sqrt(2 eps)",
          lambda e: worst_drift_dist <= root(e) + METRIC_SLACK)

    # (c') sampled final-state distances on the physical frame C, read from
    # T' itself: units[b, c] = Tr_S T'(|b><c| (x) sigma_C), from the Kraus
    # stack of (a) indexed (K, k, l) with l the output index of C
    ks = t_prime_s.kraus.reshape(-1, d_c, d_s, d_s)
    units = np.einsum("nlab,nmac->bclm", ks, ks.conj())
    dists = _sampled_distances(_sample_system_states(d_s, samples, seed), units, sc.sigma_c)
    worst = float(dists.max())
    mean = float(np.mean(dists))
    check(f"worst frame distance {worst:.6f} exceeds bound 2 sqrt(2 eps)",
          lambda e: worst <= 2.0 * root(e) + DIAMOND_SLACK)

    report = RecoveryReport(
        epsilon=eps, epsilon_result=eps_result, bound=2.0 * root(eps),
        bound_lower=2.0 * root(eps_result.lower), bound_upper=2.0 * root(eps_result.upper),
        drift=drift, worst_distance=worst, mean_distance=mean,
        distances=tuple(dists.tolist()),
        min_fidelity=min_fid, worst_output_drift_distance=worst_drift_dist,
        recovery_pullback_distance=recovery_pullback_distance,
        induced_identity_defect=induced_defect,
        covariance_defect=cov.worst_violation,
        passed=not failures and not inconclusive, failures=tuple(failures),
        inconclusive=tuple(inconclusive))
    return t_prime, report


# ---------------------------------------------------------------------------
# phase-reference family and sweeps
# ---------------------------------------------------------------------------

def phase_ladder_unitary(n_levels: int, theta: float) -> np.ndarray:
    """Charge-conserving block rotation on qubit (x) ladder.

    Inside every two-dimensional total-charge sector spanned by ``|1, q-1>``
    and ``|0, q>`` the unitary applies the x-rotation by theta; the two
    boundary sectors are left alone, which is what keeps the implementation
    error of the target rotation finite at finite ladder size.
    """
    d = 2 * n_levels
    u = np.eye(d, dtype=complex)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    up = np.arange(1, n_levels)  # |0, q>
    dn = n_levels + up - 1       # |1, q-1>
    u[up, up] = u[dn, dn] = c
    u[up, dn] = u[dn, up] = -1j * s
    return u


def phase_reference_scenario(n_levels: int, theta: float,
                             sigma_c: np.ndarray | None = None) -> FrameScenario:
    """Qubit rotated against an N-level uniform-superposition phase reference.

    The system generator is ``diag(0, 1)``, the frame generator the ladder
    number operator. The default frame state is the uniform superposition of
    all levels; a custom frame state (for instance a mixture of shifted
    superpositions) may be supplied instead.
    """
    if n_levels < 2:
        raise DimensionError("phase reference needs at least two levels")
    target = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * np.array([[0, 1], [1, 0]])
    if sigma_c is None:
        amp = np.ones(n_levels, dtype=complex) / np.sqrt(n_levels)
        sigma_c = np.outer(amp, amp.conj())
    return FrameScenario(
        unitary=phase_ladder_unitary(n_levels, theta),
        sigma_c=sigma_c,
        target=target,
        gens_s=(np.diag([0.0, 1.0]),),
        gens_c=(np.diag(np.arange(n_levels, dtype=float)),),
    )


@dataclass(frozen=True)
class SweepRow:
    n_levels: int
    theta: float
    epsilon: float
    bound: float
    worst_distance: float
    mean_distance: float
    status: str

    def to_csv_row(self) -> str:
        nums = [self.theta, self.epsilon, self.bound, self.worst_distance, self.mean_distance]
        return ",".join([str(self.n_levels)] + [repr(float(x)) for x in nums] + [self.status])


SWEEP_CSV_HEADER = "N,theta,epsilon,bound,worst_distance,mean_distance,status"


def degradation_sweep(n_values: Sequence[int], theta: float, samples: int = 100,
                      seed: int = 7) -> list[SweepRow]:
    """Run the catalytic pipeline across ladder sizes and tabulate the bound."""
    rows = []
    for n in n_values:
        sc = phase_reference_scenario(n, theta)
        _, report = catalytic_channel(sc, samples=samples, seed=seed)
        rows.append(SweepRow(n_levels=n, theta=theta, epsilon=report.epsilon,
                             bound=report.bound, worst_distance=report.worst_distance,
                             mean_distance=report.mean_distance, status=report.status))
    return rows


def sweep_to_csv(rows: Sequence[SweepRow]) -> str:
    return "\n".join([SWEEP_CSV_HEADER] + [r.to_csv_row() for r in rows]) + "\n"

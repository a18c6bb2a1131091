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
as one operator norm and one smallest eigenvalue. The chain runs on a pure
frame: sigma_C and omega_E, mixed or pure, are each purified on a copy of
their support, so ``phi = phi_C (x) phi_E`` on C (x) E (x) C' with
``C' = C'_C (x) C'_E`` (one dimension for a pure frame), and the dynamics
``U (x) 1_C'`` enters only as the isometry ``M = U(. (x) phi)``. By data
processing the bound on C (x) E (x) C' gives the bound on the physical legs
C (x) E, on which the recovery acts. Every check reads M or its recovered
image; no global ``U (rho (x) sigma) U^dag`` is formed, no channel on all of
S (x) C (x) E, and T' is built only to be returned, by `catalytic_channel`.

The two trace distances of the chain are certified for every density input
on S, in closed form, by the Fuchs-van de Graaf inequality for a pure target,
``1/2 || rho - |w><w| ||_1 <= sqrt(1 - <w|rho|w>)``. The drift distance is at
most ``sqrt(1 - min_fidelity^2)``. For the frame distance, T' is run on
``rho (x) phi_C``; its overlap with phi_C is ``Tr rho Y^dag Y`` for a
d_s-column matrix Y read from the recovered isometry by contracting phi_C on
C (x) C'_C alone, and tracing out C'_C cannot increase the distance, so the
frame distance is at most ``sqrt(1 - lambda_min(Y^dag Y))``. Each
certificate has a lower end attained at one input: the frame distance at the
bottom eigenvector of ``Y^dag Y`` (the witness), and ``1 - min_fidelity^2``
for the drift. The frame marginal depends on the input only through its
reduced state on S, so a reference entangled with S leaves both distances
unchanged; a distance on the joint state of C and such a reference is not
covered.

The diamond solver certifies eps only up to a bracket ``[lower, upper]``, and
every check of the chain weakens as eps grows. So a check is passed when the
upper end of its quantity holds at ``lower``, failed when the lower end of its
quantity fails at ``upper``, and inconclusive otherwise; an inconclusive check
fails the report without asserting a violation. So does a bracket that did
not close (status ``"bounds"``): eps itself is then not certified.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channels import Channel
from .diamond import DiamondResult, diamond_distance
from .linalg import (
    DimensionError,
    DomainError,
    max_norm,
    require_density,
    require_hermitian,
    require_unitary,
    support_factor,
    trace_distance,
)
from .serialize import record_to_json
from .symmetry import conservation_defects, is_symmetric_state

COVARIANCE_TOL = 1e-9
INDUCED_TOL = 1e-8     # max-norm change of the induced system channel's Choi matrix
DIAMOND_SLACK = 1e-5   # slack on assertions involving the diamond-norm value
METRIC_SLACK = 1e-6    # slack on state-metric assertions


@dataclass(frozen=True, eq=False)
class FrameScenario:
    """Covariant global dynamics, frame state and target unitary.

    ``unitary`` acts on S (x) C (x) E with the environment last. Without an
    environment (``omega_e=None``) the dynamics on SC itself is unitary: the
    scenario then takes the one-dimensional environment ``omega_e = [[1]]``,
    and, if ``gens_e`` is empty, one generator ``[[0]]`` per system generator,
    so ``omega_e`` and ``gens_e`` are never None or short after construction.
    Generator lists must have one entry per conserved quantity on every leg,
    each entry as wide as its leg. Covariance of the dynamics and symmetry of
    the environment state are validated at construction. The pass over the
    residuals ``Delta_i = U Z_i - Z_i U`` that admits the dynamics also sets
    ``covariance_bound``, the largest ``2 ||U||_F ||Delta_i||_F / (d_s scale_i)``,
    which bounds the recovery's covariance defect (see `verify_recovery`).
    """

    unitary: np.ndarray
    sigma_c: np.ndarray
    target: np.ndarray
    gens_s: tuple
    gens_c: tuple
    gens_e: tuple = ()
    omega_e: np.ndarray | None = None

    def __post_init__(self):
        if self.omega_e is None:  # no environment is a one-dimensional one
            object.__setattr__(self, "omega_e", np.ones((1, 1)))
            if not self.gens_e:
                object.__setattr__(self, "gens_e", tuple(np.zeros((1, 1)) for _ in self.gens_s))
        object.__setattr__(self, "unitary", require_unitary(self.unitary))
        object.__setattr__(self, "sigma_c", require_density(self.sigma_c))
        object.__setattr__(self, "target", require_unitary(self.target))
        object.__setattr__(self, "omega_e", require_density(self.omega_e))
        for leg, d in (("gens_s", self.d_s), ("gens_c", self.d_c), ("gens_e", self.d_e)):
            object.__setattr__(self, leg, tuple(require_hermitian(g) for g in getattr(self, leg)))
            if any(len(g) != d for g in getattr(self, leg)):
                raise DimensionError(f"every entry of {leg} must be {d} x {d}")
        if len(self.gens_e) != len(self.gens_s):
            raise DimensionError("environment generators required for dilated dynamics")
        sym, dev = is_symmetric_state(self.omega_e, self.gens_e, COVARIANCE_TOL)
        if not sym:
            raise DomainError(f"environment state is not symmetric (deviation {dev:.3e})")
        if self.unitary.shape[0] != self.d_s * self.d_c * self.d_e:
            raise DimensionError("global unitary does not act on S (x) C (x) E")
        dev = bound = 0.0
        u, legs = self.unitary, [self.gens_s, self.gens_c, self.gens_e]
        u_norm = np.linalg.norm(u)
        for delta, scale in conservation_defects(u, legs, legs):
            dev = max(dev, max_norm(delta) / scale)
            bound = max(bound, 2.0 * u_norm * np.linalg.norm(delta / scale) / self.d_s)
        if dev > COVARIANCE_TOL:
            raise DomainError(f"global dynamics is not covariant (defect {dev:.3e})")
        object.__setattr__(self, "covariance_bound", float(bound))

    @property
    def d_s(self) -> int:
        return self.target.shape[0]

    @property
    def d_c(self) -> int:
        return self.sigma_c.shape[0]

    @property
    def d_e(self) -> int:
        return self.omega_e.shape[0]

    @cached_property
    def frame_factors(self) -> tuple[np.ndarray, np.ndarray]:
        """``(A, chi)`` with ``A A^dag = sigma_C`` and ``chi chi^dag = omega_E``,
        each from one eigendecomposition (see `support_factor`)."""
        return support_factor(self.sigma_c), support_factor(self.omega_e)

    @cached_property
    def isometry(self) -> tuple[np.ndarray, np.ndarray]:
        """The dynamics on a pure frame, as ``(m, phi)``.

        The frame state is purified as a product ``phi = phi_C (x) phi_E``, by
        the factors ``A (x) chi`` of `frame_factors`, on F (x) C' with
        F = C (x) E and C' = C'_C (x) C'_E, so ``d_cp`` is 1 for a pure frame.
        ``U (x) 1_C'`` never touches C'; it enters only through the isometry
        ``M = (U (x) 1_C')(. (x) phi)``, returned as ``m[a, (c, e, j, k), b]``:
        output S index a, frame index on C (x) E (x) C', input S index b.
        """
        amps = np.kron(*self.frame_factors)  # phi as a (d_f, d_cp) matrix
        d_s, d_f, d_cp = self.d_s, len(amps), amps.shape[1]
        m = (self.unitary.reshape(d_s * d_f, d_s, d_f) @ amps).reshape(d_s, d_f, d_s, d_cp)
        return m.transpose(0, 1, 3, 2).reshape(d_s, d_f * d_cp, d_s), amps.reshape(-1)

    def induced_system_channel(self) -> Channel:
        """``rho -> Tr_F U(rho (x) sigma_C (x) omega_E)U^dag``: each slice ``m[:, v, :]``
        of the isometry is one Kraus operator. Held unchecked: U is unitary
        and phi is normalised, so the slices sum to ``M^dag M``, which is 1
        up to U's admitted unitarity defect."""
        return Channel._derived(self.isometry[0].transpose(1, 0, 2))


def implementation_error(sc: FrameScenario) -> DiamondResult:
    """Certified diamond distance between the induced system channel and the target."""
    return diamond_distance(sc.induced_system_channel(), Channel.from_unitary(sc.target))


def _drift(m: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """``(W phi, sup_deviation_sq)`` (see `RecoveryReport`) from the isometry
    ``m`` of `FrameScenario.isometry`."""
    d_s, d_v = m.shape[:2]
    # the average frame output Tr_S M (1/d_s) M^dag is F F^dag / d_s for
    # F[v, (a, b)] = m[a, v, b]: its top eigenvector is F's top left singular vector
    top = np.linalg.svd(m.transpose(1, 0, 2).reshape(d_v, -1), full_matrices=False)[0][:, 0]
    # phase from the image M|0> of a fixed reference input
    overlap = np.vdot(np.kron(target[:, 0], top), m[:, :, 0].reshape(-1))
    if abs(overlap) > 1e-12:
        top = top * (overlap / abs(overlap))
    # sup over unit psi of || (M - V (x) W phi) psi ||^2 is the squared operator norm
    delta = m.reshape(d_s * d_v, d_s) - np.kron(target, top[:, None])
    return top, float(np.linalg.norm(delta, 2) ** 2)


def recovery_channel(sc: FrameScenario) -> Channel:
    """Covariant recovery map on the physical frame legs C (x) E.

    Dual of the frame-side dynamics ``Tr_S[U (1/d_s (x) .) U^dag]``: one Kraus
    operator ``(<a| (x) 1) U^dag (|b> (x) 1) / sqrt(d_s)`` per pair of system
    basis states, at index ``a * d_s + b``. Its trace preservation, checked by
    `Channel`, is the frame-side dynamics fixing the identity; it is the
    chain's one trace-preservation check, since T' and T' on S are derived
    from R and the admitted unitary without one. `FrameScenario.covariance_bound`
    bounds its covariance defect under the composite generators of C (x) E.
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
    bracket. The supremum of the frame distance over system inputs lies in
    ``[witness_distance, worst_distance]``: the distance at one input and the
    certificate over all of them, with ``witness_input`` the unit vector of S
    attaining the former. ``worst_distance`` must stay below
    ``bound_lower`` (plus solver slack) for the report to pass.
    ``drift_state`` is the drifted frame ``W|phi>``: the top eigenvector of
    the average frame output, its phase fixed by the image of a reference
    input. ``sup_deviation_sq`` is the supremum over unit psi of
    ``|| U |psi phi> - V|psi> (x) W|phi> ||^2``, a squared operator norm; the
    information-disturbance tradeoff promises a W that keeps it below twice
    the implementation error. ``worst_output_drift_distance`` is the
    certificate of the drift distance. ``covariance_defect`` is
    `FrameScenario.covariance_bound`, which bounds the recovery's covariance
    defect under the composite generators of C (x) E (see `verify_recovery`).
    ``failures`` lists the checks that fail at the upper end of the bracket,
    ``inconclusive`` those that are neither passed nor failed (see the module
    docstring).
    """

    epsilon: float
    epsilon_result: DiamondResult
    bound: float
    bound_lower: float
    bound_upper: float
    drift_state: np.ndarray
    sup_deviation_sq: float
    worst_distance: float
    witness_distance: float
    witness_input: np.ndarray
    min_fidelity: float
    worst_output_drift_distance: float
    recovery_pullback_distance: float
    induced_identity_defect: float
    covariance_defect: float
    failures: tuple[str, ...]
    inconclusive: tuple[str, ...]

    @property
    def outcome(self) -> str:
        """One of ``"failed"`` (any failure), ``"inconclusive"`` or ``"passed"``."""
        if self.failures:
            return "failed"
        return "inconclusive" if self.inconclusive else "passed"

    def to_json(self) -> dict:
        return {**record_to_json(self, ("drift_state", "witness_input")),
                "passed": self.outcome == "passed", "verdict": self.outcome}


def _verified_recovery(sc: FrameScenario) -> tuple[Channel, RecoveryReport]:
    """The recovery R and the report of `verify_recovery`."""
    eps_result = implementation_error(sc)
    eps = eps_result.value

    def root(e: float) -> float:  # sqrt(2 eps)
        return float(np.sqrt(2.0 * max(e, 0.0)))

    failures: list[str] = []
    inconclusive: list[str] = []
    if eps_result.status != "converged":
        inconclusive.append(f"eps bracket [{eps_result.lower:.3e}, {eps_result.upper:.3e}] open")

    def check(what: str, low: float, high: float, bound) -> None:
        """The checked quantity lies in ``[low, high]`` and must stay at most
        ``bound(eps)``; a nan fails."""
        if not low <= bound(eps_result.upper):
            failures.append(what)
        elif not high <= bound(eps_result.lower):
            inconclusive.append(f"{what}: undecided within the brackets")

    d_s, d_c, d_e, d_f = sc.d_s, sc.d_c, sc.d_e, sc.d_c * sc.d_e
    recovery = recovery_channel(sc)  # on C (x) E

    # (a) induced dynamics on S unchanged: T' on S has the Kraus operators
    # (<f, i| (x) 1_S)(1_S (x) K_r (x) 1_C') M at [f, r, i], with f on C (x) E;
    # held unchecked, since only its Choi matrix is read
    m, phi = sc.isometry
    d_v = len(phi)
    recovered = np.einsum("rgf,afib->griab", recovery.kraus, m.reshape(d_s, d_f, -1, d_s))
    induced_defect = max_norm(Channel._derived(recovered.reshape(-1, d_s, d_s)).choi()
                              - sc.induced_system_channel().choi())
    if induced_defect > INDUCED_TOL:
        failures.append(f"induced channel changed by {induced_defect:.3e}")

    # (b) covariance of R, bounded by the admitted residual (see verify_recovery)
    if not sc.covariance_bound <= COVARIANCE_TOL:
        inconclusive.append(f"recovery covariance not certified (bound {sc.covariance_bound:.3e})")

    # (c) inequality chain on the purified frame C (x) E (x) C'; by data
    # processing its bound gives the bound on C (x) E
    wphi, sup_deviation_sq = _drift(m, sc.target)
    phi_rho = np.outer(phi, phi.conj())
    # recovery pullback Tr_S[U^dag (1 (x) |W phi><W phi|) U] / d_s, the
    # recovery acting on C (x) E and leaving C' alone
    z = (recovery.kraus @ wphi.reshape(d_f, -1)).reshape(-1, d_v)
    recovery_pullback_distance = trace_distance(phi_rho, z.T @ z.conj())
    check("recovery pullback distance exceeds sqrt(2 eps)", recovery_pullback_distance,
          recovery_pullback_distance, lambda e: root(e) + METRIC_SLACK)

    # F(out(rho), W phi)^2 = Tr rho O^T for the Hermitian O[b, c] =
    # <W phi| Tr_S M |b><c| M^dag |W phi> = sum_a g[a, b] conj(g[a, c]) with
    # g = (1_S (x) <W phi|) M, least at the smallest eigenvalue of O; the
    # drift distance lies in [1 - F^2, sqrt(1 - F^2)] at the least F
    g = np.einsum("v,avb->ab", wphi.conj(), m)
    min_fid_sq = float(np.clip(np.linalg.eigvalsh(g.T @ g.conj())[0], 0.0, 1.0))
    min_fid = float(np.sqrt(min_fid_sq))
    worst_drift_dist = float(np.sqrt(1.0 - min_fid_sq))
    check(f"drift fidelity {min_fid:.6f} below 1 - eps", 1.0 - min_fid, 1.0 - min_fid,
          lambda e: e + METRIC_SLACK)
    check("output drift distance exceeds sqrt(2 eps)", 1.0 - min_fid_sq, worst_drift_dist,
          lambda e: root(e) + METRIC_SLACK)

    # (c') frame distance on the physical frame C: Y psi holds the overlaps
    # <s, phi_C| (K'_n (x) 1_C'_C) |psi, phi_C> of T' (n = (r, k, e) as below)
    # with phi_C = sum_j A_j (x) |j>. phi is a product, so contracting phi_C
    # alone against the recovered isometry of (a) certifies C, not C (x) E.
    a, chi = sc.frame_factors
    y = np.einsum("xj,xerjksb->rkesb", a.conj(), recovered.reshape(
        d_c, d_e, -1, a.shape[1], chi.shape[1], d_s, d_s)).reshape(-1, d_s)
    lam, vecs = np.linalg.eigh(y.conj().T @ y)
    worst = float(np.sqrt(1.0 - np.clip(lam[0], 0.0, 1.0)))
    # the witness input x: its frame output Tr_S T'(|x><x| (x) sigma_C)
    cols = (recovered @ vecs[:, 0]).reshape(d_c, -1)
    witness = trace_distance(cols @ cols.conj().T, sc.sigma_c)
    check(f"worst frame distance {worst:.6f} exceeds bound 2 sqrt(2 eps)", witness, worst,
          lambda e: 2.0 * root(e) + DIAMOND_SLACK)

    return recovery, RecoveryReport(
        epsilon=eps, epsilon_result=eps_result, bound=2.0 * root(eps),
        bound_lower=2.0 * root(eps_result.lower), bound_upper=2.0 * root(eps_result.upper),
        drift_state=wphi, sup_deviation_sq=sup_deviation_sq, worst_distance=worst,
        witness_distance=witness, witness_input=vecs[:, 0],
        min_fidelity=min_fid, worst_output_drift_distance=worst_drift_dist,
        recovery_pullback_distance=recovery_pullback_distance,
        induced_identity_defect=induced_defect,
        covariance_defect=sc.covariance_bound, failures=tuple(failures),
        inconclusive=tuple(inconclusive))


def verify_recovery(sc: FrameScenario) -> RecoveryReport:
    """Verification report of T' = R after U, without building T'.

    Each check against eps is judged at both ends of the certified bracket
    (see the module docstring). Check (b), covariance of R under
    ``G = X_C (x) 1 + 1 (x) X_E``, is read from the admitted residual
    ``Delta = U Z - Z U``, ``Z = X_S (x) 1 + 1 (x) G``: for every Y on C (x) E,

        R([G, Y]) - [G, R(Y)] = (1/d_s) Tr_S(U^dag (1 (x) Y) Delta - Delta^dag (1 (x) Y) U),

    ``-(1/d_s) Tr_S(U^dag [Delta U^dag, 1 (x) Y] U)`` for unitary U. As
    ``Y -> Tr_S(P (1 (x) Y) Q)`` has Hilbert-Schmidt norm at most
    ``||P||_F ||Q||_F``, R's defect obeys ``||D_R|| <= 2 ||U||_F ||Delta||_F / d_s``
    in the Frobenius norm of superoperators. ``covariance_defect`` is that
    bound over Delta's scale (`FrameScenario.covariance_bound`); above
    ``COVARIANCE_TOL`` check (b) is inconclusive: a bound refutes nothing.
    """
    return _verified_recovery(sc)[1]


def catalytic_channel(sc: FrameScenario) -> tuple[Channel, RecoveryReport]:
    """Recovery-corrected dynamics T' on S (x) C and its verification report.

    The report is that of `verify_recovery`; T' is built after it, only to be
    returned, and held unchecked. T' composes R onto the dynamics and traces
    out E, so its induced system channel is the original one. With composite
    generators X on S (x) C and ``Z = X (x) 1 + 1 (x) X_E``, the residuals
    that `FrameScenario` admitted and R's checked defect bound those of T'
    (the README derives both bounds):

        ||T' [X, .] - [X, T'(.)]|| <= sqrt(d_e) (2 (||U||_F + sqrt(d_s d_c)) ||U Z - Z U||_F
                                                 + d_s d_c ||[X_E, omega_E]||_F),
        ||sum K'^dag K' - 1|| <= ||U^dag U - 1|| + ||U||^2 ||sum K_r^dag K_r - 1||,

    the first in the Frobenius norm of superoperators, the second in the
    operator norm for a unit-trace omega_E.
    """
    recovery, report = _verified_recovery(sc)
    d_s, d_c, d_e = sc.d_s, sc.d_c, sc.d_e
    chi = sc.frame_factors[1]
    # inject omega_E = chi chi^dag, run U, recover on CE, trace out E; one
    # Kraus operator (1 (x) <e|)(1_S (x) K_r) U (1 (x) chi_k) at [r, k, e].
    # U (1 (x) chi), a copy of U, is left unnamed so that it is freed at once.
    ks = recovery.kraus[:, None] @ (sc.unitary.reshape(-1, d_e) @ chi).reshape(d_s, d_c * d_e, -1)
    ks = ks.reshape(-1, d_s, d_c, d_e, d_s * d_c, chi.shape[1])
    # held unchecked: R and U are already checked (see the bounds above)
    t_prime = Channel._derived(ks.transpose(0, 5, 3, 1, 2, 4).reshape(-1, d_s * d_c, d_s * d_c))
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


@dataclass(frozen=True, eq=False)
class SweepReport:
    """The recovery report of the phase-reference ladder at each size in
    ``n_values``, all at ``theta``."""

    n_values: tuple[int, ...]
    theta: float
    reports: tuple[RecoveryReport, ...]

    @property
    def outcome(self) -> str:
        """``"failed"`` if any report failed, whatever the others say, else
        ``"passed"`` if every one passed, else ``"inconclusive"``."""
        outcomes = {r.outcome for r in self.reports}
        if "failed" in outcomes:
            return "failed"
        return "passed" if outcomes == {"passed"} else "inconclusive"

    @property
    def rows(self) -> list[str]:
        """One comma-separated line per report, of the columns ``N, theta,
        epsilon, bound, worst_distance, witness_distance, status``. The status
        is ``"FAILED"`` (any failure, certified at the upper end of the
        bracket even when it did not close), ``"bounds"`` (the bracket did not
        close), ``"inconclusive"`` or ``"ok"``, checked in that order; only
        ``"ok"`` and ``"FAILED"`` are conclusive."""
        def status(r: RecoveryReport) -> str:
            if r.failures:
                return "FAILED"
            if r.epsilon_result.status != "converged":
                return "bounds"
            return "inconclusive" if r.inconclusive else "ok"

        return [",".join([str(n), *(repr(float(x)) for x in (self.theta, r.epsilon, r.bound,
                                                            r.worst_distance, r.witness_distance)),
                          status(r)]) for n, r in zip(self.n_values, self.reports)]

    def to_json(self) -> dict:
        return {"rows": self.rows}


def degradation_sweep(n_values: Sequence[int], theta: float) -> SweepReport:
    """The sweep of the phase-reference ladder over the sizes ``n_values``."""
    return SweepReport(tuple(n_values), theta, tuple(
        verify_recovery(phase_reference_scenario(n, theta)) for n in n_values))

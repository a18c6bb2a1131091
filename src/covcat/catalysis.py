"""Catalysis scenarios: verification, reduction to matrix tuples, intertwiners.

A scenario consists of a joint unitary U on system (x) catalyst together with
states and one generator family per leg. "Admissible" means U maps the
product state to a product state with the catalyst factor unchanged and
commutes with the composite conserved quantities (input representation on the
way in, output representation on the way out). For every admissible scenario
there exists a unitary V on the system alone that performs the same state
transition and intertwines the two system representations. `find_intertwiner`
hands exactly those equations, the pairs ``(rho, X_i)`` and ``(rho', Y_i)``,
to the exact solver in :mod:`covcat.words`, which returns the unitary, a
conclusive negative, or an inconclusive verdict when its rank decision is
ambiguous. `reduce_to_tuples` keeps the reduction of the argument, the
positive tuples ``(rho, exp(-X_i))`` on the system and catalyst; it is not
on the solving path, so no exponential of a generator can overflow there.

The module also ships the finite-group constructions showing why
connectedness of the symmetry group matters (a pointer-state catalyst on the
regular representation unlocks arbitrary state swaps), and a fixture of three
Hermitian pairs that are pairwise unitarily equivalent but not jointly so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .linalg import (
    DimensionError,
    DomainError,
    func_calc,
    max_norm,
    partial_trace,
    psd_rank,
    random_unitary,
    require_density,
    require_hermitian,
    require_unitary,
    support_factor,
    tensor,
    von_neumann_entropy,
)
from .symmetry import FiniteGroup, FiniteGroupRep, conservation_residuals
from .words import UnitaryMatchResult, find_simultaneous_unitary

ADMISSIBILITY_TOL = 1e-9   # structural equalities of a scenario
INTERTWINER_TOL = 1e-7     # accepted residual of the constructed intertwiner
CATALYST_TOL = 1e-8        # max-norm return of the catalyst marginal


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CatalysisScenario:
    """Joint unitary, states and generator families for one catalysis instance.

    ``gens_s_in`` and ``gens_s_out`` are the system representatives of the
    conserved quantities under the input and output representations (same
    dimension), ``gens_c`` the catalyst representatives; all three lists have
    equal length m, which may be zero.
    """

    unitary: np.ndarray
    rho_s: np.ndarray
    rho_s_out: np.ndarray
    sigma_c: np.ndarray
    gens_s_in: tuple
    gens_s_out: tuple
    gens_c: tuple
    admissibility_tol: float = ADMISSIBILITY_TOL
    intertwiner_tol: float = INTERTWINER_TOL
    seed: int | None = None  # provenance of generated scenarios

    def __post_init__(self):
        object.__setattr__(self, "unitary", require_unitary(self.unitary))
        object.__setattr__(self, "rho_s", require_density(self.rho_s))
        object.__setattr__(self, "rho_s_out", require_density(self.rho_s_out))
        object.__setattr__(self, "sigma_c", require_density(self.sigma_c))
        object.__setattr__(self, "gens_s_in", tuple(require_hermitian(g) for g in self.gens_s_in))
        object.__setattr__(self, "gens_s_out", tuple(require_hermitian(g) for g in self.gens_s_out))
        object.__setattr__(self, "gens_c", tuple(require_hermitian(g) for g in self.gens_c))
        if not (len(self.gens_s_in) == len(self.gens_s_out) == len(self.gens_c)):
            raise DimensionError("generator counts differ between legs")
        d_s, d_c = self.d_s, self.d_c
        if self.rho_s_out.shape[0] != d_s:
            raise DimensionError("input and output system dims differ")
        if self.unitary.shape[0] != d_s * d_c:
            raise DimensionError(f"unitary dim {self.unitary.shape[0]} != d_S*d_C = {d_s * d_c}")
        for g in self.gens_s_in + self.gens_s_out:
            if g.shape[0] != d_s:
                raise DimensionError("system generator dim mismatch")
        for g in self.gens_c:
            if g.shape[0] != d_c:
                raise DimensionError("catalyst generator dim mismatch")

    @property
    def d_s(self) -> int:
        return self.rho_s.shape[0]

    @property
    def d_c(self) -> int:
        return self.sigma_c.shape[0]

    def to_json(self) -> dict:
        from .serialize import matrix_to_json
        out = {
            "unitary": matrix_to_json(self.unitary),
            "rho_s": matrix_to_json(self.rho_s),
            "rho_s_out": matrix_to_json(self.rho_s_out),
            "sigma_c": matrix_to_json(self.sigma_c),
            "gens_s_in": [matrix_to_json(g) for g in self.gens_s_in],
            "gens_s_out": [matrix_to_json(g) for g in self.gens_s_out],
            "gens_c": [matrix_to_json(g) for g in self.gens_c],
            "tolerances": {"admissibility": self.admissibility_tol,
                           "intertwiner": self.intertwiner_tol},
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "CatalysisScenario":
        from .serialize import (check_keys, int_from_json, matrices_from_json, matrix_from_json,
                                tolerance_from_json)
        check_keys(obj, ["unitary", "rho_s", "rho_s_out", "sigma_c",
                         "gens_s_in", "gens_s_out", "gens_c"],
                   optional=["tolerances", "seed"], where="scenario")
        tols = obj.get("tolerances", {})
        check_keys(tols, [], optional=["admissibility", "intertwiner"], where="scenario.tolerances")
        tols = {k: tolerance_from_json(v, f"scenario.tolerances.{k}") for k, v in tols.items()}
        def gens(key):
            if not isinstance(obj[key], list):
                raise DomainError(f"scenario.{key} must be a list")
            return matrices_from_json(obj[key], where=f"scenario.{key}") if obj[key] else []
        return cls(
            unitary=matrix_from_json(obj["unitary"], "scenario.unitary"),
            rho_s=matrix_from_json(obj["rho_s"], "scenario.rho_s"),
            rho_s_out=matrix_from_json(obj["rho_s_out"], "scenario.rho_s_out"),
            sigma_c=matrix_from_json(obj["sigma_c"], "scenario.sigma_c"),
            gens_s_in=gens("gens_s_in"), gens_s_out=gens("gens_s_out"), gens_c=gens("gens_c"),
            admissibility_tol=tols.get("admissibility", ADMISSIBILITY_TOL),
            intertwiner_tol=tols.get("intertwiner", INTERTWINER_TOL),
            seed=None if obj.get("seed") is None else int_from_json(obj["seed"], "seed", 0),
        )


@dataclass(frozen=True)
class ScenarioReport:
    state_residual: float
    generator_residuals: tuple[float, ...]
    admissible: bool

    def to_json(self) -> dict:
        return {"state_residual": self.state_residual,
                "generator_residuals": list(self.generator_residuals),
                "admissible": self.admissible}


def verify_scenario(sc: CatalysisScenario) -> ScenarioReport:
    """Residuals of the two defining equations of an admissible scenario.

    The state equation is ``U (rho (x) sigma) U^dag = rho' (x) sigma``; the
    generator equations are ``U (X_i (x) 1 + 1 (x) Xc_i) = (Y_i (x) 1 +
    1 (x) Xc_i) U`` for each conserved quantity. Reports, never throws.
    """
    u = sc.unitary
    joint_in = tensor(sc.rho_s, sc.sigma_c)
    joint_out = tensor(sc.rho_s_out, sc.sigma_c)
    state_res = max_norm(u @ joint_in @ u.conj().T - joint_out)
    gen_res = conservation_residuals(u, [sc.gens_s_in, sc.gens_c], [sc.gens_s_out, sc.gens_c])
    worst = max([state_res] + gen_res)
    return ScenarioReport(state_residual=state_res,
                          generator_residuals=tuple(gen_res),
                          admissible=worst <= sc.admissibility_tol)


@dataclass(frozen=True, eq=False)
class ReducedTuples:
    """System-side tuples of the reduction, plus catalyst factors.

    Index 0 carries the state pair (possibly singular); indices 1..m carry
    the strictly positive exp(-X) factors of the conserved quantities.
    """

    system_a: tuple
    system_b: tuple
    catalyst: tuple


def reduce_to_tuples(sc: CatalysisScenario) -> ReducedTuples:
    """The reduction of an admissible scenario to positive matrix tuples.

    U conjugates each tensored pair ``A_i (x) C_i`` onto ``B_i (x) C_i``, with
    ``A_0 = rho``, ``C_0 = sigma`` and ``A_i = exp(-X_i)``, ``C_i = exp(-Xc_i)``
    for i >= 1; the catalyst factors with index >= 1 are checked to be
    strictly positive definite, which is what makes trace fingerprints on the
    system factors conclusive. Raises ``DomainError`` for non-admissible
    scenarios. `find_intertwiner` does not go through the exponentials.
    """
    report = verify_scenario(sc)
    if not report.admissible:
        raise DomainError(f"scenario is not admissible: {report}")
    neg_exp = lambda x: func_calc(x, lambda w: np.exp(-w))
    tuple_a = [sc.rho_s] + [neg_exp(x) for x in sc.gens_s_in]
    tuple_b = [sc.rho_s_out] + [neg_exp(y) for y in sc.gens_s_out]
    catalyst = [sc.sigma_c] + [neg_exp(x) for x in sc.gens_c]
    for i, factor in enumerate(catalyst[1:], start=1):
        low = float(np.linalg.eigvalsh(factor)[0])
        if low <= 1e-12:
            raise DomainError(f"catalyst factor {i} is not strictly positive (min eig {low:.3e})")
    return ReducedTuples(tuple(tuple_a), tuple(tuple_b), tuple(catalyst))


@dataclass(frozen=True, eq=False)
class IntertwinerResult:
    """Constructed unitary V with its residuals, never suppressed.

    ``state_residual`` is ``||V rho V^dag - rho'||_max`` and
    ``intertwining_residual`` is ``max_i ||V X_i - Y_i V||_max``, both None
    when the solver returned no unitary. For an admissible scenario a failure
    is a solver diagnostic, not a valid outcome; the offending scenario is
    attached for reproduction.
    """

    unitary: np.ndarray | None
    state_residual: float | None
    intertwining_residual: float | None
    solver: UnitaryMatchResult
    success: bool
    diagnostic: dict | None = None

    def to_json(self) -> dict:
        from .serialize import matrix_to_json
        out = {"success": self.success,
               "state_residual": self.state_residual,
               "intertwining_residual": self.intertwining_residual,
               "solver": self.solver.to_json()}
        if self.unitary is not None:
            out["unitary"] = matrix_to_json(self.unitary)
        if self.diagnostic is not None:
            out["diagnostic_scenario"] = self.diagnostic
        return out


def find_intertwiner(sc: CatalysisScenario, seed: int = 0) -> IntertwinerResult:
    """Construct V on the system with ``V rho V^dag = rho'`` and
    ``V X_i = Y_i V``: the exact simultaneous-unitary solver runs on exactly
    these equations, the pairs ``(rho, X_i)`` and ``(rho', Y_i)``.

    Raises ``DomainError`` for non-admissible scenarios.
    """
    report = verify_scenario(sc)
    if not report.admissible:
        raise DomainError(f"scenario is not admissible: {report}")
    match = find_simultaneous_unitary([sc.rho_s, *sc.gens_s_in], [sc.rho_s_out, *sc.gens_s_out],
                                      seed=seed, tol=min(sc.intertwiner_tol, 1e-8))
    if match.unitary is None:
        return IntertwinerResult(None, None, None, match, False, sc.to_json())
    v = match.unitary
    state_res = max_norm(v @ sc.rho_s @ v.conj().T - sc.rho_s_out)
    inter_res = 0.0
    for x_in, x_out in zip(sc.gens_s_in, sc.gens_s_out):
        inter_res = max(inter_res, max_norm(v @ x_in - x_out @ v))
    ok = state_res <= sc.intertwiner_tol and inter_res <= sc.intertwiner_tol
    return IntertwinerResult(v, state_res, inter_res, match, ok,
                             None if ok else sc.to_json())


def generate_admissible_scenario(d_s: int, d_c: int, m: int, seed: int,
                                 singular_states: bool = False) -> CatalysisScenario:
    """Seeded random scenario that satisfies both defining equations by
    construction (residuals at machine precision).

    Construction: all generators and both states are diagonal in hidden
    product bases, the joint unitary is a planted system unitary times
    diagonal charge-sector phases in the hidden basis. The planted unitary
    witnesses the intertwiner the solver is later asked to find. The sampler
    covers only such charge-block instances; it does not claim to sample all
    admissible scenarios.
    """
    rng = np.random.default_rng(seed)
    basis_s = random_unitary(d_s, rng)
    basis_c = random_unitary(d_c, rng)
    planted = random_unitary(d_s, rng)

    gens_s, gens_c = [], []
    for _ in range(m):
        gens_s.append(basis_s @ np.diag(rng.uniform(-1.5, 1.5, size=d_s)) @ basis_s.conj().T)
        gens_c.append(basis_c @ np.diag(rng.uniform(-1.5, 1.5, size=d_c)) @ basis_c.conj().T)
    gens_s_out = [planted @ x @ planted.conj().T for x in gens_s]

    def diagonal_state(d, basis):
        p = rng.uniform(0.05, 1.0, size=d)
        if singular_states and d > 1:
            p[rng.integers(d)] = 0.0
        p /= p.sum()
        return basis @ np.diag(p) @ basis.conj().T

    rho_s = diagonal_state(d_s, basis_s)
    sigma_c = diagonal_state(d_c, basis_c)
    rho_s_out = planted @ rho_s @ planted.conj().T

    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=d_s * d_c))
    joint_basis = tensor(basis_s, basis_c)
    sector_phase = joint_basis @ np.diag(phases) @ joint_basis.conj().T
    unitary = tensor(planted, np.eye(d_c)) @ sector_phase

    return CatalysisScenario(
        unitary=unitary, rho_s=rho_s, rho_s_out=rho_s_out, sigma_c=sigma_c,
        gens_s_in=gens_s, gens_s_out=gens_s_out, gens_c=gens_c, seed=seed)


# ---------------------------------------------------------------------------
# correlation bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelationReport:
    """Mutual information built up between catalyst and the rest.

    When the catalyst marginal is exactly preserved, the mutual information
    equals the entropy increase of the remainder, and the rank of the
    remainder cannot drop; ``identity_residual`` measures the first claim on
    the given data.
    """

    mutual_information: float
    entropy_change: float
    identity_residual: float
    catalyst_preserved: bool
    catalyst_residual: float
    rank_before: int
    rank_after: int

    def to_json(self) -> dict:
        return {"mutual_information": self.mutual_information,
                "entropy_change": self.entropy_change,
                "identity_residual": self.identity_residual,
                "catalyst_preserved": self.catalyst_preserved,
                "catalyst_residual": self.catalyst_residual,
                "rank_before": self.rank_before,
                "rank_after": self.rank_after}


def correlation_balance(u: np.ndarray, rho_se: np.ndarray,
                        sigma_c: np.ndarray) -> CorrelationReport:
    """Entropy and correlation ledger of one joint unitary application.

    Treats the first factor as the system-plus-environment block and the
    second as the catalyst. Computes the final mutual information
    I(C : SE), the entropy change of SE, and the ranks before and after.
    The identity I = Delta H holds whenever the catalyst marginal returns
    exactly; it is reported, not enforced.
    """
    u = require_unitary(u)
    rho_se = require_density(rho_se)
    sigma_c = require_density(sigma_c)
    d_se, d_c = rho_se.shape[0], sigma_c.shape[0]
    if u.shape[0] != d_se * d_c:
        raise DimensionError("unitary does not act on the declared SE (x) C split")
    final = u @ tensor(rho_se, sigma_c) @ u.conj().T
    final_se = partial_trace(final, [d_se, d_c], keep=[0])
    final_c = partial_trace(final, [d_se, d_c], keep=[1])
    h_se = von_neumann_entropy(final_se)
    h_c = von_neumann_entropy(final_c)
    h_joint = von_neumann_entropy(final)
    mutual = h_c + h_se - h_joint
    delta = h_se - von_neumann_entropy(rho_se)
    cat_res = max_norm(final_c - sigma_c)
    preserved = cat_res <= CATALYST_TOL
    return CorrelationReport(
        mutual_information=mutual,
        entropy_change=delta,
        identity_residual=abs(mutual - delta),
        catalyst_preserved=preserved,
        catalyst_residual=cat_res,
        rank_before=psd_rank(rho_se),
        rank_after=psd_rank(final_se),
    )


# ---------------------------------------------------------------------------
# finite-group constructions
# ---------------------------------------------------------------------------

def _at_pointer(ks: np.ndarray, y: int, n: int) -> np.ndarray:
    """Kraus stack ``K (x) |y><y|`` on system (x) an n-dimensional pointer."""
    r, d_out, d_in = ks.shape
    out = np.zeros((r, d_out, n, d_in, n), dtype=complex)
    out[:, :, y, :, y] = ks
    return out.reshape(r, d_out * n, d_in * n)


def regular_rep_channel(group: FiniteGroup, rep_s: FiniteGroupRep,
                        target: Channel) -> Channel:
    """Covariant channel on system (x) pointer reproducing an arbitrary target.

    The pointer carries the left regular representation of the group; feeding
    it the identity-element basis state makes the output channel act as the
    (generally non-covariant) target on the system:
    ``E[rho (x) |1><1|] = T[rho] (x) |1><1|``. The Kraus operators are the
    target's, translated by the group, ``W(y) K W(y)^dag (x) |y><y|``, index
    (y, K) with y outer.
    """
    if target.d_in != rep_s.dim or target.d_out != rep_s.dim:
        raise DimensionError("system representation does not match the target dims")
    if rep_s.group.order != group.order or not np.array_equal(rep_s.group.table, group.table):
        raise DomainError("rep_s must represent the supplied group")
    n = group.order
    w = np.array(rep_s.images)[:, None]
    turned = w @ target.kraus[None] @ w.conj().swapaxes(-1, -2)
    return Channel(np.concatenate([_at_pointer(turned[y], y, n) for y in range(n)]))


def state_swap_channel(group: FiniteGroup, rep_s: FiniteGroupRep,
                       rho: np.ndarray, sigma: np.ndarray, x: int) -> Channel:
    """Covariant measure-and-prepare channel swapping rho for sigma at pointer x.

    The pointer basis states of the regular representation are perfect frame
    states, so measuring the pointer, preparing the suitably rotated sigma and
    restoring the pointer is covariant while acting as ``rho -> sigma``
    whenever the pointer starts in ``|x>``.
    """
    rho = require_density(rho)
    sigma = require_density(sigma)
    if rho.shape[0] != rep_s.dim or sigma.shape[0] != rep_s.dim:
        raise DimensionError("states must live on the representation space")
    if not (0 <= x < group.order):
        raise DomainError(f"pointer element {x} outside group of order {group.order}")
    n, d_s = group.order, rep_s.dim
    stacks = []
    for y in range(n):
        w = rep_s.images[group.mul(y, group.inv(x))]
        amps = support_factor(w @ sigma @ w.conj().T)
        # sqrt(t_a) |t_a><b| at index (a, b), a outer
        ks = amps.T[:, None, :, None] * np.eye(d_s)[None, :, None, :]
        stacks.append(_at_pointer(ks.reshape(-1, d_s, d_s), y, n))
    return Channel(np.concatenate(stacks))


# ---------------------------------------------------------------------------
# bundled counterexample fixture
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RankCounterexample:
    """Three Hermitian pairs, pairwise unitarily equivalent but not jointly.

    Tensoring each pair with the rank-two projectors ``c`` (whose threefold
    products vanish) makes the 9x9 tuples jointly equivalent even though the
    3x3 triples are not: the distinguishing word trace differs by ``gap``.
    """

    a: tuple
    b: tuple
    c: tuple
    v: np.ndarray
    w: np.ndarray
    gap: float

    def tensored_a(self) -> tuple:
        return tuple(tensor(ai, ci) for ai, ci in zip(self.a, self.c))

    def tensored_b(self) -> tuple:
        return tuple(tensor(bi, ci) for bi, ci in zip(self.b, self.c))


def rank_condition_counterexample() -> RankCounterexample:
    """The explicit 3x3 fixture with trace gap 2 sqrt(3).

    ``b = (a1, a2, V a3 V^dag)`` with ``[a1, W] = [a2, V] = [a3, V^dag W] = 0``
    exactly, so the pairs (a_i, b_i) are pairwise equivalent with witnesses
    1, V and W respectively.
    """
    root3 = np.sqrt(3.0)
    a1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    a2 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    a3 = 1j * root3 * np.array([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], dtype=complex)
    v = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    w = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    b3 = v @ a3 @ v.conj().T
    c = tuple(np.diag(pattern).astype(complex)
              for pattern in ([1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]))
    gap = abs(np.trace(a1 @ a2 @ b3) - np.trace(a1 @ a2 @ a3))
    return RankCounterexample(a=(a1, a2, a3), b=(a1, a2, b3), c=c, v=v, w=w, gap=float(gap))

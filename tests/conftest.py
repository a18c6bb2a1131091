import numpy as np
import pytest

from covcat import linalg as la
from covcat.catalysis import CatalysisScenario
from covcat.channels import Channel
from covcat.refframe import FrameScenario, phase_ladder_unitary
from covcat.symmetry import standard_representation


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_channel(d: int, kraus_rank: int, rng: np.random.Generator,
                   d_out: int | None = None, container=list) -> Channel:
    """Random channel d -> d_out (default d) from a Haar isometry split into
    Kraus blocks, handed to `Channel` in ``container``."""
    d_out = d if d_out is None else d_out
    shape = (kraus_rank * d_out, d)
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return Channel(container([q[k * d_out:(k + 1) * d_out, :] for k in range(kraus_rank)]))


def env_channel_loop(u: np.ndarray, rho_s: np.ndarray, d_s: int, d_c: int) -> Channel:
    """Reference environment channel ``sigma -> Tr_S[U (rho_S (x) sigma) U^dag]``:
    one Kraus operator ``sqrt(w_k) (<l| (x) 1) U (|r_k> (x) 1)`` per eigenpair
    (w_k, r_k) of rho_S and output S index l, k outer and l inner."""
    w, v = np.linalg.eigh(rho_s)
    ub = u.reshape(d_s, d_c, d_s, d_c)
    ks = []
    for k_idx in range(d_s):
        if w[k_idx] <= 1e-15:
            continue
        block = np.einsum("albn,b->aln", ub, v[:, k_idx])
        ks += [np.sqrt(w[k_idx]) * block[l] for l in range(d_s)]
    return Channel(ks)


def dilated_frame_scenario(theta=np.pi / 2, n=4, d_e=2, mix=0.6, omega=None) -> FrameScenario:
    """Phase ladder on S (x) C followed by a charge-conserving frame/environment
    interaction; the environment state defaults to the pure ``|0><0|``."""
    u_sc = phase_ladder_unitary(n, theta)
    u_ce = np.eye(n * d_e, dtype=complex)
    for c in range(n - 1):
        i, j = c * d_e + 1, (c + 1) * d_e
        u_ce[i, i] = u_ce[j, j] = np.cos(mix)
        u_ce[i, j] = -np.sin(mix)
        u_ce[j, i] = np.sin(mix)
    u = la.tensor(np.eye(2), u_ce) @ la.tensor(u_sc, np.eye(d_e))
    amp = np.ones(n, dtype=complex) / np.sqrt(n)
    if omega is None:
        omega = np.zeros((d_e, d_e), dtype=complex)
        omega[0, 0] = 1.0
    target = np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * np.array([[0, 1], [1, 0]])
    return FrameScenario(
        unitary=u, sigma_c=np.outer(amp, amp.conj()), target=target,
        gens_s=(np.diag([0.0, 1.0]),),
        gens_c=(np.diag(np.arange(n, dtype=float)),),
        gens_e=(np.diag(np.arange(d_e, dtype=float)),),
        omega_e=omega)


def shifted_superposition_mixture(n_levels: int, shift: float,
                                  weight: float = 0.5) -> np.ndarray:
    """Mixture of the uniform superposition and its time-translated copy."""
    amp = np.ones(n_levels, dtype=complex) / np.sqrt(n_levels)
    phases = np.exp(-1j * shift * np.arange(n_levels))
    shifted = phases * amp
    return (1 - weight) * np.outer(amp, amp.conj()) + weight * np.outer(shifted, shifted.conj())


def scale_generators(sc: CatalysisScenario, scale: float) -> CatalysisScenario:
    """The same scenario with every conserved quantity multiplied by ``scale``;
    admissibility and the intertwiner are unchanged."""
    return CatalysisScenario(
        unitary=sc.unitary, rho_s=sc.rho_s, rho_s_out=sc.rho_s_out, sigma_c=sc.sigma_c,
        gens_s_in=[scale * g for g in sc.gens_s_in],
        gens_s_out=[scale * g for g in sc.gens_s_out],
        gens_c=[scale * g for g in sc.gens_c])


def s3_standard_images():
    """S3 as permutation matrices restricted to the plane orthogonal to (1,1,1)."""
    return list(standard_representation(3).images)


# Per-operator reference constructions, one Kraus operator (or column) at a
# time, in the order the stacked constructions must keep.

def compose_loop(outer: Channel, inner: Channel) -> list:
    return [a @ b for a in outer.kraus for b in inner.kraus]


def tensor_channels_loop(a: Channel, b: Channel) -> list:
    return [la.tensor(ka, kb) for ka in a.kraus for kb in b.kraus]


def twirl_loop(t: Channel, rep_in, rep_out) -> list:
    n = rep_in.group.order
    return [w_out.conj().T @ k @ w_in / np.sqrt(n)
            for w_in, w_out in zip(rep_in.images, rep_out.images) for k in t.kraus]


def depolarizing_loop(d: int) -> list:
    ks = []
    for i in range(d):
        for j in range(d):
            k = np.zeros((d, d), dtype=complex)
            k[i, j] = 1.0 / np.sqrt(d)
            ks.append(k)
    return ks


def stinespring_unitary_loop(t: Channel) -> np.ndarray:
    """Dilation unitary on S (x) E: column (s, 0) is the isometry's column s,
    the other columns are the QR complement in column order."""
    d, r = t.d_in, len(t.kraus)
    iso = np.zeros((d * r, d), dtype=complex)
    for e, k in enumerate(t.kraus):
        iso[e::r, :] = k  # row (s, e) of S (x) E is s*r + e
    q, _ = np.linalg.qr(np.concatenate([iso, np.eye(d * r, dtype=complex)], axis=1))
    complement = q[:, d:]
    full = np.zeros((d * r, d * r), dtype=complex)
    fill = 0
    for s in range(d):
        full[:, s * r] = iso[:, s]
    for col in range(d * r):
        if col % r != 0:
            full[:, col] = complement[:, fill]
            fill += 1
    return full

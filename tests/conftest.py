import numpy as np
import pytest

from covcat.channels import Channel
from covcat.symmetry import standard_representation


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_channel(d: int, kraus_rank: int, rng: np.random.Generator) -> Channel:
    """Random channel from a Haar isometry split into Kraus blocks."""
    g = rng.standard_normal((kraus_rank * d, d)) + 1j * rng.standard_normal((kraus_rank * d, d))
    q, _ = np.linalg.qr(g)
    return Channel([q[k * d:(k + 1) * d, :] for k in range(kraus_rank)])


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


def s3_standard_images():
    """S3 as permutation matrices restricted to the plane orthogonal to (1,1,1)."""
    return list(standard_representation(3).images)

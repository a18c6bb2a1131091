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


def s3_standard_images():
    """S3 as permutation matrices restricted to the plane orthogonal to (1,1,1)."""
    return list(standard_representation(3).images)

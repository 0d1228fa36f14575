import numpy as np
import pytest

from hbdsim.foliation import Foliation


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def kron_chain(mats):
    """Independent Kronecker-product oracle used across the tests."""
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, np.asarray(m, dtype=complex))
    return out


def trajectory_rng(master_seed, index):
    """Stream oracle: numpy's Philox4x64-10 generator keyed by (master seed
    mod 2**64, index), the stream ``ensemble._proposal_draws`` computes in
    bulk for sample ``index``."""
    key = np.array([master_seed & 0xFFFFFFFFFFFFFFFF, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class AffineRelabeled(Foliation):
    """A foliation with its labels remapped by s -> alpha * s + beta
    (alpha > 0), for tests of reparametrization invariance.

    The leaves, normals and charts are the base's; only the label
    bookkeeping transforms.
    """

    def __init__(self, base, alpha, beta):
        if alpha <= 0:
            raise ValueError("label map must be strictly increasing")
        super().__init__(base.spatial_dims, base.validity_box)
        self.base = base
        self.alpha = float(alpha)
        self.beta = float(beta)

    def label(self, x):
        return self.alpha * self.base.label(x) + self.beta

    def gradient(self, x):
        return self.alpha * self.base.gradient(x)

    def leaf_point(self, s, xi):
        return self.base.leaf_point((np.asarray(s) - self.beta) / self.alpha, xi)

    def chart_coords(self, x):
        return self.base.chart_coords(x)

    def chart_velocity(self, x, v):
        return self.base.chart_velocity(x, v)

    def area_element(self, s, xi):
        return self.base.area_element((np.asarray(s) - self.beta) / self.alpha, xi)

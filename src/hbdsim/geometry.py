"""Minkowski four-vector algebra and the Dirac spin-space operator algebra.

Conventions, fixed for the whole package:

* metric signature (+, -, -, -), natural units (hbar = c = 1);
* four-vectors are plain numpy arrays of length 4 holding contravariant
  components (x^0, x^1, x^2, x^3); in 1+1 mode components 2 and 3 are kept
  in place but pinned to zero;
* spin-space operators are dense complex matrices (numpy arrays) acting on
  the N-particle spin space, i.e. the Kronecker product of the per-particle
  spinor spaces;
* particle indices k in public signatures are 1-based (1 <= k <= N).

Gamma matrices use the standard Dirac representation in 3+1 dimensions
(gamma^0 diagonal) and the two-dimensional representation
gamma^0 = diag(1, -1), gamma^1 = i*sigma_x in 1+1 dimensions.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = [
    "SpinDimensionMode",
    "minkowski_dot",
    "minkowski_norm_sq",
    "gamma",
    "alpha",
    "lift_to_particle",
    "slash",
]


class SpinDimensionMode(Enum):
    """Spacetime/spinor dimensionality: 3+1 (4-spinors) or 1+1 (2-spinors)."""

    D31 = "D31"
    D11 = "D11"

    @property
    def spinor_dim(self) -> int:
        return 4 if self is SpinDimensionMode.D31 else 2

    @property
    def spatial_dims(self) -> int:
        return 3 if self is SpinDimensionMode.D31 else 1

    @property
    def vector_indices(self) -> range:
        """Spacetime indices mu that carry nontrivial components."""
        return range(4) if self is SpinDimensionMode.D31 else range(2)

    def spin_space_dim(self, n_particles: int) -> int:
        return self.spinor_dim ** n_particles


def minkowski_dot(a, b):
    """a.b = a^0 b^0 - a^1 b^1 - a^2 b^2 - a^3 b^3, broadcast over leading axes."""
    # one multiply for the four products, then the formula's subtractions
    # in its order, so the bits are the formula's; the last two subtract
    # in place from the first difference, the one array allocated
    p = np.multiply(a, b)
    dot = p[..., 0] - p[..., 1]
    dot -= p[..., 2]
    dot -= p[..., 3]
    return dot


def minkowski_norm_sq(a):
    return minkowski_dot(a, a)


def _frozen(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    m.setflags(write=False)
    return m


_SIGMA = (
    _frozen([[0, 1], [1, 0]]),
    _frozen([[0, -1j], [1j, 0]]),
    _frozen([[1, 0], [0, -1]]),
)

_ZERO2 = np.zeros((2, 2), dtype=complex)

_GAMMA_D31 = (
    _frozen(np.diag([1, 1, -1, -1])),
    _frozen(np.block([[_ZERO2, _SIGMA[0]], [-_SIGMA[0], _ZERO2]])),
    _frozen(np.block([[_ZERO2, _SIGMA[1]], [-_SIGMA[1], _ZERO2]])),
    _frozen(np.block([[_ZERO2, _SIGMA[2]], [-_SIGMA[2], _ZERO2]])),
)

_GAMMA_D11 = (
    _frozen(np.diag([1, -1])),
    _frozen([[0, 1j], [1j, 0]]),
)


def gamma(mu: int, mode: SpinDimensionMode) -> np.ndarray:
    """Single-particle gamma matrix gamma^mu in the fixed representation.

    Valid indices are 0..3 in D31 and 0..1 in D11.
    """
    table = _GAMMA_D31 if mode is SpinDimensionMode.D31 else _GAMMA_D11
    if not 0 <= mu < len(table):
        raise ValueError(f"gamma index {mu} invalid for mode {mode.value}")
    return table[mu]


def alpha(i: int, mode: SpinDimensionMode) -> np.ndarray:
    """Velocity matrix alpha^i = gamma^0 gamma^i (i = 1..spatial dims)."""
    if not 1 <= i <= mode.spatial_dims:
        raise ValueError(f"alpha index {i} invalid for mode {mode.value}")
    return _frozen(gamma(0, mode) @ gamma(i, mode))


def lift_to_particle(op: np.ndarray, k: int, n_particles: int) -> np.ndarray:
    """Embed a single-particle operator at slot k of the N-particle space.

    Returns the Kronecker product I x ... x op x ... x I with op at the
    k-th (1-based) position.
    """
    if not 1 <= k <= n_particles:
        raise ValueError(f"particle index {k} out of range 1..{n_particles}")
    op = np.asarray(op, dtype=complex)
    d = op.shape[0]
    eye = np.eye(d, dtype=complex)
    out = None
    for slot in range(1, n_particles + 1):
        factor = op if slot == k else eye
        out = factor if out is None else np.kron(out, factor)
    return out


def slash(v, mode: SpinDimensionMode = SpinDimensionMode.D31) -> np.ndarray:
    """Single-particle metric contraction
    v^mu gamma_mu = v^0 gamma^0 - sum_i v^i gamma^i."""
    v = np.asarray(v, dtype=float)
    out = v[0] * gamma(0, mode)
    for mu in mode.vector_indices:
        if mu == 0:
            continue
        out = out - v[mu] * gamma(mu, mode)
    return out

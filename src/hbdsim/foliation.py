"""Space-like foliations of Minkowski space by generating functions.

A foliation is described by a function f whose level sets are the leaves.
Three variants are provided:

* ``ConstantNormal``      f(x) = n.x for a fixed future timelike unit n
                          (tilted hyperplanes, the constant solution of the
                          toy evolution law with vanishing normal gradient);
* ``FlatTime``            f(x) = x^0, i.e. ``ConstantNormal`` at n = e0:
                          the equal-time hyperplanes of the paper's
                          distinguished frame, on which the hypersurface
                          model is Bohm's N-Dirac model;
* ``GraphLeaf``           f(x) = x^0 - h(spatial x), leaves are graphs
                          x^0 = s + h(xi) over a fixed spatial slice.

Graph profiles h come from named analytic families of xi_1 alone; each
gives its value and its closed-form slope dh/dxi_1, so no numerical
differentiation enters the dynamics hot path.
Each foliation provides leaf labels, the (contravariant) gradient field,
the future unit normal, a per-leaf chart xi -> point, the induced area
element of that chart, and a validity scan certifying timelikeness of the
gradient over a bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidityBreach
from .geometry import minkowski_dot, minkowski_norm_sq

__all__ = [
    "Foliation",
    "FlatTime",
    "ConstantNormal",
    "GraphLeaf",
    "TanhProfile",
    "RippleProfile",
    "ValidityReport",
    "frobenius_residual",
    "twisted_field",
]


@dataclass(frozen=True)
class ValidityReport:
    """Result of a timelikeness scan: min of (df.df)/(df^0)^2 over the grid."""

    margin: float
    worst_point: np.ndarray
    passed: bool


class Foliation:
    """Common interface; subclasses fill in the variant-specific pieces."""

    def __init__(self, spatial_dims, validity_box=None):
        if spatial_dims not in (1, 3):
            raise ValueError("spatial_dims must be 1 or 3")
        self.spatial_dims = spatial_dims
        if validity_box is not None:
            # a read-only copy, so the bounds that contains_spatial reads,
            # fixed here, stay the box's
            validity_box = np.array(validity_box, dtype=float)
            if validity_box.shape != (spatial_dims, 2):
                raise ValueError("validity box must have shape (spatial_dims, 2)")
            validity_box.setflags(write=False)
            self._box_lo, self._box_hi = validity_box.T
        self.validity_box = validity_box

    # -- variant-specific -------------------------------------------------
    def label(self, x):
        raise NotImplementedError

    def gradient(self, x):
        """Contravariant gradient field of f, broadcast over leading axes."""
        raise NotImplementedError

    def leaf_point(self, s, xi):
        """Points (..., 4) of the leaf Sigma_s at chart coordinates xi.

        ``xi`` has shape (..., sd) with any leading axes, e.g. (M, N, sd)
        for M configurations of N particles, and ``s`` broadcasts against
        those leading axes: a scalar, or ``s[:, None]`` for one label per
        configuration.
        """
        raise NotImplementedError

    def chart_coords(self, x):
        raise NotImplementedError

    def area_element(self, s, xi):
        raise NotImplementedError

    # -- shared -----------------------------------------------------------
    def normal(self, x):
        """Future-oriented unit normal: gradient normalized in the metric."""
        g = self.gradient(x)
        nn = minkowski_norm_sq(g)
        if np.any(nn <= 0):
            raise ValidityBreach("foliation gradient not timelike", point=x)
        return g / np.sqrt(nn)[..., None]

    def chart_velocity(self, x, v):
        """Chart components of a four-velocity at x (d xi / d parameter)."""
        return v[..., 1:1 + self.spatial_dims]

    def contains_spatial(self, x):
        """Whether the spatial part of x lies in the validity box (broadcast)."""
        if self.validity_box is None:
            return np.ones(np.shape(x)[:-1], dtype=bool)
        xi = np.asarray(x)[..., 1:1 + self.spatial_dims]
        return ((xi >= self._box_lo) & (xi <= self._box_hi)).all(axis=-1)

    def _scan_grid(self, resolution):
        if self.validity_box is None:
            return np.zeros((1, self.spatial_dims))
        axes = [np.linspace(lo, hi, resolution)
                for lo, hi in self.validity_box]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def validity_scan(self, resolution=101) -> ValidityReport:
        """Grid scan of the timelikeness margin (df.df)/(df^0)^2."""
        if resolution < 1:
            raise ValueError("resolution must be positive")
        xi = self._scan_grid(resolution)
        x = np.zeros(xi.shape[:-1] + (4,))
        x[..., 1:1 + self.spatial_dims] = xi
        g = self.gradient(x)
        margin = minkowski_norm_sq(g) / g[..., 0] ** 2
        worst = int(np.argmin(margin))
        return ValidityReport(margin=float(margin[worst]),
                              worst_point=xi[worst].copy(),
                              passed=bool(margin[worst] > 0))


class ConstantNormal(Foliation):
    """f(x) = n.x with n a fixed future-oriented unit timelike vector.

    Charts use a Minkowski-orthonormal spatial triad obtained from the
    coordinate axes by Gram-Schmidt against n, so for n = (1,0,0,0) the
    triad is the coordinate axes and the chart coordinates are the spatial
    components.
    """

    def __init__(self, n, spatial_dims=3, validity_box=None):
        super().__init__(spatial_dims, validity_box)
        n = np.asarray(n, dtype=float)
        if n.shape != (4,):
            raise ValueError(f"normal must have shape (4,), got {n.shape}")
        nsq = minkowski_norm_sq(n)
        if nsq <= 0 or n[0] <= 0:
            raise ValueError("normal must be future-oriented timelike")
        n = n / np.sqrt(nsq)
        self.n = n

        triad = []
        for i in range(1, 1 + spatial_dims):
            v = np.zeros(4)
            v[i] = 1.0
            v = v - minkowski_dot(n, v) * n
            for e in triad:
                v = v + minkowski_dot(e, v) * e
            norm_sq = -minkowski_norm_sq(v)
            if norm_sq <= 0:
                raise ValueError("failed to build a spacelike chart triad")
            triad.append(v / np.sqrt(norm_sq))
        self.triad = np.array(triad)

    def label(self, x):
        return minkowski_dot(self.n, x)

    def gradient(self, x):
        g = np.empty(np.shape(x)[:-1] + (4,))
        g[...] = self.n
        return g

    def leaf_point(self, s, xi):
        xi = np.asarray(xi, dtype=float)
        x = np.multiply.outer(np.asarray(s, dtype=float), self.n)
        for i in range(self.spatial_dims):
            x = x + np.multiply.outer(xi[..., i], self.triad[i])
        return x

    def chart_coords(self, x):
        # against the whole triad at once, through (..., sd, 4)
        return -minkowski_dot(self.triad, np.asarray(x)[..., None, :])

    def chart_velocity(self, x, v):
        return -minkowski_dot(self.triad, np.asarray(v)[..., None, :])

    def area_element(self, s, xi):
        xi = np.asarray(xi)
        return np.ones(xi.shape[:-1])


class FlatTime(ConstantNormal):
    """f(x) = x^0; the equal-time foliation of the coordinate frame."""

    def __init__(self, spatial_dims, validity_box=None):
        super().__init__((1.0, 0.0, 0.0, 0.0), spatial_dims, validity_box)


class TanhProfile:
    """h(xi) = a * tanh(b * xi_1): one monotone gradient ramp."""

    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)

    def value(self, xi):
        return self.a * np.tanh(self.b * xi[..., 0])

    def slope(self, u):
        """dh/dxi_1 at xi_1 = u, the one nonzero component of grad h."""
        return self.a * self.b / np.cosh(self.b * u) ** 2


class RippleProfile:
    """h(xi) = a * sin(b * xi_1) * exp(-xi_1^2 / w^2): an oscillatory bump."""

    def __init__(self, a, b, w):
        self.a = float(a)
        self.b = float(b)
        self.w = float(w)

    def value(self, xi):
        u = xi[..., 0]
        return self.a * np.sin(self.b * u) * np.exp(-u * u / self.w ** 2)

    def slope(self, u):
        """dh/dxi_1 at xi_1 = u, the one nonzero component of grad h."""
        w2 = self.w ** 2
        bu = self.b * u
        env = np.exp(-u * u / w2)
        return self.a * env * (self.b * np.cos(bu)
                               - (2.0 * u / w2) * np.sin(bu))


class GraphLeaf(Foliation):
    """f(x) = x^0 - h(spatial x); leaves are the graphs x^0 = s + h(xi)."""

    def __init__(self, profile, validity_box, spatial_dims=3):
        super().__init__(spatial_dims, validity_box)
        if self.validity_box is None:
            raise ValueError("GraphLeaf requires a validity box")
        self.profile = profile

    def _spatial(self, x):
        return np.asarray(x, dtype=float)[..., 1:1 + self.spatial_dims]

    def label(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] - self.profile.value(self._spatial(x))

    def gradient(self, x):
        # contravariant components (1, grad h); raising the index of the
        # covector (1, -grad h) flips the spatial sign. h depends on xi_1
        # only, so the gradient is (1, h'(xi_1), 0, 0), built in one array
        x = np.asarray(x, dtype=float)
        g = np.zeros(x.shape[:-1] + (4,))
        g[..., 0] = 1.0
        g[..., 1] = self.profile.slope(x[..., 1])
        return g

    def leaf_point(self, s, xi):
        xi = np.asarray(xi, dtype=float)
        x = np.zeros(xi.shape[:-1] + (4,))
        x[..., 0] = s + self.profile.value(xi)
        x[..., 1:1 + self.spatial_dims] = xi
        return x

    def chart_coords(self, x):
        return self._spatial(x).copy()

    def area_element(self, s, xi):
        xi = np.asarray(xi, dtype=float)
        g2 = self.profile.slope(xi[..., 0]) ** 2
        if np.any(g2 >= 1.0):
            raise ValidityBreach("|grad h| >= 1: leaf not space-like there")
        return np.sqrt(1.0 - g2)


def frobenius_residual(field, x, step=1e-3) -> float:
    """Max component of V ^ dV at x for a four-vector field, by central differences.

    ``field`` maps batches of points (..., 4) to contravariant components
    (..., 4); the one-form V is obtained by lowering with the metric. The
    residual vanishes (to O(step^2)) exactly when the field is
    hypersurface-orthogonal, i.e. generates a foliation.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    signs = np.array([1.0, -1.0, -1.0, -1.0])

    displaced = np.broadcast_to(x, (8, 4)).copy()
    for mu in range(4):
        displaced[2 * mu, mu] += step
        displaced[2 * mu + 1, mu] -= step
    vals = np.asarray(field(displaced), dtype=float) * signs  # lowered
    v0 = np.asarray(field(x), dtype=float) * signs

    dv = np.zeros((4, 4))  # dv[nu, lam] = d_nu V_lam
    for mu in range(4):
        dv[mu] = (vals[2 * mu] - vals[2 * mu + 1]) / (2.0 * step)

    worst = 0.0
    for mu in range(4):
        for nu in range(mu + 1, 4):
            for lam in range(nu + 1, 4):
                comp = (v0[mu] * (dv[nu, lam] - dv[lam, nu])
                        + v0[nu] * (dv[lam, mu] - dv[mu, lam])
                        + v0[lam] * (dv[mu, nu] - dv[nu, mu]))
                worst = max(worst, abs(comp))
    return worst


def twisted_field(c=0.5):
    """A non-integrable reference field (1, 0, c*x^3, 0): V ^ dV has a
    component of size |c| however small the differencing step."""

    def field(x):
        x = np.asarray(x, dtype=float)
        v = np.zeros(x.shape)
        v[..., 0] = 1.0
        v[..., 2] = c * x[..., 3]
        return v

    return field

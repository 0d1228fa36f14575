"""Guiding currents j_k and the crossing density rho.

For a wave function value psi, leaf normals n_1..n_N and particle k, the
current is the spinor bilinear

    j_k^mu = psibar (gamma_1.n_1) ... gamma_k^mu ... (gamma_N.n_N) psi ,

and rho = j_k.n_k (the same number for every k). Folding the Dirac adjoint
into the operator, each bilinear is psi^dag (B_1 x ... x B_N) psi with
per-particle factors B_l = gamma^0 (gamma.n_l) = n_l^0 I - n_l . alpha for
l != k and B_k = gamma^0 gamma^mu.

Two implementations are kept deliberately. The dense Kronecker-matrix path
is the obviously-correct reference, used by the public single-configuration
operations and as a test oracle. The bilinear kernel serves the integrator
and the sampler's weights: each B_l is linear in the normal, B_l =
sum_i a_l(i) M_i with M_0 = I, M_i = alpha^i, a_l(0) = n_l^0 and a_l(i) =
-n_l^i, so every current component and rho is a fixed combination of the
(1 + spatial dims)^N normal-independent bilinears

    T_c = psi^dag (M_{c_1} x ... x M_{c_N}) psi ,

namely j_k^mu = sum_{c: c_k = mu} T_c prod_{l != k} a_l(c_l) and
rho = sum_c T_c prod_l a_l(c_l). Every M_c has one nonzero entry per row,
so T_c is a sum of D permuted, phased products per configuration. The
kernel takes a whole batch's rows, component-major (the caller bounds
them: ``dynamics.BATCH_SIZE``), and sums in a fixed order, so its values
do not depend on batch shape. The integrator calls it once per RK stage,
often on 2-4 rows, where the fixed cost of a call outweighs the
arithmetic, so all C x D terms of a pass are formed at once: one gather
through the cached permutation (D, C), two products (the conjugate
component, the cached phases (D, C, 1)) and one sum over the components
in order. A pass holds at most ``BLOCK_TERMS`` terms, which bounds the
temporaries for large D. Tests pin the agreement of the two paths.

The leaf-density grids split every bilinear over psi's branch pairs into
one-particle bilinears instead (``_branch_pieces``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError
from .geometry import (
    SpinDimensionMode,
    alpha,
    gamma,
    minkowski_dot,
    slash,
)

__all__ = [
    "IMAG_TOLERANCE",
    "current_jk",
    "density_rho",
    "divergence_residual",
    "currents_all_batch",
    "density_batch",
]

# bilinears are mathematically real; anything above this (relative to the
# squared spinor norm) indicates a representation bug, not roundoff
IMAG_TOLERANCE = 1e-10
BLOCK_TERMS = 1 << 16  # most terms D x C x rows per pass; bounds the
                       # temporaries (1 MB): D31 N=3 (D = C = 64) takes
                       # 16 rows a pass, D11 N=2 4096 rows
_NEGATIVE_ZERO = complex(-0.0, -0.0)


def _check_normals(normals, n_particles):
    normals = np.asarray(normals, dtype=float)
    if normals.shape != (n_particles, 4):
        raise ValueError(f"expected {n_particles} normals of 4 components")
    nn = minkowski_dot(normals, normals)
    if np.any(np.abs(nn - 1.0) > 1e-8) or np.any(normals[..., 0] <= 0):
        raise ValueError("normals must be unit timelike and future-oriented")
    return normals


def _real_part(value, scale, what):
    imag = abs(value.imag)
    if (imag > IMAG_TOLERANCE * np.maximum(scale, 1e-300)).any():
        raise ConsistencyError(
            f"{what} has imaginary residue {imag.max():.3e} "
            f"above policy threshold")
    return value.real


def _contraction_factor(n, mode):
    """Dense single-particle factor gamma^0 (gamma . n)."""
    return gamma(0, mode) @ slash(n, mode=mode)


def current_jk(psi, k, points, normals) -> np.ndarray:
    """Current of particle k at a point tuple, dense reference path.

    ``normals`` holds the unit leaf normals at the respective points.
    Returns a real four-vector; in D11 components 2 and 3 are zero.
    """
    n = psi.n_particles
    mode = psi.mode
    normals = _check_normals(normals, n)
    v = psi.evaluate(points)
    scale = float(np.real(np.vdot(v, v)))

    factors = [_contraction_factor(normals[l], mode) for l in range(n)]
    j = np.zeros(4)
    for mu in mode.vector_indices:
        slot_k = gamma(0, mode) @ gamma(mu, mode)
        op = None
        for l in range(n):
            f = slot_k if l == k - 1 else factors[l]
            op = f if op is None else np.kron(op, f)
        j[mu] = _real_part(np.vdot(v, op @ v), scale, f"j_{k}^{mu}")
    return j


def density_rho(psi, points, normals) -> float:
    """rho = psibar (gamma_1.n_1)...(gamma_N.n_N) psi, dense reference path."""
    n = psi.n_particles
    mode = psi.mode
    normals = _check_normals(normals, n)
    v = psi.evaluate(points)
    scale = float(np.real(np.vdot(v, v)))

    op = None
    for l in range(n):
        f = _contraction_factor(normals[l], mode)
        op = f if op is None else np.kron(op, f)
    return float(_real_part(np.vdot(v, op @ v), scale, "rho"))


# ---------------------------------------------------------------------------
# bilinear kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _BilinearTable:
    """The operators M_c = M_{c_1} x ... x M_{c_N} (M_0 = I, M_i = alpha^i)
    for every multi-index c in C order, stored by rows and row-major for
    the kernel: row r of M_c has its one nonzero entry ``phase[r, c, 0]``
    in column ``perm[r, c]``."""

    perm: np.ndarray       # (D, C) int
    phase: np.ndarray      # (D, C, 1) complex


@functools.lru_cache(maxsize=None)
def _bilinear_table(n_particles, mode: SpinDimensionMode) -> _BilinearTable:
    d = mode.spinor_dim
    singles = [np.eye(d, dtype=complex)]
    singles += [alpha(i, mode) for i in range(1, 1 + mode.spatial_dims)]
    # (column, phase) of the one nonzero entry of each row of each M_i; a
    # Kronecker product of such matrices has one nonzero entry per row too
    entries = []
    for i, op in enumerate(singles):
        cols = [np.flatnonzero(row) for row in op]
        if any(len(c) != 1 for c in cols):
            raise ConsistencyError(
                f"M_{i} has a row without exactly one nonzero entry")
        entries.append([(int(c[0]), complex(row[c[0]]))
                        for row, c in zip(op, cols)])
    perm, phase = [], []
    for c in itertools.product(range(len(singles)), repeat=n_particles):
        perm.append([])
        phase.append([])
        for r in itertools.product(range(d), repeat=n_particles):
            col, ph = 0, 1.0
            for c_l, r_l in zip(c, r):
                col_l, ph_l = entries[c_l][r_l]
                col, ph = col * d + col_l, ph * ph_l
            perm[-1].append(col)
            phase[-1].append(ph)
    # cached and shared by every caller, so read-only
    perm = np.array(perm).T.copy()
    phase = np.array(phase, dtype=complex).T[:, :, None].copy()
    perm.setflags(write=False)
    phase.setflags(write=False)
    return _BilinearTable(perm, phase)


def _bilinears(values, normals, n_particles, mode):
    """(t, a, scale) at a batch of rows.

    ``t`` holds the bilinears T_c = psi^dag M_c psi, shape (m,)*N + (rows,)
    with m = 1 + spatial dims; ``a`` the coefficients a_l(0) = n_l^0,
    a_l(i) = -n_l^i, shape (N, m, rows); ``scale`` psi^dag psi = Re T_0.
    The bilinears are formed in passes of at most ``BLOCK_TERMS`` terms;
    the outputs span every row given, so the caller bounds the rows.
    Every sum runs over a leading axis in a fixed order and everything else
    is elementwise, so no value depends on the batch shape.
    """
    values = np.asarray(values)
    v = values.reshape(-1, values.shape[-1]).T.copy()   # (D, rows)
    normals = np.asarray(normals, dtype=float).reshape(-1, n_particles, 4)
    table = _bilinear_table(n_particles, mode)
    m = 1 + mode.spatial_dims
    rows = v.shape[1]
    step = max(1, BLOCK_TERMS // table.perm.size)   # rows per terms pass
    vc = v.conj()[:, None]
    # every term conj(psi_r) phase psi_perm of every T_c, (D, C, rows) in
    # passes of at most BLOCK_TERMS, summed over the components r in
    # order: r is the outermost axis, also for one row, so no pairwise
    # summation, and the sum starts from -0.0, which leaves its first
    # term's bits as they are
    t = np.empty((table.perm.shape[1], rows), dtype=complex)
    for r0 in range(0, rows, step):
        terms = v[:, r0:r0 + step].take(table.perm, axis=0)
        terms *= vc[..., r0:r0 + step]
        terms *= table.phase
        np.add.reduce(terms, axis=0, out=t[:, r0:r0 + step],
                      initial=_NEGATIVE_ZERO)
    # a fresh C-ordered copy, so the caller's normals are never written;
    # imaginary parts +0.0, spatial real parts negated
    a = normals[:, :, :m].transpose(1, 2, 0).astype(complex, order="C")
    spatial = a.real[:, 1:]
    np.negative(spatial, out=spatial)
    return t.reshape((m,) * n_particles + (rows,)), a, t[0].real


def _contract(t, a, skip=None):
    # sum t over every particle axis l != skip against a[l], last axis
    # first, each sum in index order
    for l in reversed(range(len(a))):
        if l == skip:
            continue
        pick = (slice(None),) * l
        acc = t[pick + (0,)] * a[l, 0]
        for i in range(1, a.shape[1]):
            acc += t[pick + (i,)] * a[l, i]
        t = acc
    return t


def currents_all_batch(values, normals, n_particles, mode: SpinDimensionMode):
    """Currents j_k for all k at a batch of configurations.

    ``values`` has shape (..., D), ``normals`` (..., N, 4); returns
    (..., N, 4) real currents. j_k^mu sums T_c Prod_{l != k} a_l(c_l) over
    the multi-indices c with c_k = mu.
    """
    values = np.asarray(values)
    lead = values.shape[:-1]
    m = 1 + mode.spatial_dims
    t, a, scale = _bilinears(values, normals, n_particles, mode)
    j = np.empty((n_particles,) + t.shape[-2:], dtype=complex)
    for k in range(n_particles):
        j[k] = _contract(t, a, skip=k)
    out = np.zeros((len(scale), n_particles, 4))
    out[:, :, :m] = _real_part(j, scale, "a current").transpose(2, 0, 1)
    return out.reshape(lead + (n_particles, 4))


def density_batch(values, normals, n_particles, mode: SpinDimensionMode):
    """rho at a batch of configurations, shape (...,): the sum of
    T_c Prod_l a_l(c_l) over every multi-index c."""
    values = np.asarray(values)
    t, a, scale = _bilinears(values, normals, n_particles, mode)
    return np.ascontiguousarray(_real_part(_contract(t, a), scale, "rho")
                                ).reshape(values.shape[:-1])


def _branch_pieces(factors, vectors, mode: SpinDimensionMode):
    """One particle's pair pieces from its branch factors (B, d, P).

    For the Q branch pairs b <= b' in ``np.triu_indices(B)`` order, the
    bilinears h^i = f_b^dag M_i f_b' (M_0 = I, M_i = alpha^i) summed
    against a(0) = v^0, a(i) = -v^i of the vectors v (P, 4), shape (Q, P):
    at the leaf normals, each pair's factor of rho. The sums over the
    components run in order, as in ``_bilinears``, in passes of at most
    ``BLOCK_TERMS`` terms; the pairs b = b' pass the reality guard.
    """
    table = _bilinear_table(1, mode)
    d, m = table.perm.shape
    left, right = np.triu_indices(len(factors))
    diag = left == right
    out = np.empty((len(left), factors.shape[-1]), dtype=complex)
    step = max(1, BLOCK_TERMS // (d * m * len(left)))
    phase = table.phase[..., None]                      # (d, m, 1, 1)
    for lo in range(0, out.shape[-1], step):
        f = factors[..., lo:lo + step]
        # (d, m, Q, points), the component r outermost
        terms = f[right].transpose(1, 0, 2).take(table.perm, axis=0)
        terms *= f[left].transpose(1, 0, 2).conj()[:, None]
        terms *= phase
        h = np.add.reduce(terms, axis=0, initial=_NEGATIVE_ZERO)
        h[:, diag] = _real_part(h[:, diag], h[0, diag].real,
                                "a diagonal branch bilinear")
        v = vectors[lo:lo + step]
        piece = out[:, lo:lo + step]
        np.multiply(h[0], v[:, 0], out=piece)
        for i in range(1, m):
            piece -= h[i] * v[:, i]
    return out


def divergence_residual(psi, k, points, normals, h) -> float:
    """Central-difference approximation of d_mu j_k^mu in the x_k slot.

    The other points and all normals are held fixed while x_k is displaced;
    the exact divergence vanishes identically, so the returned value decays
    as O(h^2). Used as a correctness oracle.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    n = psi.n_particles
    mode = psi.mode
    normals = _check_normals(normals, n)
    x = np.asarray(points, dtype=float)
    mus = list(mode.vector_indices)

    displaced = np.broadcast_to(x, (2 * len(mus), n, 4)).copy()
    for jidx, mu in enumerate(mus):
        displaced[2 * jidx, k - 1, mu] += h
        displaced[2 * jidx + 1, k - 1, mu] -= h
    vals = psi.evaluate_batch(displaced)
    normals_b = np.broadcast_to(normals, (2 * len(mus), n, 4))
    j = currents_all_batch(vals, normals_b, n, mode)[:, k - 1, :]

    div = 0.0
    for jidx, mu in enumerate(mus):
        div += (j[2 * jidx, mu] - j[2 * jidx + 1, mu]) / (2.0 * h)
    return float(abs(div))

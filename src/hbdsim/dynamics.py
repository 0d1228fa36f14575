"""Trajectory integration for the hypersurface-guided N-particle dynamics.

Trajectories are parametrized by the leaf label s: the configuration at s
is the N-tuple of intersection points of the particle paths with the leaf
Sigma_s, and it advances by

    dX_k/ds = j_k / (df(X_k) . j_k)

with j_k the guiding current evaluated at the configuration and df the
(contravariant) gradient of the generating function. The integrator is
classical fixed-step RK4 with a projection onto the target leaf: after the
four stages every particle takes a single Newton step along its fourth-stage
current, which removes secular label drift without touching the order of
the method. The velocity field is then evaluated at the accepted point; that
evaluation checks the stored configuration for nodes and gradient validity
and is the next step's first stage (first same as last), so a step costs
four psi evaluations.

The flat-frame law dQ_k/dt = psi^dag alpha_k psi / psi^dag psi is kept as a
separately coded oracle integrator; with a FlatTime foliation the two must
produce the same paths, which is one of the package's acceptance gates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .currents import currents_all_batch
from .errors import ConsistencyError, LabelOutOfRange, NodeProximity
from .geometry import lift_to_particle, alpha, minkowski_dot, minkowski_norm_sq

__all__ = [
    "SYNC_TOLERANCE",
    "TrajectoryEnsemble",
    "integrate",
    "integrate_ensemble",
    "bd_flat_velocity",
    "integrate_flat_bd",
    "sample_path_at_times",
]

SYNC_TOLERANCE = 1e-9
BATCH_SIZE = 1024        # rows per integration job and sampler weight block

EVENT_NODE = "node_proximity"
EVENT_VALIDITY = "validity_breach"


@dataclass
class TrajectoryEnsemble:
    """A set of trajectories integrated on a common s-grid.

    ``points`` holds the configurations at the grid labels ``columns``
    (every label unless the run kept only some; see ``integrate_ensemble``),
    column by column. ``valid_steps`` counts grid steps, whichever labels
    were kept.
    """

    s_grid: np.ndarray            # (T+1,)
    points: np.ndarray            # (M, C, N, 4)
    valid_steps: np.ndarray       # (M,)
    events: list                  # [(trajectory, s, kind)]
    columns: np.ndarray           # (C,) grid label index of each column
    foliation: object = field(repr=False, default=None)

    @property
    def n_trajectories(self):
        return self.points.shape[0]


def _flow(psi, foliation, x):
    """Velocity field data at a batch of configurations x (..., N, 4).

    Returns (v, rho, j, grad_ok): the parametrized velocities
    j_k/(df.j_k), the density j_1.n_1, the raw currents, and a mask
    (..., N) of the particles whose gradient is timelike. A row at a node
    or with a spacelike gradient divides by zero or takes the root of a
    negative number; the caller flags such rows, and enters
    ``np.errstate`` once around its calls to silence numpy's warnings for
    them, not on every call.
    """
    grads = foliation.gradient(x)
    nn = minkowski_norm_sq(grads)
    grad_ok = nn > 0
    normals = grads / np.sqrt(nn)[..., None]
    j = currents_all_batch(psi.evaluate_batch(x), normals, psi.n_particles,
                           psi.mode)
    rho = minkowski_dot(j[..., 0, :], normals[..., 0, :])
    v = j / minkowski_dot(grads, j)[..., None]
    return v, rho, j, grad_ok


def _label_grid(s0, s_end, step):
    if step <= 0:
        raise ValueError("step must be positive")
    if s_end <= s0:
        raise ValueError("s_end must exceed the initial label")
    span = s_end - s0
    n_full = int(math.floor(span / step + 1e-9))
    grid = s0 + step * np.arange(n_full + 1)
    if s_end - grid[-1] > 1e-12 * max(1.0, abs(s_end)):
        grid = np.append(grid, s_end)
    return grid


def _bracket(s_grid, s):
    """The grid step (i, theta) whose labels s_grid[i], s_grid[i+1] bracket
    ``s``, with s = (1 - theta) s_grid[i] + theta s_grid[i+1];
    ``LabelOutOfRange`` outside the grid."""
    if not (s_grid[0] - 1e-12 <= s <= s_grid[-1] + 1e-12):
        raise LabelOutOfRange("target label outside the integrated range")
    i = int(np.searchsorted(s_grid, s, side="right")) - 1
    i = min(max(i, 0), len(s_grid) - 2)
    return i, (s - s_grid[i]) / (s_grid[i + 1] - s_grid[i])


def _integrate_batch(psi, foliation, pts0, s_grid, columns, node_threshold,
                     out, valid):
    """Fixed-step RK4 with leaf re-projection for one batch of trajectories.

    Writes the configurations at the grid labels ``columns`` into ``out``
    (batch, C, N, 4), a halted row's last valid one into all its later
    columns, and the valid steps into ``valid`` (batch,); returns the
    batch's events.
    """
    n_steps = len(s_grid) - 1
    batch, n_particles = pts0.shape[:2]
    # the column of each grid label, -1 where it is not kept
    column = np.full(n_steps + 1, -1)
    column[columns] = np.arange(len(columns))
    if column[0] >= 0:
        out[:, column[0]] = pts0
    valid[:] = n_steps
    events = []

    active = np.arange(batch)
    # per active row: every stage of this step met a timelike gradient at
    # every particle, and every stage a rho above the node threshold
    grad_ok = np.ones((batch, n_particles), dtype=bool)
    rho_ok = np.ones(batch, dtype=bool)

    def stage(x):
        v, rho, j, ok = _flow(psi, foliation, x)
        nonlocal grad_ok, rho_ok
        grad_ok &= ok
        rho_ok &= rho > node_threshold
        return v, j

    y = pts0.copy()
    labels = s_grid.tolist()
    # node and spacelike rows are flagged and halted, not warned about
    with np.errstate(invalid="ignore", divide="ignore"):
        k1, _ = stage(y)
        for i in range(n_steps):
            if active.size == 0:
                break
            s_here, s_next = labels[i], labels[i + 1]
            h = s_next - s_here

            k2, _ = stage(y + (0.5 * h) * k1)
            k3, _ = stage(y + (0.5 * h) * k2)
            k4, j4 = stage(y + h * k3)
            y_end = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

            # one Newton correction along the fourth stage's current j4
            # restores f(X_k) = s exactly enough
            lam = ((s_next - foliation.label(y_end))
                   / minkowski_dot(foliation.gradient(y_end), j4))
            y_proj = y_end + lam[..., None] * j4
            # the accepted point is checked, and its velocity is the next k1
            k_next, _ = stage(y_proj)

            inside = foliation.contains_spatial(y_proj)
            good = (grad_ok & inside).all(axis=-1) & rho_ok
            if not good.all():
                grad_rows = grad_ok.all(axis=-1)
                nun_ok = grad_rows & rho_ok
                inside = inside.all(axis=-1)
                for row in np.flatnonzero(~nun_ok):
                    traj = int(active[row])
                    kind = EVENT_NODE if grad_rows[row] else EVENT_VALIDITY
                    events.append((traj, s_here, kind))
                for row in np.flatnonzero(nun_ok & ~inside):
                    events.append((int(active[row]), s_next, EVENT_VALIDITY))
                # halted rows freeze at their last valid configuration, the
                # one at label i, and leave; the rows kept passed every
                # check, so both masks restart all True
                halted = active[~good]
                valid[halted] = i
                out[halted[:, None], np.flatnonzero(columns > i)] = (
                    y[~good, None])
                active, y_proj, k_next = active[good], y_proj[good], k_next[good]
                grad_ok, rho_ok = grad_ok[good], rho_ok[good]

            y, k1 = y_proj, k_next
            if len(y):
                drift = abs(foliation.label(y) - s_next)
                if drift.max() > SYNC_TOLERANCE:
                    raise ConsistencyError(
                        f"leaf projection left residue {drift.max():.3e}")
            if column[i + 1] >= 0:
                out[active, column[i + 1]] = y
    return events


def integrate_ensemble(psi, foliation, initial_points, s0, s_end, step,
                       node_threshold: float = 0.0, workers: int = 1,
                       keep_labels=None) -> TrajectoryEnsemble:
    """Integrate many trajectories from a common initial leaf.

    ``initial_points`` has shape (M, N, 4) with every point on Sigma_{s0}.
    Work is split into batches of ``BATCH_SIZE`` trajectories whose
    boundaries do not depend on ``workers``; together with the
    chunking-independent arithmetic of the batch kernels this makes the
    output bit-identical for any worker count. The events are sorted by
    (s, trajectory), so their order does not depend on ``BATCH_SIZE``
    either.

    By default the ensemble holds every grid label. Given ``keep_labels``,
    a sequence of labels in [s0, s_end], it holds only the two grid labels
    that bracket each of them, the columns ``crossings`` reads there, so
    its size does not depend on the path length. The (M, C, N, 4) points
    array is allocated once and each batch writes its own slice, so the
    run's memory peak is that array plus one batch's working set.
    """
    pts = np.asarray(initial_points, dtype=float)
    if pts.ndim != 3 or pts.shape[2] != 4:
        raise ValueError("initial points must have shape (M, N, 4)")
    drift = np.max(np.abs(foliation.label(pts) - s0))
    if drift > SYNC_TOLERANCE:
        raise ConsistencyError(
            f"initial configuration off the leaf by {drift:.3e}")
    s_grid = _label_grid(s0, s_end, step)
    if keep_labels is None:
        columns = np.arange(len(s_grid))
    else:
        lower = [_bracket(s_grid, s)[0] for s in keep_labels]
        columns = np.unique(np.array(lower + [i + 1 for i in lower],
                                     dtype=int))

    m_total = pts.shape[0]
    jobs = [(lo, min(lo + BATCH_SIZE, m_total))
            for lo in range(0, m_total, BATCH_SIZE)]
    points = np.empty((m_total, len(columns)) + pts.shape[1:])
    valid = np.empty(m_total, dtype=int)

    def run(job):
        lo, hi = job
        return _integrate_batch(psi, foliation, pts[lo:hi], s_grid, columns,
                                node_threshold, points[lo:hi], valid[lo:hi])

    if workers > 1 and len(jobs) > 1:
        # imported here: a serial run never loads concurrent.futures (nor
        # the logging module it imports)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(job) for job in jobs]

    events = [(t + lo, s, kind) for (lo, _), ev in zip(jobs, results)
              for t, s, kind in ev]
    # by (s, trajectory), so the order does not depend on the batches
    events.sort(key=lambda e: (e[1], e[0]))
    return TrajectoryEnsemble(s_grid=s_grid, points=points, valid_steps=valid,
                              events=events, columns=columns,
                              foliation=foliation)


def integrate(psi, foliation, points, s0, s_end, step,
              node_threshold: float = 0.0) -> TrajectoryEnsemble:
    """Integrate the single configuration ``points`` (N, 4) on Sigma_{s0}:
    the one-row ensemble of integrate_ensemble, whose rules apply."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 4:
        raise ValueError("points must have shape (N, 4)")
    return integrate_ensemble(psi, foliation, points[None], s0, s_end, step,
                              node_threshold)


# ---------------------------------------------------------------------------
# flat-frame oracle
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _lifted_alphas(n_particles, mode):
    """Dense alpha_k^i on the N-particle spin space, indexed [k-1][i-1]."""
    return tuple(
        tuple(lift_to_particle(alpha(i, mode), k, n_particles)
              for i in range(1, 1 + mode.spatial_dims))
        for k in range(1, n_particles + 1))


def bd_flat_velocity(psi, t, positions, node_threshold: float = 0.0):
    """Flat-frame guiding velocities dQ_k/dt = psi^dag alpha_k psi / psi^dag psi.

    ``positions`` has shape (N, spatial_dims); returns the same shape.
    Coded against dense lifted matrices, independent of the covariant path.
    """
    sd = psi.mode.spatial_dims
    q = np.asarray(positions, dtype=float)
    x = np.zeros((psi.n_particles, 4))
    x[:, 0] = t
    x[:, 1:1 + sd] = q
    v = psi.evaluate(x)
    norm_sq = float(np.real(np.vdot(v, v)))
    if not norm_sq > node_threshold:
        raise NodeProximity(t, f"psi^dag psi below node threshold at t={t}")
    ops = _lifted_alphas(psi.n_particles, psi.mode)
    vel = np.empty((psi.n_particles, sd))
    for k in range(psi.n_particles):
        for i in range(sd):
            vel[k, i] = np.real(np.vdot(v, ops[k][i] @ v)) / norm_sq
    return vel


def integrate_flat_bd(psi, t0, t_end, step, positions0,
                      node_threshold: float = 0.0):
    """RK4 for the flat-frame law; returns (t_grid, positions (T+1, N, sd))."""
    t_grid = _label_grid(t0, t_end, step)
    q = np.asarray(positions0, dtype=float).copy()
    out = np.empty((len(t_grid),) + q.shape)
    out[0] = q
    for i in range(len(t_grid) - 1):
        t = float(t_grid[i])
        h = float(t_grid[i + 1] - t_grid[i])
        k1 = bd_flat_velocity(psi, t, q, node_threshold)
        k2 = bd_flat_velocity(psi, t + 0.5 * h, q + (0.5 * h) * k1, node_threshold)
        k3 = bd_flat_velocity(psi, t + 0.5 * h, q + (0.5 * h) * k2, node_threshold)
        k4 = bd_flat_velocity(psi, t + h, q + h * k3, node_threshold)
        q = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = q
    return t_grid, out


# ---------------------------------------------------------------------------
# parametrization-free path comparison
# ---------------------------------------------------------------------------

def sample_path_at_times(psi, foliation, ensemble: TrajectoryEnsemble, i, k,
                         times):
    """Spatial position of particle k of trajectory i at given coordinate
    times x^0.

    Reparametrizes the path by its own time component using cubic Hermite
    interpolation (slopes from the guiding field), so paths integrated
    against different foliations can be compared pointwise. ``times`` must
    lie inside the path's time span, and the ensemble must hold every
    grid label (``ValueError`` otherwise).
    """
    if len(ensemble.columns) != len(ensemble.s_grid):
        raise ValueError("the ensemble holds only some grid labels, not "
                         "whole paths")
    top = int(ensemble.valid_steps[i]) + 1
    path = ensemble.points[i, :top]
    pts = path[:, k - 1, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        v, _, _, _ = _flow(psi, foliation, path)
    vk = v[:, k - 1, :]
    tgrid = pts[:, 0]
    if np.any(np.diff(tgrid) <= 0):
        raise ConsistencyError("path time component not strictly increasing")
    slopes = vk[:, 1:] / vk[:, 0:1]       # dx^i/dx^0

    times = np.asarray(times, dtype=float)
    if np.any(times < tgrid[0] - 1e-12) or np.any(times > tgrid[-1] + 1e-12):
        raise ValueError("requested times outside the path's span")
    idx = np.clip(np.searchsorted(tgrid, times, side="right") - 1,
                  0, len(tgrid) - 2)
    t0 = tgrid[idx]
    dt = tgrid[idx + 1] - t0
    u = np.clip((times - t0) / dt, 0.0, 1.0)

    h00 = (1 + 2 * u) * (1 - u) ** 2
    h10 = u * (1 - u) ** 2
    h01 = u * u * (3 - 2 * u)
    h11 = u * u * (u - 1)
    y0 = pts[idx, 1:]
    y1 = pts[idx + 1, 1:]
    m0 = slopes[idx]
    m1 = slopes[idx + 1]
    return (h00[:, None] * y0 + h10[:, None] * (dt[:, None] * m0)
            + h01[:, None] * y1 + h11[:, None] * (dt[:, None] * m1))

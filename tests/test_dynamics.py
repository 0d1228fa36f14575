import tracemalloc
import warnings

import numpy as np
import pytest

from hbdsim import checks, dynamics
from hbdsim.checks import flat_reduction_deviation
from hbdsim.currents import current_jk
from hbdsim.dynamics import (
    _flow,
    bd_flat_velocity,
    integrate,
    integrate_ensemble,
    sample_path_at_times,
)
from hbdsim.errors import ConsistencyError, NodeProximity
from hbdsim.foliation import ConstantNormal, FlatTime, GraphLeaf, TanhProfile
from hbdsim.geometry import SpinDimensionMode, minkowski_dot
from hbdsim.scenario import (
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
)
from hbdsim.wavefunction import NParticleWavefunction, make_mode

from conftest import AffineRelabeled

D11 = SpinDimensionMode.D11


def single_mode_psi(p=0.6):
    return NParticleWavefunction([(1.0, (make_mode([p], 1.0, 1, 1, D11),))])


def entangled_psi(seed=5):
    rng = np.random.default_rng(seed)
    def rand_mode():
        return make_mode(rng.normal(0, 1, 1), 1.0,
                         1 if rng.random() < 0.8 else -1, 1, D11)
    return NParticleWavefunction([
        (1.0, (rand_mode(), rand_mode())),
        (complex(rng.normal(), rng.normal()), (rand_mode(), rand_mode())),
        (complex(rng.normal(), rng.normal()), (rand_mode(), rand_mode())),
    ])


def curved(a=0.8, b=0.6, width=60.0):
    return GraphLeaf(TanhProfile(a, b), validity_box=[[-width, width]],
                     spatial_dims=1)


def test_configuration_sync_validation():
    # a start off the leaf Sigma_s0 is refused
    psi = single_mode_psi()
    fol = curved()
    x0 = fol.leaf_point(0.0, np.array([[0.4]]))
    assert integrate(psi, fol, x0, 0.0, 0.1, 0.05).valid_steps[0] == 2
    with pytest.raises(ConsistencyError):
        integrate(psi, fol, x0, 0.5, 1.0, 0.05)
    with pytest.raises(ConsistencyError):
        integrate_ensemble(psi, fol, x0[None], 0.5, 1.0, 0.05)


def test_flat_velocity_reduces_to_guiding_law():
    psi = entangled_psi()
    flat = FlatTime(spatial_dims=1)
    q = np.array([[0.3], [-0.6]])
    pts = np.zeros((2, 4))
    pts[:, 1] = q[:, 0]
    v = _flow(psi, flat, pts[None])[0][0]
    # time components are exactly 1 in the leaf-label parametrization
    assert np.max(np.abs(v[:, 0] - 1.0)) < 1e-12
    vq = bd_flat_velocity(psi, 0.0, q)
    assert np.max(np.abs(v[:, 1] - vq[:, 0])) < 1e-12


def _with_moving_branch(psi):
    # psi plus a branch of one moving mode per particle. A single mode's
    # flow (the rest state's, say) is the same at every point, since its
    # phase cancels in the currents; a superposition's is not
    md = make_mode([0.6] * psi.mode.spatial_dims, psi.mass, 1, 1, psi.mode)
    return NParticleWavefunction.from_product_branches(
        list(psi.branches) + [(0.5, [[(1.0, md)]] * psi.n_particles)])


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_flow_of_a_few_rows_equals_their_rows_of_a_large_batch(name):
    # a scenario's 2-4 starting configurations, alone and as rows of a
    # 9000-row batch of configurations on the same leaf: the rows straddle
    # the boundary of psi's first two factor-stage chunks, and every
    # output of _flow keeps its bits, for the scenario's state and for
    # that state with a moving branch added
    sc = load_scenario(bundled_scenario_path(name))
    x = sc.initial_configurations()
    xi = np.random.default_rng(31).uniform(
        -6.0, 6.0, size=(9000,) + sc.integration.initial_positions.shape[1:])
    for psi in (sc.psi, _with_moving_branch(sc.psi)):
        batch = sc.foliation.leaf_point(sc.integration.s0, xi)
        chunk = psi._chunk_points
        rows = chunk - 1 + np.arange(len(x))
        assert rows[-1] >= chunk and rows[-1] < len(batch)
        batch[rows] = x
        few = _flow(psi, sc.foliation, x)
        many = _flow(psi, sc.foliation, batch)
        for a, b in zip(few, many):
            assert a.shape == b[rows].shape
            assert a.tobytes() == b[rows].tobytes()


def test_rest_mode_stays_put():
    psi = single_mode_psi(0.0)
    fol = curved()
    x0 = fol.leaf_point(0.0, np.array([[0.7]]))
    run = integrate(psi, fol, x0, 0.0, 4.0, 0.05)
    assert run.valid_steps[0] == len(run.s_grid) - 1
    assert np.max(np.abs(run.points[0, :, 0, 1] - 0.7)) < 1e-12
    assert np.all(np.diff(run.points[0, :, 0, 0]) > 0)


def test_single_mode_exact_line_flat():
    psi = single_mode_psi(0.6)
    e = np.sqrt(1.36)
    flat = FlatTime(spatial_dims=1)
    run = integrate(psi, flat, np.array([[0.0, 0.3, 0, 0]]), 0.0, 5.0, 0.05)
    expected = 0.3 + run.s_grid * (0.6 / e)
    assert np.max(np.abs(run.points[0, :, 0, 1] - expected)) < 1e-10
    assert np.max(np.abs(run.points[0, :, 0, 0] - run.s_grid)) < 1e-10


def test_single_mode_exact_line_tilted():
    psi = single_mode_psi(0.6)
    fol = ConstantNormal([np.cosh(0.4), np.sinh(0.4), 0, 0], spatial_dims=1)
    x0 = fol.leaf_point(0.0, np.array([0.2]))
    run = integrate(psi, fol, x0[None], 0.0, 5.0, 0.05)
    # velocity is j / (n.j), constant: straight line exactly
    j = current_jk(psi, 1, x0[None], fol.normal(x0[None]))
    v = j / minkowski_dot(fol.n, j)
    expected = x0[None] + run.s_grid[:, None] * v[None]
    assert np.max(np.abs(run.points[0, :, 0, :] - expected)) < 1e-10


def test_single_mode_straight_on_curved():
    # the current points in a constant direction; the worldline is straight
    # even though the label parametrization along it is not affine
    psi = single_mode_psi(0.8)
    fol = curved()
    run = integrate(psi, fol, fol.leaf_point(0.0, np.array([[0.3]])), 0.0,
                    4.0, 0.02)
    pts = run.points[0, :, 0, :]
    e = np.sqrt(1.64)
    direction = np.array([e, 0.8, 0, 0]) / np.linalg.norm([e, 0.8, 0, 0])
    rel = pts - pts[0]
    off = rel - np.outer(rel @ direction, direction)
    assert np.max(np.abs(off)) < 1e-11
    # labels stay synchronized with the grid
    assert np.max(np.abs(fol.label(pts) - run.s_grid)) < 1e-9


def test_flat_reduction_matches_oracle():
    dev, tol = flat_reduction_deviation(entangled_psi(seed=11),
                                        [[0.4], [-0.7]], 0.0, 2.0, 0.02)
    assert dev < tol


def test_rk4_step_halving_order():
    psi = entangled_psi(seed=13)
    fol = curved()
    pts0 = fol.leaf_point(0.0, np.array([[0.3], [-0.5]]))

    ref = integrate(psi, fol, pts0, 0.0, 2.0, 0.1 / 16).points[0, -1]
    e1 = np.max(np.abs(integrate(psi, fol, pts0, 0.0, 2.0, 0.1).points[0, -1]
                       - ref))
    e2 = np.max(np.abs(integrate(psi, fol, pts0, 0.0, 2.0, 0.05).points[0, -1]
                       - ref))
    ratio = e1 / e2
    assert 16 * 0.7 < ratio < 16 * 1.3


def test_reparametrization_invariance():
    psi = entangled_psi(seed=17)
    fol = curved()
    pts0 = fol.leaf_point(0.0, np.array([[0.4], [-0.2]]))
    base = integrate(psi, fol, pts0, 0.0, 3.0, 0.05).points[0]

    # pure dyadic rescaling traverses the same leaves: bitwise identical
    re = AffineRelabeled(fol, 2.0, 0.0)
    again = integrate(psi, re, pts0, 0.0, 6.0, 0.1).points[0]
    assert np.array_equal(base, again)

    # non-dyadic relabeling agrees to roundoff-level tolerance
    re2 = AffineRelabeled(fol, 1.7, -0.3)
    b2 = integrate(psi, re2, pts0, -0.3, 1.7 * 3.0 - 0.3,
                   1.7 * 0.05).points[0]
    ref = integrate(psi, fol, pts0, 0.0, 3.0, 0.025).points[0]
    est = np.max(np.abs(base - ref[::2]))
    assert np.max(np.abs(b2 - base)) < 10 * (est + 1e-12)


def test_no_leaf_recrossing():
    psi = entangled_psi(seed=19)
    fol = curved()
    pts0 = fol.leaf_point(0.0, np.array([[0.1], [0.9]]))
    path = integrate(psi, fol, pts0, 0.0, 3.0, 0.05).points[0]
    for k in range(2):
        labels = fol.label(path[:, k, :])
        assert np.all(np.diff(labels) > 0)
        assert np.all(np.diff(path[:, k, 0]) > 0)


def test_product_state_velocity_independence():
    # particle 1's velocity must not depend on particle 2's position
    f1 = [(1.0, make_mode([0.7], 1.0, 1, 1, D11)),
          (0.4, make_mode([0.1], 1.0, 1, 1, D11))]
    f2 = [(1.0, make_mode([-0.5], 1.0, 1, 1, D11)),
          (0.3j, make_mode([0.9], 1.0, 1, 1, D11))]
    psi = NParticleWavefunction.from_product_branches([(1.0, [f1, f2])])
    fol = curved()
    for xi2 in (-1.0, 0.5, 2.0):
        pts = np.stack([fol.leaf_point(0.0, np.array([0.3])),
                        fol.leaf_point(0.0, np.array([xi2]))])
        v = _flow(psi, fol, pts[None])[0][0]
        if xi2 == -1.0:
            v_ref = v[0]
        else:
            assert np.max(np.abs(v[0] - v_ref)) < 1e-12


def test_node_proximity_raised():
    md = make_mode([0.5], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,)), (-1.0, (md,))])  # identically 0
    flat = FlatTime(spatial_dims=1)
    run = integrate(psi, flat, np.zeros((1, 4)), 0.0, 1.0, 0.05,
                    node_threshold=1e-12)
    assert run.events == [(0, 0.0, "node_proximity")]
    assert run.valid_steps[0] == 0
    with pytest.raises(NodeProximity):
        bd_flat_velocity(psi, 0.0, np.zeros((1, 1)), node_threshold=1e-12)


def test_node_event_recorded_and_trajectory_halted():
    # force the halt machinery by setting the threshold above the actual
    # density: the trajectory must stop at once, record the event, and
    # freeze at its last valid configuration
    psi = single_mode_psi(0.5)                     # rho = 1 everywhere
    flat = FlatTime(spatial_dims=1)
    run = integrate(psi, flat, np.zeros((1, 4)), 0.0, 1.0, 0.05,
                    node_threshold=2.0)
    assert run.valid_steps[0] != len(run.s_grid) - 1
    assert run.events and run.events[0][2] == "node_proximity"
    assert run.events[0][:2] == (0, 0.0)
    assert run.valid_steps[0] == 0
    assert np.array_equal(run.points[0, -1], run.points[0, 0])


def test_validity_breach_event():
    psi = single_mode_psi(0.9)
    fol = curved(width=1.0)                        # tiny certified region
    run = integrate(psi, fol, fol.leaf_point(0.0, np.array([[0.0]])), 0.0,
                    6.0, 0.05)
    top = run.valid_steps[0]
    assert top != len(run.s_grid) - 1
    kinds = {kind for _, _, kind in run.events}
    assert kinds == {"validity_breach"}
    # frozen tail: the stored points after the halt repeat the last valid one
    assert np.array_equal(run.points[0, top + 2], run.points[0, top])


def test_halting_batch_raises_no_numpy_warning():
    # a node (psi identically zero: 0 / 0 in the velocity and the Newton
    # step) and spacelike gradients (the root of a negative number) halt
    # their rows without a numpy warning, also with warnings as errors:
    # the integrator silences them once around its step loop
    md = make_mode([0.5], 1.0, 1, 1, D11)
    zero = NParticleWavefunction([(1.0, (md,)), (-1.0, (md,))])
    steep = GraphLeaf(TanhProfile(2.0, 1.0), validity_box=[[-60, 60]],
                      spatial_dims=1)                   # |h'| = 2 at xi = 0
    xi = np.array([[[-4.0]], [[0.0]], [[0.1]], [[5.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        node = integrate_ensemble(zero, FlatTime(1),
                                  FlatTime(1).leaf_point(0.0, xi), 0.0, 1.0,
                                  0.05, node_threshold=1e-12)
        spacelike = integrate_ensemble(single_mode_psi(0.6), steep,
                                       steep.leaf_point(0.0, xi), 0.0, 1.0,
                                       0.05)
        times = spacelike.points[0, 3:9, 0, 0]
        sample_path_at_times(single_mode_psi(0.6), steep, spacelike, 0, 1,
                             times)
    assert node.events == [(t, 0.0, "node_proximity") for t in range(4)]
    assert spacelike.events == [(1, 0.0, "validity_breach"),
                                (2, 0.0, "validity_breach")]
    assert list(spacelike.valid_steps) == [20, 0, 0, 20]


def test_ensemble_batch_and_worker_invariance(monkeypatch):
    psi = entangled_psi(seed=23)
    fol = curved()
    rng = np.random.default_rng(1)
    pts0 = fol.leaf_point(0.0, rng.uniform(-1, 1, size=(40, 2, 1)))
    monkeypatch.setattr(dynamics, "BATCH_SIZE", 40)
    a = integrate_ensemble(psi, fol, pts0, 0.0, 1.0, 0.05, workers=1)
    monkeypatch.setattr(dynamics, "BATCH_SIZE", 7)
    b = integrate_ensemble(psi, fol, pts0, 0.0, 1.0, 0.05, workers=3)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.valid_steps, b.valid_steps)
    # single-trajectory runs reproduce their ensemble rows bitwise
    one = integrate(psi, fol, pts0[5], 0.0, 1.0, 0.05)
    assert np.array_equal(one.points[0], a.points[5])
    assert one.valid_steps[0] == a.valid_steps[5]


def _curved_starts(fol, m, seed):
    xi = np.random.default_rng(seed).uniform(-1, 1, size=(m, 2, 1))
    return fol.leaf_point(0.0, xi)


def test_ensemble_memory_peak_is_its_points_array():
    # the (M, T+1, N, 4) points array is allocated once and each batch
    # writes its own slice: no second copy of it at the end of the run
    fol = curved()
    pts0 = _curved_starts(fol, dynamics.BATCH_SIZE + 6, 11)
    tracemalloc.start()
    try:
        ens = integrate_ensemble(entangled_psi(seed=23), fol, pts0, 0.0,
                                 10.0, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.points.shape == (len(pts0), 201, 2, 4)
    assert peak < 1.3 * ens.points.nbytes


def test_kept_labels_memory_does_not_grow_with_the_path():
    # kept labels store two columns, not 201; the whole points array alone
    # would take 13.2 MB
    fol = curved()
    pts0 = _curved_starts(fol, dynamics.BATCH_SIZE + 6, 11)
    tracemalloc.start()
    try:
        ens = integrate_ensemble(entangled_psi(seed=23), fol, pts0, 0.0,
                                 10.0, 0.05, keep_labels=[10.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.columns.tolist() == [199, 200]
    assert ens.points.shape == (len(pts0), 2, 2, 4)
    assert peak < 4 * 2 ** 20 < len(pts0) * 201 * 2 * 4 * 8


@pytest.mark.parametrize("workers", [1, 3])
def test_kept_columns_are_the_whole_paths_columns(monkeypatch, workers):
    # rows that halt (a validity breach at the narrow box's edge) keep their
    # last valid configuration in every later kept column
    psi = entangled_psi(seed=23)
    fol = curved(width=1.5)
    pts0 = _curved_starts(fol, 13, 2)
    monkeypatch.setattr(dynamics, "BATCH_SIZE", 5)
    full = integrate_ensemble(psi, fol, pts0, 0.0, 2.0, 0.05)
    kept = integrate_ensemble(psi, fol, pts0, 0.0, 2.0, 0.05,
                              workers=workers, keep_labels=[0.0, 0.73, 2.0])
    assert kept.columns.tolist() == [0, 1, 14, 15, 39, 40]
    assert 0 < np.sum(full.valid_steps < 40) < len(pts0)
    assert kept.points.tobytes() == full.points[:, kept.columns].tobytes()
    assert np.array_equal(kept.valid_steps, full.valid_steps)
    assert kept.events == full.events
    assert np.array_equal(kept.s_grid, full.s_grid)


def test_path_resampling_needs_whole_paths():
    psi = single_mode_psi()
    fol = FlatTime(1)
    kept = integrate_ensemble(psi, fol, np.zeros((1, 1, 4)), 0.0, 1.0, 0.05,
                              keep_labels=[1.0])
    with pytest.raises(ValueError, match="whole paths"):
        sample_path_at_times(psi, fol, kept, 0, 1, [0.5])


def test_four_psi_evaluations_per_step(monkeypatch):
    # FSAL: the evaluation at the accepted point opens the next step
    psi = entangled_psi(seed=23)
    fol = curved()
    pts0 = _curved_starts(fol, 12, 2)
    rows = []
    evaluate = psi.evaluate_batch

    def counting(points):
        rows.append(int(np.prod(np.shape(points)[:-2])))
        return evaluate(points)

    monkeypatch.setattr(psi, "evaluate_batch", counting)
    ens = integrate_ensemble(psi, fol, pts0, 0.0, 1.0, 0.05)
    n_steps = len(ens.s_grid) - 1
    assert np.all(ens.valid_steps == n_steps)
    assert sum(rows) == 12 * (4 * n_steps + 1)


def test_every_stored_point_is_evaluated(monkeypatch):
    # each accepted configuration, the last one included, passes through the
    # stage function, so its node and gradient checks have run
    psi = entangled_psi(seed=23)
    fol = curved()
    seen = set()
    flow = dynamics._flow

    def recording(psi_, fol_, x):
        seen.update(row.tobytes() for row in np.reshape(x, (-1, 2, 4)))
        return flow(psi_, fol_, x)

    monkeypatch.setattr(dynamics, "_flow", recording)
    ens = integrate_ensemble(psi, fol, _curved_starts(fol, 9, 4), 0.0, 1.0,
                             0.05)
    n_steps = len(ens.s_grid) - 1
    assert np.all(ens.valid_steps == n_steps)
    missing = [(t, i) for t in range(ens.n_trajectories)
               for i in range(n_steps + 1)
               if ens.points[t, i].tobytes() not in seen]
    assert missing == []


def test_bd_velocity_examples():
    rest = NParticleWavefunction([
        (1.0, (make_mode([0], 1.0, 1, 1, D11), make_mode([0], 1.0, 1, 1, D11)))])
    v = bd_flat_velocity(rest, 0.3, np.zeros((2, 1)))
    assert np.max(np.abs(v)) < 1e-14

    md = make_mode([0.9], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,))])
    v = bd_flat_velocity(psi, 0.0, np.array([[0.4]]))
    assert abs(v[0, 0] - 0.9 / np.sqrt(1.81)) < 1e-12

    scaled = NParticleWavefunction([((0.3 - 1.2j) * 1.0, (md,))])
    v2 = bd_flat_velocity(scaled, 0.0, np.array([[0.4]]))
    assert np.max(np.abs(v - v2)) < 1e-14


def test_d31_single_particle_line():
    # full 3+1 mode: a boosted mode follows its four-momentum direction
    mode31 = SpinDimensionMode.D31
    md = make_mode([0.4, -0.3, 0.5], 1.0, 1, 2, mode31)
    psi = NParticleWavefunction([(1.0, (md,))])
    flat = FlatTime(spatial_dims=3)
    run = integrate(psi, flat, np.zeros((1, 4)), 0.0, 2.0, 0.05)
    e = md.four_momentum[0]
    expected = np.outer(run.s_grid, md.four_momentum / e)
    assert np.max(np.abs(run.points[0, :, 0, :] - expected)) < 1e-10


def test_path_time_resampling_consistency():
    # resampling a path at its own grid times reproduces the grid points
    psi = entangled_psi(seed=29)
    fol = curved()
    pts0 = fol.leaf_point(0.0, np.array([[0.2], [-0.4]]))
    run = integrate(psi, fol, pts0, 0.0, 2.0, 0.05)
    times = run.points[0, 5:30, 0, 0]
    q = sample_path_at_times(psi, fol, run, 0, 1, times)
    assert np.max(np.abs(q[:, 0] - run.points[0, 5:30, 0, 1])) < 1e-12


def test_foliation_independence_suites_batch_invariance():
    # a batched call gives exactly the worst of its one-start calls
    fol = checks.default_curved_foliation(1)
    psi1 = NParticleWavefunction([(1.0, (make_mode([0.9], 1.0, 1, 1, D11),)),
                                  (0.7j, (make_mode([0.3], 1.0, 1, 1, D11),))])
    factors = [[(1.0, make_mode([0.8], 1.0, 1, 1, D11)),
                (0.5, make_mode([0.2], 1.0, 1, 1, D11))],
               [(1.0, make_mode([-0.6], 1.0, 1, 1, D11)),
                (0.4j, make_mode([-0.1], 1.0, 1, 1, D11))]]
    x0 = fol.leaf_point(0.0, np.array([[-1.0], [0.2], [1.3]]))
    xi = np.array([[[0.5], [-0.8]], [[-1.2], [0.3]], [[0.9], [1.4]]])
    for suite, state, starts in (
            (checks.n1_foliation_independence, psi1, x0),
            (checks.product_foliation_independence, factors, xi)):
        ones = [suite(state, start, step=0.1, t_span=1.0) for start in starts]
        assert suite(state, starts, step=0.1, t_span=1.0) == (
            max(d for d, _ in ones), max(t for _, t in ones))

"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion. The heavy items (ensemble equivariance, foliation
independence) run at full size; expect a few minutes total.
"""

import json
import time
from pathlib import Path

import numpy as np

from hbdsim import checks
from hbdsim.cli import run_equilibrium, run_simulate
from hbdsim.dynamics import integrate
from hbdsim.ensemble import LeafDensity, equivariance_test
from hbdsim.foliation import FlatTime, GraphLeaf, TanhProfile, frobenius_residual, twisted_field
from hbdsim.geometry import SpinDimensionMode
from hbdsim.scenario import (bundled_scenario_path, load_scenario,
                             read_csv_table)
from hbdsim.wavefunction import NParticleWavefunction, make_mode

D11 = SpinDimensionMode.D11


def report(num, name, passed, detail):
    line = f"[acceptance] criterion {num:2d} ({name}): " \
           f"{'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def test_criterion_01_clifford_suite():
    t0 = time.perf_counter()
    dev = checks.clifford_deviation()
    herm = checks.hermiticity_deviation()
    elapsed = time.perf_counter() - t0
    ok = dev < 1e-12 and herm == 0.0 and elapsed < 1.0
    report(1, "clifford algebra", ok,
           f"anticommutator dev {dev:.2e} (< 1e-12), hermiticity dev {herm}"
           f" (exact), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_02_k_independence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    spread = checks.k_independence_spread(rng, draws=1000)
    elapsed = time.perf_counter() - t0
    ok = spread < 1e-10 and elapsed < 10.0
    report(2, "k-independence", ok,
           f"max relative spread of j_k.n_k over 1000 draws: {spread:.2e}"
           f" (< 1e-10), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_03_positivity():
    rng = np.random.default_rng(1002)
    min_rho, min_causal, min_j0 = checks.positivity_stats(rng, draws=10000)
    ok = min_rho >= -1e-12 and min_causal >= -1e-10 and min_j0 > 0.0
    report(3, "positivity and causal flow", ok,
           f"min rho/scale {min_rho:.2e} (>= -1e-12); causal margin "
           f"{min_causal:.2e} (>= -1e-10); min j^0 {min_j0:.2e} (> 0); "
           f"10^4 draws")


def test_criterion_04_divergence_free():
    rng = np.random.default_rng(1003)
    ratios = checks.divergence_richardson_ratios(rng, configs=100)
    ok = len(ratios) >= 90 and np.all((ratios > 3.2) & (ratios < 4.8))
    report(4, "divergence-free currents", ok,
           f"Richardson ratios on {len(ratios)} configurations in "
           f"[{ratios.min():.3f}, {ratios.max():.3f}] (within 4 +- 20%)")


def test_criterion_05_flat_reduction():
    worst = []
    for name in ("flat_n1_rest", "flat_n1_beat", "flat_n2_entangled"):
        sc = load_scenario(bundled_scenario_path(name))
        integ = sc.integration
        for xi in integ.initial_positions:
            dev, tol = checks.flat_reduction_deviation(
                sc.psi, xi, integ.s0, integ.s1, integ.step)
            worst.append((name, dev, tol))
    ok = all(dev < tol for _, dev, tol in worst)
    per_scenario = {}
    for n, d, t in worst:
        prev = per_scenario.get(n, (0.0, np.inf))
        per_scenario[n] = (max(prev[0], d), min(prev[1], t))
    detail = "; ".join(f"{n}: dev {d:.2e} < tol {t:.2e}"
                       for n, (d, t) in per_scenario.items())
    report(5, "flat reduction vs independent integrator", ok,
           f"{len(worst)} trajectories over 3 bundled scenarios; {detail}")


def test_criterion_06_rk4_order():
    sc = load_scenario(bundled_scenario_path("curved_n2_entangled"))
    fol = sc.foliation
    xi = np.array([[[-5.2], [5.0]], [[2.0], [-2.4]], [[-5.8], [5.7]]])
    ratios = []
    for pts0 in fol.leaf_point(0.0, xi):
        def end(step):
            return integrate(sc.psi, fol, pts0, 0.0, 2.0, step).points[0, -1]
        ref = end(0.1 / 16)
        e1 = np.max(np.abs(end(0.1) - ref))
        e2 = np.max(np.abs(end(0.05) - ref))
        ratios.append(e1 / e2)
    ratios = np.array(ratios)
    ok = np.all((ratios > 16 * 0.7) & (ratios < 16 * 1.3))
    report(6, "RK4 global order", ok,
           f"step-halving error ratios {np.round(ratios, 2).tolist()} "
           f"(within 16 +- 30%)")


def test_criterion_07_foliation_independence():
    # 60 one-particle and 40 product-state starts on the leaf s = 0 of the
    # suites' default tanh foliation; each group has its own tolerance
    rng = np.random.default_rng(1007)
    curved = checks.default_curved_foliation(1)
    psi1 = NParticleWavefunction([
        (1.0, (make_mode([0.9], 1.0, 1, 1, D11),)),
        (0.7j, (make_mode([0.3], 1.0, 1, 1, D11),)),
        (0.4, (make_mode([-0.2], 1.0, 1, 1, D11),)),
        (0.25 - 0.3j, (make_mode([-0.9], 1.0, -1, 1, D11),)),
    ])
    x0 = curved.leaf_point(0.0, rng.uniform(-2.0, 2.0, size=(60, 1)))
    dev1, tol1 = checks.n1_foliation_independence(psi1, x0, step=0.04,
                                                  t_span=2.5)
    factors = [
        [(1.0, make_mode([0.8], 1.0, 1, 1, D11)),
         (0.5, make_mode([0.2], 1.0, 1, 1, D11)),
         (0.2j, make_mode([1.2], 1.0, 1, 1, D11))],
        [(1.0, make_mode([-0.6], 1.0, 1, 1, D11)),
         (0.4j, make_mode([-0.1], 1.0, 1, 1, D11))],
    ]
    dev2, tol2 = checks.product_foliation_independence(
        factors, rng.uniform(-2.0, 2.0, size=(40, 2, 1)), step=0.04,
        t_span=2.5)
    ok = dev1 < tol1 and dev2 < tol2
    report(7, "foliation independence (N=1 and product)", ok,
           f"60 one-particle starts: max deviation {dev1:.2e} < tolerance "
           f"{tol1:.2e}; 40 product starts: max deviation {dev2:.2e} < "
           f"tolerance {tol2:.2e} (10x step-halving error)")


def test_criterion_08_equivariance(tmp_path):
    t0 = time.perf_counter()
    sc = load_scenario(bundled_scenario_path("curved_n2_entangled"))
    ens_block = sc.ensemble
    rep = run_equilibrium(sc, tmp_path, workers=2)["report"]

    # negative control: the written crossings against the flat-normal density
    _, cols = read_csv_table(tmp_path / "crossings.csv")
    n, sd = sc.n_particles, sc.mode.spatial_dims
    chart = np.stack([cols[f"xi_{k + 1}_{c + 1}"] for k in range(n)
                      for c in range(sd)], axis=-1).reshape(-1, n, sd)
    wrong = LeafDensity(sc.foliation, sc.integration.s1, sc.psi,
                        ens_block.target_boxes, ens_block.quadrature_order,
                        flat_normals=True)
    rep_neg = equivariance_test(chart, wrong, ens_block.bins_per_axis,
                                ens_block.tv_threshold,
                                ens_block.ks_coefficient,
                                excluded=rep["excluded"])
    elapsed = time.perf_counter() - t0

    span = sc.integration.s1 - sc.integration.s0
    wavelength = 2 * np.pi / 1.8          # de Broglie of the fast packets
    ks_bound = 1.63 / np.sqrt(rep["included"])
    ok = (rep["ensemble_size"] == 10000 and rep["passed"]
          and rep["tv_distance"] < 0.05
          and all(k < ks_bound for k in rep["ks_stats"])
          and not rep_neg.passed
          and span >= 2 * wavelength
          and elapsed < 300.0)
    report(8, "equivariance of crossing statistics", ok,
           f"TV {rep['tv_distance']:.4f} (< 0.05, 20 bins/axis), "
           f"KS {[round(k, 4) for k in rep['ks_stats']]} "
           f"(< {ks_bound:.4f}); negative control TV "
           f"{rep_neg.tv_distance:.4f} fails as required; span {span} >= "
           f"2 wavelengths ({2 * wavelength:.1f}); runtime {elapsed:.0f}s "
           f"(< 300s)")


def test_criterion_09_flat_continuity():
    rng = np.random.default_rng(1009)
    flat_res, ratios = checks.continuity_residuals(rng)
    ok = (flat_res < 1e-8 and len(ratios) > 0
          and np.all((ratios > 3.2) & (ratios < 4.8)))
    report(9, "flat-frame continuity equation", ok,
           f"product plane-wave residual {flat_res:.2e} (< 1e-8 at h=1e-3); "
           f"entangled Richardson ratios in [{ratios.min():.3f}, "
           f"{ratios.max():.3f}] (4 +- 20%)")


def test_criterion_10_frobenius():
    fols = [FlatTime(spatial_dims=1),
            GraphLeaf(TanhProfile(0.9, 0.7), validity_box=[[-6, 6]],
                      spatial_dims=1),
            load_scenario(bundled_scenario_path("ripple_n2_product")).foliation]
    xs = [np.array([0.3, 0.4, 0.0, 0.0]), np.array([-1.0, 1.7, 0.0, 0.0])]
    worst_h = 0.0
    ratios = []
    for fol in fols:
        for x in xs:
            r1 = frobenius_residual(fol.gradient, x, 2e-3)
            r2 = frobenius_residual(fol.gradient, x, 1e-3)
            worst_h = max(worst_h, r2)
            if r1 > 1e-11:
                ratios.append(r1 / r2)

    # an integrable field with enough active coordinates that the
    # discretized wedge is nonzero: exercises the genuine O(h^2) decay
    from test_foliation import scaled_two_ridge_gradient
    for x in (np.array([0.4, 0.7, -0.3, 0.9]),
              np.array([-0.8, 0.2, 1.1, -0.5])):
        r1 = frobenius_residual(scaled_two_ridge_gradient, x, 2e-3)
        r2 = frobenius_residual(scaled_two_ridge_gradient, x, 1e-3)
        worst_h = max(worst_h, r2)
        if r1 > 1e-9:
            ratios.append(r1 / r2)
    ratios = np.array(ratios)
    twisted = frobenius_residual(twisted_field(0.5),
                                 np.array([0.2, 0.1, -0.4, 1.3]), 1e-4)
    ok = (worst_h < 1e-5 and len(ratios) > 0
          and np.all((ratios > 3.2) & (ratios < 4.8)) and twisted > 0.1)
    report(10, "Frobenius integrability", ok,
           f"integrable-field residual {worst_h:.2e} at h=1e-3, halving "
           f"ratios in [{ratios.min():.2f}, {ratios.max():.2f}] (O(h^2)); "
           f"non-integrable field residual {twisted:.2f} stays > 0.1")


def test_criterion_11_determinism(tmp_path):
    raw = {
        "schema_version": 1, "name": "determinism_probe", "mode": "D11",
        "mass": 1.0,
        "wavefunction": {"branches": [
            {"coefficient": [1.0, 0.0],
             "factors": [{"packet": {"p0": [1.0], "sigma_p": 0.4, "dp": 0.25,
                                     "half_modes": 10, "center_xi": [-1.0],
                                     "center_s": 0.0}}]}]},
        "foliation": {"variant": "graph_tanh", "a": 0.8, "b": 0.6,
                      "validity_box": [[-30.0, 30.0]]},
        "integration": {"s0": 0.0, "s1": 1.0, "step": 0.05,
                        "node_threshold_factor": 1e-10,
                        "initial_positions": [[[-1.0]], [[0.3]]]},
        "ensemble": {"size": 150, "seed": 987654, "boxes": [[[-8.5, 7.0]]],
                     "target_boxes": [[[-8.0, 8.0]]], "bins_per_axis": 8,
                     "quadrature_order": 32, "tv_threshold": 0.25,
                     "ks_coefficient": 1.63},
    }
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(raw))

    def strip_ts(p):
        return "\n".join(l for l in Path(p).read_text().splitlines()
                         if '"timestamp"' not in l)

    outs = []
    for i, workers in enumerate((1, 1, 4)):
        out = tmp_path / f"eq{i}"
        run_equilibrium(load_scenario(path), out, workers=workers)
        sim = tmp_path / f"sim{i}"
        run_simulate(load_scenario(path), sim)
        outs.append((out, sim))
    same = True
    for out, sim in outs[1:]:
        same &= (Path(outs[0][0] / "crossings.csv").read_bytes()
                 == Path(out / "crossings.csv").read_bytes())
        same &= (Path(outs[0][0] / "histogram.json").read_bytes()
                 == Path(out / "histogram.json").read_bytes())
        same &= strip_ts(outs[0][0] / "report.json") == strip_ts(out / "report.json")
        same &= (Path(outs[0][1] / "trajectories.csv").read_bytes()
                 == Path(sim / "trajectories.csv").read_bytes())
    report(11, "byte-level determinism", same,
           "equilibrium and simulate outputs byte-identical across reruns, "
           "equilibrium's across worker counts 1/4 (timestamp field "
           "excluded)")

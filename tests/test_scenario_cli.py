import copy
import importlib
import itertools
import json
import math
import pkgutil
import time
from pathlib import Path

import numpy as np
import pytest

import hbdsim
from hbdsim import cli, currents, dynamics
from hbdsim.cli import main, run_equilibrium, run_simulate
from hbdsim.dynamics import BATCH_SIZE, integrate_ensemble
from hbdsim.ensemble import (
    BIN_ORDER,
    CDF_RESOLUTION,
    MAX_QUADRATURE_NODES,
    LeafDensity,
)
from hbdsim.errors import ScenarioError
from hbdsim.scenario import (
    bundled_scenario_names,
    bundled_scenario_path,
    load_scenario,
    parse_scenario,
    read_csv_table,
    read_json_report,
    scenario_hash,
    write_trajectories_csv,
)
from hbdsim.wavefunction import NParticleWavefunction

BUNDLED = ["curved_n1_packet", "curved_n2_entangled", "flat_n1_beat",
           "flat_n1_rest", "flat_n2_entangled", "ripple_n2_product",
           "tilted_n1_drift"]


def three_particles(quadrature_order):
    """Mutation: the small scenario with three copies of its particle, so
    the joint chart has three axes."""
    def mutate(raw):
        branch = raw["wavefunction"]["branches"][0]
        branch["factors"] = branch["factors"] * 3
        raw["integration"]["initial_positions"] = [[[-1.0], [0.0], [1.0]]]
        raw["ensemble"].update(boxes=[[[-8.5, 7.0]]] * 3,
                               target_boxes=[[[-8.0, 8.0]]] * 3,
                               quadrature_order=quadrature_order)
    return mutate


def _packet(raw):
    return raw["wavefunction"]["branches"][0]["factors"][0]["packet"]


def _modes_factor(raw, p=(0.5,), weight=(1.0, 0.0), **fields):
    """Mutation: the packet factor replaced by one explicit weighted mode,
    with any further mode ``fields``."""
    raw["wavefunction"]["branches"][0]["factors"] = [
        {"modes": [{"p": list(p), "weight": list(weight), **fields}]}]


def _packet_on(foliation, center_xi):
    """Mutation: the packet centered at ``center_xi`` on ``foliation``."""
    def mutate(raw):
        raw["foliation"] = foliation
        _packet(raw)["center_xi"] = center_xi
    return mutate


TILTED_NORMAL = [1.0453385141288605, 0.3045202934471426, 0.0, 0.0]


def small_scenario_dict(size=120, s1=1.0):
    """A fast curved one-particle equilibrium scenario for CLI tests."""
    return {
        "schema_version": 1,
        "name": "test_small",
        "mode": "D11",
        "mass": 1.0,
        "wavefunction": {
            "branches": [
                {"coefficient": [1.0, 0.0],
                 "factors": [
                     {"packet": {"p0": [1.0], "sigma_p": 0.4, "dp": 0.25,
                                 "half_modes": 10, "center_xi": [-1.0],
                                 "center_s": 0.0}}
                 ]}
            ]
        },
        "foliation": {"variant": "graph_tanh", "a": 0.8, "b": 0.6,
                      "validity_box": [[-30.0, 30.0]]},
        "integration": {"s0": 0.0, "s1": s1, "step": 0.05,
                        "node_threshold_factor": 1e-10,
                        "initial_positions": [[[-1.0]], [[0.2]]]},
        "ensemble": {"size": size, "seed": 424242,
                     "boxes": [[[-8.5, 7.0]]],
                     "target_boxes": [[[-8.0, 8.0]]],
                     "bins_per_axis": 8,
                     "quadrature_order": 32,
                     "tv_threshold": 0.25,
                     "ks_coefficient": 1.63},
    }


def test_bundled_scenarios_all_load():
    assert bundled_scenario_names() == BUNDLED
    for name in BUNDLED:
        sc = load_scenario(bundled_scenario_path(name))
        assert sc.name == name
        assert len(sc.content_hash) == 16


def test_hash_tracks_content():
    raw = small_scenario_dict()
    h1 = scenario_hash(raw)
    raw2 = copy.deepcopy(raw)
    raw2["ensemble"]["seed"] += 1
    assert scenario_hash(raw2) != h1
    # key order is irrelevant to the canonical hash
    shuffled = json.loads(json.dumps(raw, sort_keys=True))
    assert scenario_hash(shuffled) == h1


@pytest.mark.parametrize("mutate, kind", [
    (lambda r: r.update(schema_version=99), "validation"),
    (lambda r: r.update(mode="D21"), "validation"),
    (lambda r: r.update(mass=-1.0), "validation"),
    (lambda r: r["wavefunction"].update(branches=[]), "wavefunction"),
    (lambda r: r.update(foliation={"variant": "nope"}), "foliation"),
    (lambda r: r["foliation"].update(a=2.5), "validity_breach"),
    (lambda r: r["integration"].update(s1=-1.0), "integration"),
    (lambda r: r["integration"].update(step=0.0), "integration"),
    (lambda r: r["ensemble"].update(size=0), "ensemble"),
    (lambda r: r["ensemble"].update(boxes=[[[2.0, -2.0]]]), "ensemble"),
    (lambda r: r["ensemble"].update(quadrature_order=0), "ensemble"),
    (lambda r: r["ensemble"].update(quadrature_order="high"), "ensemble"),
    (lambda r: r["ensemble"].update(quadrature_order=MAX_QUADRATURE_NODES + 1),
     "ensemble"),
    (lambda r: r["ensemble"].update(bins_per_axis="x"), "ensemble"),
    (lambda r: r["ensemble"].update(bins_per_axis=0), "ensemble"),
    (lambda r: r["ensemble"].update(tv_threshold="low"), "ensemble"),
    (lambda r: r["ensemble"].update(ks_coefficient=None), "ensemble"),
    (lambda r: r["ensemble"].update(scan_resolution=1), "ensemble"),
    (lambda r: r["ensemble"].update(scan_resolution=64.0), "ensemble"),
    (lambda r: r["ensemble"].update(scan_resolution=MAX_QUADRATURE_NODES + 1),
     "ensemble"),
    pytest.param(lambda r: r["ensemble"].update(
        bins_per_axis=MAX_QUADRATURE_NODES // BIN_ORDER + 1),
                 "ensemble", id="ensemble-bin-mass-grid-over-cap"),
    pytest.param(three_particles(157), "ensemble",
                 id="ensemble-marginal-cdf-grid-over-cap"),
    pytest.param(lambda r: r["foliation"].update(scan_resolution=1),
                 "foliation", id="foliation-scan_resolution-too-small"),
    pytest.param(lambda r: r["foliation"].update(scan_resolution="fine"),
                 "foliation", id="foliation-scan_resolution-not-a-number"),
    pytest.param(lambda r: r["foliation"].update(
        scan_resolution=MAX_QUADRATURE_NODES + 1),
                 "foliation", id="foliation-scan_resolution-over-cap"),
    (lambda r: r["integration"].update(s0="zero"), "integration"),
    (lambda r: r["integration"].update(s1="late"), "integration"),
    (lambda r: r["integration"].update(step=[0.05]), "integration"),
    (lambda r: r["integration"].update(node_threshold_factor="tiny"),
     "integration"),
    (lambda r: r["integration"].update(node_threshold_factor=-1.0),
     "integration"),
    # json.load accepts NaN, Infinity and true for any number
    pytest.param(lambda r: r.update(mass=float("inf")), "validation",
                 id="mass-infinite"),
    pytest.param(lambda r: r.update(mass=True), "validation",
                 id="mass-boolean"),
    pytest.param(lambda r: r["ensemble"].update(size=True), "ensemble",
                 id="ensemble-size-boolean"),
    pytest.param(lambda r: r["ensemble"].update(seed=True), "ensemble",
                 id="ensemble-seed-boolean"),
    pytest.param(lambda r: _packet(r).update(sigma_p=float("nan")),
                 "wavefunction", id="packet-sigma_p-nan"),
    pytest.param(lambda r: _packet(r).update(dp=float("inf")),
                 "wavefunction", id="packet-dp-infinite"),
    pytest.param(lambda r: _packet(r).update(p0=[float("nan")]),
                 "wavefunction", id="packet-p0-nan"),
    pytest.param(lambda r: _packet(r).update(center_xi=[float("-inf")]),
                 "wavefunction", id="packet-center_xi-infinite"),
    pytest.param(lambda r: r["ensemble"].update(
        boxes=[[[float("nan"), 7.0]]]), "ensemble", id="boxes-nan"),
    pytest.param(lambda r: r["ensemble"].update(
        target_boxes=[[[-8.0, float("inf")]]]), "ensemble",
                 id="target_boxes-infinite"),
    pytest.param(lambda r: r["integration"].update(
        initial_positions=[[[float("nan")]]]), "integration",
                 id="initial_positions-nan"),
    pytest.param(lambda r: _modes_factor(r, p=[float("inf")]),
                 "wavefunction", id="mode-momentum-infinite"),
    pytest.param(lambda r: _modes_factor(r, weight=[float("nan"), 0.0]),
                 "wavefunction", id="mode-weight-nan"),
    pytest.param(lambda r: r["wavefunction"]["branches"][0].update(
        coefficient=[1.0, float("nan")]), "wavefunction",
                 id="branch-coefficient-nan"),
    pytest.param(lambda r: r.update(wavefunction={"terms": [
        {"coefficient": [float("inf"), 0.0], "modes": [{"p": [0.5]}]}]}),
                 "wavefunction", id="term-coefficient-infinite"),
    pytest.param(lambda r: _packet(r).update(half_modes=True),
                 "wavefunction", id="packet-half_modes-boolean"),
    pytest.param(lambda r: _packet(r).update(half_modes=2.7),
                 "wavefunction", id="packet-half_modes-fraction"),
    pytest.param(lambda r: _packet(r).update(half_modes=-1),
                 "wavefunction", id="packet-half_modes-negative"),
    pytest.param(lambda r: _packet(r).update(axis=0.9),
                 "wavefunction", id="packet-axis-fraction"),
    pytest.param(lambda r: _packet(r).update(axis=True),
                 "wavefunction", id="packet-axis-boolean"),
    pytest.param(lambda r: _packet(r).update(axis=1),
                 "wavefunction", id="packet-axis-beyond-spatial-dims"),
    pytest.param(lambda r: _packet(r).update(energy_sign=True),
                 "wavefunction", id="packet-energy_sign-boolean"),
    pytest.param(lambda r: _packet(r).update(energy_sign=-0.5),
                 "wavefunction", id="packet-energy_sign-fraction"),
    pytest.param(lambda r: _packet(r).update(spin_label=True),
                 "wavefunction", id="packet-spin_label-boolean"),
    pytest.param(lambda r: _packet(r).update(spin_label=0.9),
                 "wavefunction", id="packet-spin_label-fraction"),
    pytest.param(lambda r: _modes_factor(r, energy_sign=True),
                 "wavefunction", id="mode-energy_sign-boolean"),
    pytest.param(lambda r: _modes_factor(r, energy_sign=1.0),
                 "wavefunction", id="mode-energy_sign-float"),
    pytest.param(lambda r: _modes_factor(r, spin_label=True),
                 "wavefunction", id="mode-spin_label-boolean"),
    pytest.param(lambda r: r.update(wavefunction={"terms": [
        {"coefficient": [1.0, 0.0],
         "modes": [{"p": [0.5], "energy_sign": True}]}]}),
                 "wavefunction", id="term-energy_sign-boolean"),
    # a malformed value anywhere in a block fails with that block's kind
    pytest.param(lambda r: r["integration"].update(
        initial_positions=[[["x"]]]), "integration",
                 id="initial_positions-non-numeric"),
    pytest.param(lambda r: r["integration"].update(
        initial_positions=[[[-1.0]], [[0.2, 0.3]]]), "integration",
                 id="initial_positions-ragged"),
    pytest.param(lambda r: r["ensemble"].update(boxes=[[["x", 7.0]]]),
                 "ensemble", id="boxes-non-numeric"),
    pytest.param(lambda r: r["ensemble"].update(boxes=[[[-8.5, 7.0], [1.0]]]),
                 "ensemble", id="boxes-ragged"),
    pytest.param(lambda r: r["ensemble"].update(target_boxes=[[[{}, 8.0]]]),
                 "ensemble", id="target_boxes-non-numeric"),
    pytest.param(lambda r: r["ensemble"].update(
        target_boxes=[[[-8.0, 8.0]], [[1.0]]]), "ensemble",
                 id="target_boxes-ragged"),
    pytest.param(lambda r: r.update(foliation={"variant": "constant_normal",
                                               "n": [1.0, 0.0]}),
                 "foliation", id="constant_normal-n-two-components"),
    pytest.param(lambda r: r.update(ensemble=[1]), "ensemble",
                 id="ensemble-not-an-object"),
    pytest.param(lambda r: _packet(r).update(sigma_p=1e300),
                 "wavefunction", id="packet-sigma_p-overflows"),
    # float() reads the strings "nan" and "inf" as numbers
    pytest.param(lambda r: _packet(r).update(sigma_p="nan"),
                 "wavefunction", id="packet-sigma_p-nan-string"),
    pytest.param(lambda r: _packet(r).update(center_s="inf"),
                 "wavefunction", id="packet-center_s-infinite-string"),
    pytest.param(lambda r: r.update(foliation={
        "variant": "graph_ripple", "a": 0.3, "b": 0.5, "w": 1e300,
        "validity_box": [[-30.0, 30.0]]}), "foliation",
                 id="ripple-w-overflows"),
    pytest.param(lambda r: _modes_factor(r, p=[1e200]), "wavefunction",
                 id="mode-energy-overflows"),
    pytest.param(_packet_on({"variant": "flat"}, [-1.0, 1.0]),
                 "wavefunction", id="packet-center_xi-too-long-flat"),
    pytest.param(_packet_on({"variant": "constant_normal",
                             "n": TILTED_NORMAL}, [0.0, 1.0]),
                 "wavefunction", id="packet-center_xi-too-long-tilted"),
])
def test_validation_error_kinds(mutate, kind):
    raw = small_scenario_dict()
    mutate(raw)
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.kind == kind


def _leaf_paths(node, path=()):
    """Paths to every value of a JSON tree that is not an object."""
    if path and not isinstance(node, dict):
        yield path
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _leaf_paths(value, path + (key,))


@pytest.mark.parametrize("name", BUNDLED)
def test_malformed_leaf_fails_as_scenario_error(name):
    # each value of a bundled scenario replaced in turn by a bad one: the
    # parse returns or raises ScenarioError, never a bare Python error
    raw = json.loads(bundled_scenario_path(name).read_text())
    kinds = set()
    for path in _leaf_paths(raw):
        for bad in ("x", [], [[1.0]], {}, None, 1e300):
            mutated = copy.deepcopy(raw)
            node = mutated
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = bad
            try:
                with np.errstate(all="ignore"):
                    parse_scenario(mutated)
            except ScenarioError as exc:
                kinds.add(exc.kind)
    assert kinds <= {"validation", "foliation", "validity_breach",
                     "wavefunction", "integration", "ensemble"}


def test_ensemble_grid_caps_are_tight():
    # the largest bin count and quadrature order whose bin-mass and
    # marginal-CDF grids fit under the cap still parse; one more fails
    # (the over-cap cases of test_validation_error_kinds)
    bins = MAX_QUADRATURE_NODES // BIN_ORDER
    raw = small_scenario_dict()
    raw["ensemble"]["bins_per_axis"] = bins
    assert parse_scenario(raw).ensemble.bins_per_axis == bins
    assert CDF_RESOLUTION * 156 ** 2 <= MAX_QUADRATURE_NODES
    assert CDF_RESOLUTION * 157 ** 2 > MAX_QUADRATURE_NODES
    raw = small_scenario_dict()
    three_particles(156)(raw)
    assert parse_scenario(raw).ensemble.quadrature_order == 156


def test_terms_form_equivalent_to_branches(tmp_path):
    raw = small_scenario_dict()
    sc_b = parse_scenario(raw)
    flat_terms = []
    for c_br, factors in sc_b.psi.branches:
        for combo in itertools.product(*factors):
            c = c_br * np.prod([w for w, _ in combo])
            flat_terms.append({
                "coefficient": [c.real, c.imag],
                "modes": [{"p": list(md.p), "energy_sign": md.energy_sign,
                           "spin_label": md.spin_label} for _, md in combo],
            })
    # the flat form drops the packet weights into the coefficients
    raw2 = copy.deepcopy(raw)
    raw2["wavefunction"] = {"terms": flat_terms}
    sc_t = parse_scenario(raw2)
    x = np.array([[[0.3, -0.8, 0.0, 0.0]]])
    a = sc_b.psi.evaluate_batch(x)
    b = sc_t.psi.evaluate_batch(x)
    assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))


def test_run_simulate_rest_worldline(tmp_path):
    sc = load_scenario(bundled_scenario_path("flat_n1_rest"))
    out = run_simulate(sc, tmp_path)
    meta, cols = read_csv_table(out["trajectories"])
    assert meta["kind"] == "trajectories"
    assert meta["scenario"] == sc.content_hash
    traj0 = cols["trajectory"] == 0
    # rest mode: straight vertical worldline (x1 frozen, x0 = s)
    assert np.max(np.abs(cols["x1"][traj0] - 0.0)) < 1e-12
    assert np.max(np.abs(cols["x0"][traj0] - cols["s"][traj0])) < 1e-12
    meta_e, cols_e = read_csv_table(out["events"])
    assert meta_e["kind"] == "events"
    assert len(cols_e["trajectory"]) == 0


def test_trajectories_csv_needs_whole_paths(tmp_path):
    sc = load_scenario(bundled_scenario_path("flat_n1_rest"))
    integ = sc.integration
    kept = integrate_ensemble(sc.psi, sc.foliation,
                              sc.initial_configurations(), integ.s0,
                              integ.s1, integ.step, keep_labels=[integ.s1])
    with pytest.raises(ValueError, match="whole paths"):
        write_trajectories_csv(tmp_path / "t.csv", kept, sc.mode,
                               sc.content_hash)
    assert not (tmp_path / "t.csv").exists()


def test_csv_round_trip(tmp_path):
    raw = small_scenario_dict(size=40)
    sc = parse_scenario(raw)
    payload = run_equilibrium(sc, tmp_path)
    meta, cols = read_csv_table(tmp_path / "crossings.csv")
    assert meta["kind"] == "crossings"
    assert meta["seed"] == str(raw["ensemble"]["seed"])
    assert len(cols["trajectory"]) == payload["report"]["included"]
    assert np.all(cols["s"] == raw["integration"]["s1"])
    hist = read_json_report(tmp_path / "histogram.json")
    assert np.isclose(sum(hist["predicted_masses"]), 1.0)


def test_cli_exit_codes(tmp_path):
    # validation failure: nonzero exit and a machine-readable error line
    bad = small_scenario_dict()
    bad["foliation"]["a"] = 2.5
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["simulate", "--scenario", str(bad_path),
                 "--out", str(tmp_path / "o1")]) == 2

    good = tmp_path / "good.json"
    good.write_text(json.dumps(small_scenario_dict(size=30)))
    assert main(["simulate", "--scenario", str(good),
                 "--out", str(tmp_path / "o2")]) == 0
    assert main(["equilibrium", "--scenario", str(good),
                 "--out", str(tmp_path / "o3")]) == 0

    missing = tmp_path / "missing.json"
    assert main(["simulate", "--scenario", str(missing),
                 "--out", str(tmp_path / "o4")]) == 2


def test_cli_workers_option(tmp_path):
    # --workers below 1 fails at argument parsing; only equilibrium has
    # --workers, so simulate and checks reject it as an unknown argument
    path = tmp_path / "good.json"
    path.write_text(json.dumps(small_scenario_dict(size=30)))
    for argv in (["simulate", "--workers", "0"],
                 ["equilibrium", "--workers", "-1"],
                 ["checks", "--workers", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--scenario", str(path), "--out", str(tmp_path)])
        assert exc.value.code == 2


def test_cli_rejects_oversized_quadrature_grid(tmp_path, capsys):
    # flat D31 with N = 2: the default order 64 asks for 64**6 joint nodes
    raw = {
        "schema_version": 1, "name": "test_d31_pair", "mode": "D31",
        "mass": 1.0,
        "wavefunction": {"terms": [
            {"coefficient": [1.0, 0.0],
             "modes": [{"p": [0.3, 0.0, 0.1]}, {"p": [-0.2, 0.1, 0.0]}]}]},
        "foliation": {"variant": "flat"},
        "integration": {"s0": 0.0, "s1": 0.5, "step": 0.1,
                        "initial_positions": [[[0.0, 0.0, 0.0],
                                               [1.0, 0.0, 0.0]]]},
        "ensemble": {"size": 10, "seed": 1,
                     "boxes": [[[-4.0, 4.0]] * 3] * 2},
    }
    path = tmp_path / "d31_pair.json"
    path.write_text(json.dumps(raw))
    for command in ("simulate", "equilibrium"):
        capsys.readouterr()
        assert main([command, "--scenario", str(path),
                     "--out", str(tmp_path / command)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == "ensemble"
        assert "quadrature_order" in error["message"]


@pytest.mark.parametrize("block, key, value, kind", [
    ("ensemble", "bins_per_axis", "x", "ensemble"),
    ("integration", "s1", "late", "integration"),
    ("ensemble", "scan_resolution", MAX_QUADRATURE_NODES + 1, "ensemble"),
])
def test_cli_rejects_malformed_numeric_field(tmp_path, capsys, block, key,
                                             value, kind):
    # a malformed field exits 2 with its block's kind before any run starts
    raw = small_scenario_dict()
    raw[block][key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for command in ("simulate", "equilibrium"):
        capsys.readouterr()
        assert main([command, "--scenario", str(path),
                     "--out", str(tmp_path / command)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == kind
        assert key in error["message"]


@pytest.mark.parametrize("value", ["x", [[[-1.0]], [[0.2, 0.3]]], [[{}]]])
def test_cli_rejects_malformed_initial_positions(tmp_path, capsys, value):
    # a malformed array exits 2 with one JSON error line, not a traceback
    raw = small_scenario_dict()
    raw["integration"]["initial_positions"] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    for command in ("simulate", "equilibrium"):
        capsys.readouterr()
        assert main([command, "--scenario", str(path),
                     "--out", str(tmp_path / command)]) == 2
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["kind"] == "integration"


def test_cli_rejects_oversized_scan_grids(tmp_path, capsys):
    # in 3+1 mode a 400-point validity scan has 400**3 points, and a 20-point
    # ensemble scan of a particle pair 20**6: both over the cap
    raw = {
        "schema_version": 1, "name": "test_d31_scans", "mode": "D31",
        "mass": 1.0,
        "wavefunction": {"terms": [
            {"coefficient": [1.0, 0.0],
             "modes": [{"p": [0.3, 0.0, 0.1]}, {"p": [-0.2, 0.1, 0.0]}]}]},
        "foliation": {"variant": "flat",
                      "validity_box": [[-4.0, 4.0]] * 3},
        "integration": {"s0": 0.0, "s1": 0.5, "step": 0.1,
                        "initial_positions": [[[0.0, 0.0, 0.0],
                                               [1.0, 0.0, 0.0]]]},
        "ensemble": {"size": 10, "seed": 1, "quadrature_order": 8,
                     "boxes": [[[-4.0, 4.0]] * 3] * 2},
    }
    assert 400 ** 3 > MAX_QUADRATURE_NODES and 20 ** 6 > MAX_QUADRATURE_NODES
    for block, kind in (("foliation", "foliation"), ("ensemble", "ensemble")):
        bad = copy.deepcopy(raw)
        bad[block]["scan_resolution"] = 400 if block == "foliation" else 20
        path = tmp_path / f"{block}.json"
        path.write_text(json.dumps(bad))
        capsys.readouterr()
        assert main(["equilibrium", "--scenario", str(path),
                     "--out", str(tmp_path / block)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["kind"] == kind
        assert "scan_resolution" in error["message"]


def test_node_halts_are_counted_in_report(tmp_path):
    # a node threshold above rho over part of the sampled leaf halts those
    # trajectories; the report counts them, and they raise TV
    raw = small_scenario_dict(size=120)
    raw["integration"]["node_threshold_factor"] = 0.3
    payload = run_equilibrium(parse_scenario(raw), tmp_path)
    report = payload["report"]
    assert report["excluded"] > 0
    assert report["included"] + report["excluded"] == 120
    assert report["ensemble_size"] == 120
    assert report["tv_distance"] >= report["excluded"] / 120
    _, cols = read_csv_table(tmp_path / "crossings.csv")
    assert len(cols["trajectory"]) == report["included"]
    # events.csv says which trajectories halted, where and why
    meta, events = read_csv_table(tmp_path / "events.csv")
    assert meta["seed"] == str(payload["master_seed"])
    assert len(events["trajectory"]) == report["excluded"]
    assert set(events["trajectory"]).isdisjoint(cols["trajectory"])
    assert set(events["kind"]) <= {"node_proximity", "validity_breach"}


def test_all_halted_equilibrium_ends_in_a_report(tmp_path, capsys):
    # a node threshold of ten times the peak rho halts every trajectory at
    # its first step: the run still reports, with all of the mass leaked,
    # and fails the test
    raw = json.loads(bundled_scenario_path("curved_n1_packet").read_text())
    raw["integration"]["node_threshold_factor"] = 10.0
    raw["ensemble"]["size"] = 50
    path = tmp_path / "halting.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert main(["equilibrium", "--scenario", str(path),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    report = read_json_report(out / "report.json")["report"]
    assert report["passed"] is False
    assert report["included"] == 0 and report["excluded"] == 50
    assert report["leak_mass"] == 1.0 and report["tv_distance"] == 1.0
    assert report["ks_stats"] == [1.0] and report["ks_threshold"] is None
    hist = read_json_report(out / "histogram.json")
    assert np.sum(hist["counts"]) == 0 and hist["leak_mass"] == 1.0
    _, crossed = read_csv_table(out / "crossings.csv")
    assert len(crossed["trajectory"]) == 0
    _, events = read_csv_table(out / "events.csv")
    assert sorted(events["trajectory"]) == list(range(50))


def test_run_path_errors_are_typed(tmp_path, capsys, monkeypatch):
    # an error found mid-run exits 3 with its own kind, not as internal
    from hbdsim import cli
    from hbdsim.errors import LabelOutOfRange

    def refuse(*args, **kwargs):
        raise LabelOutOfRange("target label outside the integrated range")

    monkeypatch.setattr(cli, "crossings", refuse)
    path = tmp_path / "small.json"
    path.write_text(json.dumps(small_scenario_dict(size=20)))
    assert main(["equilibrium", "--scenario", str(path),
                 "--out", str(tmp_path / "out")]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["kind"] == "LabelOutOfRange"


def test_simulate_uses_no_leaf_density(tmp_path, monkeypatch):
    # the node threshold comes from the listed configurations, so neither
    # the sampling box nor a density scan can change what simulate writes
    def refuse(self):
        raise AssertionError("simulate must not scan a leaf density")

    monkeypatch.setattr(LeafDensity, "scan", refuse)
    raw = json.loads(bundled_scenario_path("curved_n2_entangled").read_text())
    run_simulate(parse_scenario(raw), tmp_path / "with")
    del raw["ensemble"]
    run_simulate(parse_scenario(raw), tmp_path / "without")
    for name in ("trajectories.csv", "events.csv"):
        with_lines = (tmp_path / "with" / name).read_bytes().splitlines()
        without_lines = (tmp_path / "without" / name).read_bytes().splitlines()
        # the headers differ only in the content hash and the seed
        assert with_lines[1:] == without_lines[1:]


def negcontrol_scenario_dict():
    """A packet launched across the steep part of the curved foliation:
    large enough, and distorted enough by wrong normals, to discriminate."""
    raw = small_scenario_dict(size=2000, s1=2.0)
    raw["name"] = "test_negcontrol"
    packet = raw["wavefunction"]["branches"][0]["factors"][0]["packet"]
    packet.update({"p0": [1.6], "sigma_p": 0.5})
    raw["foliation"].update({"a": 0.9, "b": 0.7})
    raw["ensemble"].update({"boxes": [[[-8.0, 8.5]]],
                            "target_boxes": [[[-7.0, 10.0]]],
                            "bins_per_axis": 20, "quadrature_order": 64,
                            "tv_threshold": 0.05})
    return raw


def test_cli_negative_control_flag(tmp_path):
    # the negative control must fail the test; with the flag that is the
    # expected outcome, so the command exits 0 and records the failure
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(negcontrol_scenario_dict()))
    code = main(["equilibrium", "--scenario", str(path),
                 "--out", str(tmp_path / "neg"), "--negative-control"])
    rep = read_json_report(tmp_path / "neg" / "report.json")
    assert rep["negative_control"] is True
    assert rep["report"]["passed"] is False
    assert code == 0
    # the same scenario passes against the correct density
    assert main(["equilibrium", "--scenario", str(path),
                 "--out", str(tmp_path / "pos")]) == 0


def _strip_timestamp(path):
    lines = Path(path).read_text().splitlines()
    return "\n".join(l for l in lines if '"timestamp"' not in l)


def test_equilibrium_outputs_deterministic(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(small_scenario_dict(size=150, s1=1.0)))
    sc = load_scenario(path)
    outs = []
    for i, workers in enumerate((1, 1, 3)):
        out = tmp_path / f"run{i}"
        run_equilibrium(load_scenario(path), out, workers=workers)
        outs.append(out)
    for other in outs[1:]:
        assert (Path(outs[0] / "crossings.csv").read_bytes()
                == Path(other / "crossings.csv").read_bytes())
        assert (Path(outs[0] / "histogram.json").read_bytes()
                == Path(other / "histogram.json").read_bytes())
        assert (_strip_timestamp(outs[0] / "report.json")
                == _strip_timestamp(other / "report.json"))
    del sc


def test_seed_override_changes_samples(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(small_scenario_dict(size=60)))
    a = run_equilibrium(load_scenario(path), tmp_path / "a")
    b = run_equilibrium(load_scenario(path), tmp_path / "b",
                        seed_override=777)
    assert a["master_seed"] != b["master_seed"]
    assert (Path(tmp_path / "a" / "crossings.csv").read_bytes()
            != Path(tmp_path / "b" / "crossings.csv").read_bytes())


def test_smoke_equilibrium_run_is_fast(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(small_scenario_dict(size=10, s1=0.5)))
    sc = load_scenario(path)
    t0 = time.perf_counter()
    payload = run_equilibrium(sc, tmp_path / "out")
    elapsed = time.perf_counter() - t0
    assert payload["report"]["included"] == 10
    assert elapsed < 1.0


def test_report_schema_stable(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(small_scenario_dict(size=40)))
    payload = run_equilibrium(load_scenario(path), tmp_path / "out")
    assert payload["schema_version"] == 1
    assert payload["kind"] == "equivariance_report"
    assert set(payload["report"]) == {
        "ensemble_size", "included", "excluded", "bins_per_axis",
        "tv_distance", "tv_threshold", "ks_stats", "ks_threshold",
        "leak_mass", "passed"}


def test_report_has_a_deterministic_sampler_block(tmp_path):
    from hbdsim.ensemble import ENVELOPE_FACTOR, PROPOSAL_BLOCK, LeafDensity
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(small_scenario_dict(size=40)))
    sc = load_scenario(path)
    payload = run_equilibrium(sc, tmp_path / "out")
    sampler = read_json_report(tmp_path / "out" / "report.json")["sampler"]
    assert sampler == payload["sampler"]
    assert set(sampler) == {"proposals_weighed", "samples_accepted",
                            "acceptance_rate", "envelope", "attempts"}
    assert sampler["samples_accepted"] == 40 and sampler["attempts"] == 1
    assert sampler["proposals_weighed"] % PROPOSAL_BLOCK == 0
    assert sampler["acceptance_rate"] == 40 / sampler["proposals_weighed"]
    eb = sc.ensemble
    density = LeafDensity(sc.foliation, sc.integration.s0, sc.psi, eb.boxes,
                          eb.quadrature_order, eb.scan_resolution)
    assert sampler["envelope"] == ENVELOPE_FACTOR * density.max_weight()


def _record_row_traffic(monkeypatch):
    # the most rows any one call of psi or a bilinear kernel receives, by
    # kernel, wrapped wherever the package holds it
    most = {}

    def recording(name, fn, arg, trailing):
        # rows: the batch axes of positional argument ``arg``
        def wrapper(*args, **kwargs):
            rows = math.prod(np.shape(args[arg])[:-trailing])
            most[name] = max(most.get(name, 0), rows)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(NParticleWavefunction, "evaluate_batch", recording(
        "evaluate_batch", NParticleWavefunction.evaluate_batch, 1, 2))
    for name in ("currents_all_batch", "density_batch"):
        fn = getattr(currents, name)
        wrapped = recording(name, fn, 0, 1)
        for info in pkgutil.iter_modules(hbdsim.__path__):
            module = importlib.import_module(f"hbdsim.{info.name}")
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, wrapped)
    return most


def test_row_path_calls_hold_at_most_one_row_block(tmp_path, monkeypatch):
    # the integrator's jobs and the sampler's weight blocks cut the row
    # path into blocks of BATCH_SIZE rows: 2000 trajectories make jobs of
    # 1024 and 976 rows, and a full sampler round of 8192 proposals makes
    # eight weight blocks, so no call of psi or of a kernel gets more
    sc = load_scenario(bundled_scenario_path("curved_n1_packet"))
    assert sc.ensemble.size == 2000
    most = _record_row_traffic(monkeypatch)
    run_equilibrium(sc, tmp_path / "eq")
    assert most == {"evaluate_batch": BATCH_SIZE,
                    "currents_all_batch": BATCH_SIZE,
                    "density_batch": BATCH_SIZE}
    most.clear()
    run_simulate(sc, tmp_path / "sim")
    assert len(most) == 3 and max(most.values()) <= BATCH_SIZE


def test_simulate_evaluates_psi_and_currents_once_per_rk_stage(
        tmp_path, monkeypatch):
    # through the names a tracer wraps (the method on its class and the
    # kernel where dynamics looks it up), a simulate run calls psi and the
    # current kernel once per RK stage: four per step and one per batch
    # for the first stage. A flow that skipped either name would read less
    calls = {"evaluate_batch": 0, "currents_all_batch": 0}
    evaluate, kernel = (NParticleWavefunction.evaluate_batch,
                        dynamics.currents_all_batch)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    steps = []

    def integrating(*args, **kwargs):
        ens = integrate_ensemble(*args, **kwargs)
        steps.append(int(ens.valid_steps.max()))
        return ens

    sc = load_scenario(bundled_scenario_path("curved_n2_entangled"))
    monkeypatch.setattr(NParticleWavefunction, "evaluate_batch",
                        counting("evaluate_batch", evaluate))
    monkeypatch.setattr(dynamics, "currents_all_batch",
                        counting("currents_all_batch", kernel))
    monkeypatch.setattr(cli, "integrate_ensemble", integrating)
    run_simulate(sc, tmp_path / "sim")
    n_steps = len(dynamics._label_grid(sc.integration.s0, sc.integration.s1,
                                       sc.integration.step)) - 1
    assert steps == [n_steps]
    # one more psi call: the node threshold's density at the starts
    assert calls == {"evaluate_batch": 4 * n_steps + 2,
                     "currents_all_batch": 4 * n_steps + 1}


def test_checks_cli(tmp_path):
    # the checks subcommand runs the invariant suites and exits 0; a
    # corrupted gamma representation must fail the algebra suite
    from hbdsim import checks as checks_mod
    from hbdsim import geometry

    rep = checks_mod.run_all(seed=5)
    assert rep["all_passed"]

    def corrupt(mu, mode):
        g = np.array(geometry.gamma(mu, mode))
        if mu == 1:
            g = g + 0.01
        return g

    rep_bad = checks_mod.run_all(seed=5, gamma_fn=corrupt)
    bad = {c["name"]: c["passed"] for c in rep_bad["checks"]}
    assert not bad["clifford"]
    assert not rep_bad["all_passed"]

"""Scenario files: schema, validation, bundled examples, and output formats.

A scenario is one JSON document (versioned schema) describing a complete
run: dimension mode, mass, the wave function as a finite mode superposition,
the foliation, the integration window and the ensemble settings. Everything
is validated before any computation starts. The same module owns the CSV
and JSON output writers and the matching readers, so files round-trip.

Wave functions may be given in two equivalent forms:

* ``terms``: the flat list, one complex coefficient plus per-particle mode
  parameters (p, energy sign, spin label) per term;
* ``branches``: a sum of product terms, each factor either an explicit
  weighted mode list or a Gaussian ``packet`` shorthand that expands to an
  equally spaced momentum comb. Branches are kept as branches and never
  expanded into terms; a term is a branch of one-mode factors.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .ensemble import BIN_ORDER, CDF_RESOLUTION, MAX_QUADRATURE_NODES
from .errors import ScenarioError
from .foliation import ConstantNormal, FlatTime, GraphLeaf, RippleProfile, TanhProfile
from .geometry import SpinDimensionMode, minkowski_dot
from .wavefunction import NParticleWavefunction, make_mode

__all__ = [
    "SCHEMA_VERSION",
    "Scenario",
    "load_scenario",
    "parse_scenario",
    "scenario_hash",
    "bundled_scenario_path",
    "bundled_scenario_names",
    "write_trajectories_csv",
    "write_events_csv",
    "write_crossings_csv",
    "read_csv_table",
    "write_json_report",
    "read_json_report",
]

SCHEMA_VERSION = 1


def _fail(kind, message):
    raise ScenarioError(kind, message)


@contextmanager
def _block(kind):
    """Read one top-level block: a malformed value anywhere in it fails as
    ``kind``. A ``ScenarioError`` raised inside passes through unchanged."""
    try:
        yield
    except (ArithmeticError, LookupError, TypeError, ValueError) as exc:
        raise ScenarioError(kind, f"malformed {kind} block: {exc!r}") from exc


def _object(raw, kind):
    """The top-level block ``kind``, which must be a JSON object."""
    block = raw.get(kind)
    if not isinstance(block, dict):
        _fail(kind, f"{kind} block must be a JSON object")
    return block


def scenario_hash(raw: dict) -> str:
    """Content hash of the canonical JSON serialization."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class IntegrationBlock:
    s0: float
    s1: float
    step: float
    node_threshold_factor: float
    initial_positions: np.ndarray      # (n_traj, N, sd)


@dataclass
class EnsembleBlock:
    size: int
    seed: int
    boxes: np.ndarray                  # (N, sd, 2), sampling box on Sigma_{s0}
    target_boxes: np.ndarray           # (N, sd, 2), comparison box on Sigma_{s1}
    bins_per_axis: int
    quadrature_order: int
    tv_threshold: float
    ks_coefficient: float
    scan_resolution: int | None = None


@dataclass
class Scenario:
    name: str
    mode: SpinDimensionMode
    psi: NParticleWavefunction
    foliation: object
    integration: IntegrationBlock
    ensemble: EnsembleBlock | None
    content_hash: str

    @property
    def n_particles(self):
        return self.psi.n_particles

    def initial_configurations(self):
        """The listed initial positions as points (n, N, 4) on Sigma_{s0}."""
        return self.foliation.leaf_point(self.integration.s0,
                                         self.integration.initial_positions)


def _parse_foliation(block, spatial_dims):
    variant = block["variant"]
    box = block.get("validity_box")
    if variant == "flat":
        return FlatTime(spatial_dims, validity_box=box)
    if variant == "constant_normal":
        return ConstantNormal(block["n"], spatial_dims, validity_box=box)
    if variant == "graph_tanh":
        return GraphLeaf(TanhProfile(block["a"], block["b"]),
                         validity_box=box, spatial_dims=spatial_dims)
    if variant == "graph_ripple":
        return GraphLeaf(RippleProfile(block["a"], block["b"], block["w"]),
                         validity_box=box, spatial_dims=spatial_dims)
    _fail("foliation", f"unknown foliation variant {variant!r}")


def _parse_mode_params(entry, mass, mode):
    return make_mode(entry["p"], mass,
                     _integer(entry, "energy_sign", 1, "wavefunction", -1),
                     _integer(entry, "spin_label", 1, "wavefunction", 1),
                     mode)


def _expand_packet(packet, mass, mode, foliation, default_s):
    """Gaussian momentum comb: modes p0 + a*dp along one axis, weighted by
    exp(-(a dp)^2 / (4 sigma_p^2)) and phased to center the packet at the
    chart point center_xi on the leaf center_s."""
    p0 = np.atleast_1d(np.asarray(packet["p0"], dtype=float))
    sigma_p = _number(packet, "sigma_p", None, "wavefunction")
    dp = _number(packet, "dp", None, "wavefunction")
    half = _integer(packet, "half_modes", None, "wavefunction", 0)
    center_xi = np.atleast_1d(np.asarray(packet["center_xi"], dtype=float))
    if sigma_p <= 0 or dp <= 0:
        _fail("wavefunction", "packet needs sigma_p > 0 and dp > 0")
    if center_xi.shape != (mode.spatial_dims,):
        _fail("wavefunction", f"packet center_xi needs {mode.spatial_dims} "
              f"components in {mode.value}")
    axis = _integer(packet, "axis", 0, "wavefunction", 0)
    if axis >= mode.spatial_dims:
        _fail("wavefunction", f"packet axis {axis} needs axis < "
              f"{mode.spatial_dims} in {mode.value}")
    sign = _integer(packet, "energy_sign", 1, "wavefunction", -1)
    label = _integer(packet, "spin_label", 1, "wavefunction", 1)
    center_s = _number(packet, "center_s", default_s, "wavefunction")
    xbar = foliation.leaf_point(center_s, center_xi)

    factor = []
    for a in range(-half, half + 1):
        p = p0.copy()
        p[axis] += a * dp
        md = make_mode(p, mass, sign, label, mode)
        g = np.exp(-(a * dp) ** 2 / (4.0 * sigma_p ** 2))
        phase = np.exp(1j * minkowski_dot(md.four_momentum, xbar))
        factor.append((g * phase, md))
    return factor


def _parse_factor(entry, mass, mode, foliation, default_s):
    if "packet" in entry:
        return _expand_packet(entry["packet"], mass, mode, foliation, default_s)
    if "modes" in entry:
        out = []
        for item in entry["modes"]:
            w = item.get("weight", [1.0, 0.0])
            out.append((complex(w[0], w[1]),
                        _parse_mode_params(item, mass, mode)))
        return out
    _fail("wavefunction", "factor must carry 'packet' or 'modes'")


def _parse_wavefunction(block, mass, mode, foliation, default_s):
    if "branches" in block:
        branches = []
        for br in block["branches"]:
            c = br["coefficient"]
            factors = [_parse_factor(f, mass, mode, foliation, default_s)
                       for f in br["factors"]]
            branches.append((complex(c[0], c[1]), factors))
        if not branches:
            _fail("wavefunction", "wavefunction needs at least one branch")
        return NParticleWavefunction.from_product_branches(branches)
    if "terms" in block:
        terms = []
        for term in block["terms"]:
            c = term["coefficient"]
            modes = tuple(_parse_mode_params(m, mass, mode)
                          for m in term["modes"])
            terms.append((complex(c[0], c[1]), modes))
        if not terms:
            _fail("wavefunction", "wavefunction needs at least one term")
        return NParticleWavefunction(terms)
    _fail("wavefunction", "wavefunction block must carry 'terms' or 'branches'")


def _number(block, key, default, kind):
    """A finite real field of ``block``; anything else fails as ``kind``."""
    value = block.get(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        _fail(kind, f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(block, key, default, kind, minimum):
    value = block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        _fail(kind, f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _reject_non_finite(raw):
    """json.load accepts NaN and Infinity; a scenario holding either
    anywhere fails with the kind of the top-level block that holds it."""
    for key, value in raw.items():
        with _block(key if key in ("foliation", "wavefunction", "integration",
                                   "ensemble") else "validation"):
            json.dumps(value, allow_nan=False)


def _grid_resolution(block, key, default, kind, minimum, dims):
    """A per-axis grid resolution whose tensor grid has at most
    ``MAX_QUADRATURE_NODES`` points in ``dims`` dimensions."""
    value = _integer(block, key, default, kind, minimum)
    if value ** dims > MAX_QUADRATURE_NODES:
        _fail(kind, f"{key} {value} must have {key}**{dims} <= "
                    f"{MAX_QUADRATURE_NODES}")
    return value


def _parse_boxes(raw_boxes, n_particles, sd, what):
    boxes = np.asarray(raw_boxes, dtype=float)
    if boxes.shape != (n_particles, sd, 2):
        _fail("ensemble", f"{what} must have shape (N={n_particles}, {sd}, 2)")
    if np.any(boxes[..., 1] <= boxes[..., 0]):
        _fail("ensemble", f"{what} intervals must be increasing")
    return boxes


def _parse_ensemble(block, n_particles, sd):
    size = _integer(block, "size", None, "ensemble", 1)
    seed = _integer(block, "seed", None, "ensemble", 0)
    boxes = _parse_boxes(block.get("boxes"), n_particles, sd, "sampling boxes")
    target = block.get("target_boxes")
    target_boxes = (_parse_boxes(target, n_particles, sd, "target boxes")
                    if target is not None else boxes)
    # default bin count per axis ~ M^(1/(2 + joint dims))
    joint_dims = n_particles * sd
    default_bins = max(4, round(size ** (1.0 / (2 + joint_dims))))
    scan_res = block.get("scan_resolution")
    if scan_res is not None:
        _grid_resolution(block, "scan_resolution", None, "ensemble", 2,
                         joint_dims)
    tv_threshold = _number(block, "tv_threshold", 0.05, "ensemble")
    ks_coefficient = _number(block, "ks_coefficient", 1.63, "ensemble")
    if not tv_threshold > 0 or not ks_coefficient > 0:
        _fail("ensemble", "tv_threshold and ks_coefficient must be positive")
    order = _grid_resolution(block, "quadrature_order", 64, "ensemble", 1,
                             joint_dims)
    if CDF_RESOLUTION * order ** (joint_dims - 1) > MAX_QUADRATURE_NODES:
        _fail("ensemble",
              f"quadrature_order {order} needs {CDF_RESOLUTION}*{order}**"
              f"{joint_dims - 1} marginal-CDF points, above "
              f"{MAX_QUADRATURE_NODES}")
    bins = _integer(block, "bins_per_axis", default_bins, "ensemble", 1)
    if (BIN_ORDER * bins) ** joint_dims > MAX_QUADRATURE_NODES:
        _fail("ensemble",
              f"bins_per_axis {bins} needs ({BIN_ORDER}*{bins})**"
              f"{joint_dims} bin-mass points, above {MAX_QUADRATURE_NODES}")
    return EnsembleBlock(
        size=size, seed=seed, boxes=boxes, target_boxes=target_boxes,
        bins_per_axis=bins, quadrature_order=order,
        tv_threshold=tv_threshold, ks_coefficient=ks_coefficient,
        scan_resolution=scan_res)


def parse_scenario(raw: dict, name: str = "<memory>") -> Scenario:
    """Validate a raw scenario dict completely and build the run objects.

    Each top-level block is read under ``_block``, so a malformed value
    anywhere in it fails with that block's kind.
    """
    if not isinstance(raw, dict):
        _fail("validation", "scenario must be a JSON object")
    if raw.get("schema_version") != SCHEMA_VERSION:
        _fail("validation",
              f"unsupported schema_version {raw.get('schema_version')!r} "
              f"(expected {SCHEMA_VERSION})")
    try:
        mode = SpinDimensionMode(raw["mode"])
    except (KeyError, ValueError):
        _fail("validation", "mode must be 'D31' or 'D11'")
    _reject_non_finite(raw)
    mass = _number(raw, "mass", 1.0, "validation")
    if mass < 0:
        _fail("validation", "mass must be a nonnegative number")
    sd = mode.spatial_dims

    with _block("foliation"):
        fol_raw = _object(raw, "foliation")
        foliation = _parse_foliation(fol_raw, sd)
        scan_res = _grid_resolution(fol_raw, "scan_resolution", 201,
                                    "foliation", 2, sd)
        report = foliation.validity_scan(scan_res)
    if not report.passed:
        _fail("validity_breach",
              f"foliation gradient not timelike: margin {report.margin:.4f} "
              f"at {report.worst_point.tolist()}")

    with _block("integration"):
        integ_raw = _object(raw, "integration")
        s0 = _number(integ_raw, "s0", 0.0, "integration")
        s1 = _number(integ_raw, "s1", None, "integration")
        step = _number(integ_raw, "step", None, "integration")
        if not s1 > s0 or not step > 0:
            _fail("integration", "need s1 > s0 and step > 0")
        factor = _number(integ_raw, "node_threshold_factor", 1e-10,
                         "integration")
        if factor < 0:
            _fail("integration", "node_threshold_factor must be nonnegative")

    with _block("wavefunction"):
        psi = _parse_wavefunction(_object(raw, "wavefunction"), mass, mode,
                                  foliation, s0)
    n = psi.n_particles

    with _block("integration"):
        init = np.asarray(integ_raw.get("initial_positions", []), dtype=float)
        if init.size == 0:
            init = np.zeros((0, n, sd))
        if init.ndim != 3 or init.shape[1:] != (n, sd):
            _fail("integration",
                  f"initial_positions must have shape (n, N={n}, {sd})")
    integration = IntegrationBlock(s0=s0, s1=s1, step=step,
                                   node_threshold_factor=factor,
                                   initial_positions=init)

    ensemble = None
    if raw.get("ensemble") is not None:
        with _block("ensemble"):
            ensemble = _parse_ensemble(_object(raw, "ensemble"), n, sd)

    return Scenario(name=raw.get("name", name), mode=mode, psi=psi,
                    foliation=foliation, integration=integration,
                    ensemble=ensemble, content_hash=scenario_hash(raw))


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        _fail("validation", f"cannot read scenario file: {exc}")
    except json.JSONDecodeError as exc:
        _fail("validation", f"scenario file is not valid JSON: {exc}")
    return parse_scenario(raw, name=str(path))


def bundled_scenario_names():
    root = resources.files("hbdsim") / "scenarios"
    return sorted(p.name[:-5] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_scenario_path(name: str):
    path = resources.files("hbdsim") / "scenarios" / f"{name}.json"
    if not path.is_file():
        _fail("validation", f"no bundled scenario named {name!r}")
    return path


# ---------------------------------------------------------------------------
# output files
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return repr(float(x))


def _header(kind, content_hash, seed):
    seed_txt = "na" if seed is None else str(seed)
    return f"# hbdsim {kind} schema=1 scenario={content_hash} seed={seed_txt}\n"


def write_trajectories_csv(path, ensemble, mode, content_hash, seed=None):
    """One row per (trajectory, grid label, particle); D11 writes x0,x1 only.

    The ensemble must hold every grid label (``ValueError`` otherwise).
    """
    if len(ensemble.columns) != len(ensemble.s_grid):
        raise ValueError("the ensemble holds only some grid labels, not "
                         "whole paths")
    ncomp = 2 if mode is SpinDimensionMode.D11 else 4
    cols = ",".join(f"x{mu}" for mu in range(ncomp))
    with open(path, "w") as fh:
        fh.write(_header("trajectories", content_hash, seed))
        fh.write(f"trajectory,s,particle,{cols}\n")
        labels = [_fmt(s) for s in ensemble.s_grid.tolist()]
        for t, top in enumerate(ensemble.valid_steps.tolist()):
            rows = ensemble.points[t, :top + 1, :, :ncomp].tolist()
            for s, row in zip(labels, rows):
                for k, point in enumerate(row, 1):
                    vals = ",".join(map(_fmt, point))
                    fh.write(f"{t},{s},{k},{vals}\n")


def write_events_csv(path, events, content_hash, seed=None):
    with open(path, "w") as fh:
        fh.write(_header("events", content_hash, seed))
        fh.write("trajectory,s,kind\n")
        for traj, s, kind in events:
            fh.write(f"{traj},{_fmt(s)},{kind}\n")


def write_crossings_csv(path, crossing_set, content_hash, seed=None):
    n, sd = crossing_set.chart.shape[1:]
    cols = ",".join(f"xi_{k + 1}_{c + 1}" for k in range(n) for c in range(sd))
    with open(path, "w") as fh:
        fh.write(_header("crossings", content_hash, seed))
        fh.write(f"trajectory,s,{cols}\n")
        s = _fmt(crossing_set.s)
        ids = crossing_set.trajectory_ids.tolist()
        chart = crossing_set.chart.reshape(len(ids), n * sd).tolist()
        for i, row in zip(ids, chart):
            vals = ",".join(map(_fmt, row))
            fh.write(f"{i},{s},{vals}\n")


def read_csv_table(path):
    """Read any of the CSV outputs back: returns (meta dict, column dict)."""
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# hbdsim "):
            raise ValueError("not an hbdsim CSV file")
        parts = header[2:].split()
        meta = {"kind": parts[1]}
        meta.update(kv.split("=", 1) for kv in parts[2:])
        names = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    columns = {}
    for j, name in enumerate(names):
        vals = [r[j] for r in rows]
        if name in ("trajectory", "particle"):
            columns[name] = np.array(vals, dtype=int)
        elif name == "kind":
            columns[name] = np.array(vals)
        else:
            columns[name] = np.array(vals, dtype=float)
    return meta, columns


def write_json_report(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_report(path) -> dict:
    with open(path) as fh:
        return json.load(fh)

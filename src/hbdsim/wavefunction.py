"""Free multi-time N-particle Dirac wave functions.

A wave function is a finite superposition of tensor products of plane-wave
modes. Each mode is an exact solution of the free one-particle Dirac
equation, so the superposition solves all N multi-time equations exactly and
can be evaluated at arbitrary spacetime point tuples - mixed coordinate
times included - without any PDE grid.

Evaluation runs in two stages. The factor stage computes each distinct
plane-wave phase of every particle slot once per point, for all slots in
one pass over the slots' points (their components made contiguous rows
once per call); then, slot by slot and factor by factor, it takes the
phases of the factor's modes, multiplies each by the mode's coefficient
(weight x spinor, folded once at construction) and sums the terms mode
after mode (no BLAS). A slot's distinct momenta are ordered by spatial
momentum, so a comb packet's modes are one run of the table and their
phases a slice, a view; a factor whose modes are not one run in its own
order takes them by index, through the same expression. For a row
batch (one point tuple per row, ``evaluate_batch``) the combine stage
then takes Kronecker products of the factor values over the slots and
sums the branches, over all the rows it is given; the code that forms
the batch bounds them (``dynamics.BATCH_SIZE``). The leaf-density grids
never form psi: they take the factor values themselves, each particle's
on its own point set only (``evaluate_factors``, one factor pass per
particle). Every operation is elementwise or a sum in a fixed order, so
values do not depend on batch shape. The integrator evaluates psi once
per RK stage, often on 2-4 rows, where a call's fixed cost outweighs its
arithmetic, so what every call would recompute is fixed at construction
and the phase pass runs once per chunk, not once per slot.

A phase exp(-i theta), theta = p.x, comes from the tangent half-angle
identity: with t = tan(theta / 2) and w = -2 / (1 + t^2),

    exp(-i theta) = ((1 - t^2) - 2i t) / (1 + t^2) = (-1 - w) + i t w,

five real passes, the last two writing straight into the real and
imaginary parts of the complex output. numpy's float64 ``tan`` is
vectorised (SIMD) where the CPU allows, and costs a fraction of a complex
``exp`` (scalar libm) or of ``sin`` and ``cos``. The slot tables hold
p / 2, so the argument is exactly theta / 2. Against
``np.exp(-1j * theta)`` the error is below 5e-16 for |theta| up to 1e9,
and |t| stays below about 1e19 (no double lies closer than about 2^-61 to
an odd multiple of pi / 2), so t^2 never overflows. The bits are fixed
for a given machine and numpy build, across reruns, worker counts and
batch shapes; on another CPU they may differ by an ulp, because numpy
picks its ``tan`` kernel by CPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError
from .geometry import SpinDimensionMode, gamma, lift_to_particle, slash

__all__ = [
    "PlaneWaveMode",
    "NParticleWavefunction",
    "make_mode",
    "dirac_residual",
]

CHUNK_TERMS = 16384    # mode x component terms of a slot's largest factor
                       # per factor-stage chunk
# the phase pass's constants as 0-d arrays: a ufunc takes them as they are,
# where it would convert a Python float on every call
_ONE, _MINUS_ONE, _MINUS_TWO = (np.array(c) for c in (1.0, -1.0, -2.0))


@dataclass(frozen=True)
class PlaneWaveMode:
    """One plane-wave Dirac mode: amplitude spinor w times exp(-i p.x).

    The four-momentum is (sign * E, p) with E = +sqrt(m^2 + |p|^2); the
    amplitude spinor spans the chosen vector of the degenerate eigenspace
    (two spin labels in D31, one in D11) and is normalized to w^dag w = 1.
    """

    p: tuple
    m: float
    energy_sign: int
    spin_label: int
    mode: SpinDimensionMode
    w: np.ndarray = field(compare=False)
    four_momentum: np.ndarray = field(compare=False)


def _seed_index(sign: int, label: int, mode: SpinDimensionMode) -> int:
    if mode is SpinDimensionMode.D31:
        if label not in (1, 2):
            raise ValueError(f"spin label {label} invalid in D31 (use 1 or 2)")
        return (label - 1) if sign > 0 else (label + 1)
    if label != 1:
        raise ValueError(f"spin label {label} invalid in D11 (use 1)")
    return 0 if sign > 0 else 1


def make_mode(p, m, energy_sign, spin_label,
              mode: SpinDimensionMode) -> PlaneWaveMode:
    """Construct a plane-wave mode by solving the momentum-space eigenproblem.

    The amplitude spinor is the (normalized) image of a canonical basis
    vector under slash(p4) + m, which spans the solution space of
    (slash(p4) - m) w = 0; at p = 0 this reproduces the sparse rest spinors
    of the chosen representation exactly.
    """
    p = tuple(float(c) for c in np.atleast_1d(p))
    if len(p) != mode.spatial_dims:
        raise ValueError(f"momentum must have {mode.spatial_dims} components "
                         f"in {mode.value}, got {len(p)}")
    if m < 0:
        raise ValueError("mass must be nonnegative")
    if m == 0 and all(c == 0 for c in p):
        raise ValueError("massless mode needs nonzero momentum")
    if energy_sign not in (1, -1):
        raise ValueError("energy sign must be +1 or -1")
    energy = float(np.sqrt(m * m + sum(c * c for c in p)))
    if not np.isfinite(energy):
        raise ValueError(f"mode energy is not finite for p={p}, m={m}")

    p4 = np.zeros(4)
    p4[0] = energy_sign * energy
    p4[1:1 + len(p)] = p

    d = mode.spinor_dim
    seed = np.zeros(d, dtype=complex)
    seed[_seed_index(energy_sign, spin_label, mode)] = 1.0
    sl = slash(p4, mode=mode)
    raw = (sl + m * np.eye(d)) @ seed
    norm = np.linalg.norm(raw)
    if norm == np.inf:
        # a finite energy just below the overflow still squares past it
        raise ValueError(f"amplitude spinor overflows for p={p}, m={m}")
    if norm < 1e-300:
        raise ConsistencyError("degenerate amplitude spinor (cannot occur for "
                               "valid momentum/mass input)")
    w = raw / norm

    residual = np.linalg.norm(sl @ w - m * w)
    if residual > 1e-12 * (1.0 + energy + m):
        raise ConsistencyError(
            f"momentum-space Dirac residual {residual:.3e} too large")

    w.setflags(write=False)
    p4.setflags(write=False)
    return PlaneWaveMode(p=p, m=float(m), energy_sign=int(energy_sign),
                         spin_label=int(spin_label), mode=mode,
                         w=w, four_momentum=p4)


class NParticleWavefunction:
    """Finite sum of coefficient-weighted tensor products of plane-wave modes.

    ``terms`` is a sequence of (complex coefficient, tuple of N modes); all
    modes must share the mass and the dimension mode. Entanglement is
    realized by supplying more than one term. Wave functions are not
    normalized at construction; the ensemble layer normalizes by the total
    leaf flux where a probability reading is needed.

    Every state is held only as a sum of product branches, ``branches``:
    a term is a branch whose factors each hold one mode with weight 1, and
    ``from_product_branches`` passes factors of many modes. The branches
    are never expanded into terms; evaluation runs on the factored form.
    """

    def __init__(self, terms):
        self._setup([(complex(c), tuple(((1.0, md),) for md in modes))
                     for c, modes in terms])

    def _setup(self, branches):
        if not any(all(factors) for _, factors in branches):
            raise ValueError("wavefunction needs at least one term")
        n_particles = len(branches[0][1])
        if not all(len(factors) == n_particles for _, factors in branches):
            raise ValueError("every term must supply one mode per particle")
        if not any(c != 0 and all(any(w != 0 for w, _ in f) for f in factors)
                   for c, factors in branches):
            raise ValueError("at least one coefficient must be nonzero")

        every = [md for _, factors in branches for f in factors for _, md in f]
        self.mode = every[0].mode
        self.mass = every[0].m
        if any(md.mode is not self.mode or md.m != self.mass for md in every):
            raise ValueError("all modes must share mass and dimension mode")

        self.n_particles = n_particles
        self.branches = tuple(branches)
        self.dim = self.mode.spin_space_dim(self.n_particles)
        # per slot: the distinct four-momenta of all its factors, compared
        # bitwise and ordered by spatial momentum (then energy), so that a
        # comb's modes, listed in momentum order, are one run of the table;
        # and per branch, the slot's factor as its modes' selector in that
        # table and their coefficients weight x spinor (n_f, d, 1), folded
        # here. The selector is the run's slice, whose phases are a view,
        # where the factor's columns are consecutive, and the columns
        # themselves otherwise
        self._branch_coeffs = np.array([c for c, _ in branches],
                                       dtype=complex).reshape(-1, 1, 1)
        # read on every call, so fixed here rather than through the mode
        d = self._spinor_dim = self.mode.spinor_dim
        self._spatial_mus = tuple(self.mode.vector_indices[1:])
        self._slot_factor_tables = []
        momenta = []
        widths = []
        for k in range(n_particles):
            slot_factors = [fs[k] for _, fs in branches]
            distinct = {}
            for factor in slot_factors:
                for _, md in factor:
                    distinct.setdefault(md.four_momentum.tobytes(),
                                        md.four_momentum.tolist())
            order = sorted(distinct, key=lambda key: (distinct[key][1:],
                                                      distinct[key][0]))
            columns = {key: i for i, key in enumerate(order)}
            tables = []
            for factor in slot_factors:
                cols = [columns[md.four_momentum.tobytes()] for _, md in factor]
                sel = (slice(cols[0], cols[-1] + 1)
                       if cols and cols == list(range(cols[0], cols[-1] + 1))
                       else np.array(cols, dtype=np.intp))
                coef = np.array([w * md.w for w, md in factor], dtype=complex)
                tables.append((sel, coef.reshape(len(factor), d, 1)))
            momenta.append([distinct[key] for key in order])
            self._slot_factor_tables.append(tables)
            # points per factor-stage chunk: the slot's largest factor keeps
            # its terms within CHUNK_TERMS, so the temporaries stay
            # cache-sized (as one chunk of 1024 rows they cost more in page
            # faults than in work)
            largest = max(len(f) for f in slot_factors)
            widths.append(max(1, CHUNK_TERMS // (largest * d)))
        # every slot's table halved (exact) for the half-angle phases,
        # component-major (4, N, M_max, 1); a shorter table is padded with
        # zero momenta, whose phase is exactly 1 and is never selected
        half = np.zeros((4, n_particles, max(map(len, momenta)), 1))
        for k, p4s in enumerate(momenta):
            half[:, k, :len(p4s), 0] = 0.5 * np.array(p4s).T
        self._slot_half_p4s = half
        # one chunk width for all slots, the narrowest slot's
        self._chunk_points = min(widths)

    @classmethod
    def from_product_branches(cls, branches):
        """Build from a sum of product terms with per-particle mode packets.

        ``branches`` is a sequence of (complex coefficient, factors) where
        ``factors[k]`` is a list of (complex weight, PlaneWaveMode) for
        particle k+1. The state is kept in this form, so its size is the
        total number of factor modes, not their product.
        """
        psi = cls.__new__(cls)
        psi._setup([(complex(c), tuple(tuple((complex(w), md) for w, md in f)
                                       for f in factors))
                    for c, factors in branches])
        return psi

    def _slot_phases(self, x, half_p4s):
        # exp(-i p.x), (N, M, P), for every slot's table of halved
        # four-momenta, component-major (4, N, M, 1), at the slots' points x
        # (N, P, 4): t = tan(p.x / 2) and w = -2 / (1 + t^2) (contiguous:
        # passes into the strided real and imaginary views cost twice as
        # much), then exp(-i p.x) = (-1 - w) + i t w, written straight into
        # those views
        xs = x.transpose(2, 0, 1)[:, :, None]       # (4, N, 1, P)
        t = half_p4s[0] * xs[0]
        for mu in self._spatial_mus:
            t -= half_p4s[mu] * xs[mu]
        np.tan(t, out=t)
        w = t * t
        w += _ONE
        np.divide(_MINUS_TWO, w, out=w)
        out = np.empty(t.shape, dtype=complex)
        np.multiply(t, w, out=out.imag)
        np.subtract(_MINUS_ONE, w, out=out.real)
        return out

    def evaluate_batch(self, points) -> np.ndarray:
        """Values of psi at a batch of point tuples, shape (..., N, 4) -> (..., D).

        Every operation is row-wise, so the values do not depend on the
        batch shape. Only the factor stage works in chunks; the rest spans
        the batch, whose rows the caller bounds (``dynamics.BATCH_SIZE``).
        """
        x = np.asarray(points, dtype=float)
        if x.shape[-2:] != (self.n_particles, 4):
            raise ValueError(f"points must have shape (..., {self.n_particles}, 4)")
        # slot-major (N, rows, 4): slot k's points are slots[k]
        slots = x.reshape((-1, self.n_particles, 4)).transpose(1, 0, 2)
        return self._combine(self._slot_factors(slots)).reshape(
            x.shape[:-2] + (self.dim,))

    def evaluate_factors(self, point_sets):
        """Each particle's factor values (B, d, P_k) on its own points
        ``point_sets[k]`` (P_k, 4), from one factor pass per particle on
        its own set only."""
        return [self._slot_factors(x[None], [k])[0]
                for k, x in enumerate(point_sets)]

    def _combine(self, factors):
        # psi (rows, D) from the slots' factor values factors[k] (B, d,
        # rows): every branch's Kronecker product over the slots, one
        # product per slot for all branches, and the branch coefficients
        # (B, 1, 1) times it, coefficient first (with fused multiply-adds a
        # complex product's bits depend on the operand order); then one
        # reduce over the branches, in order (the branch axis is outermost)
        # and from +0.0, which also gives every exactly zero component the
        # sign +0.0. Component-major (D, rows) until the last copy
        val = factors[0]
        for f in factors[1:]:
            val = (val[:, :, None] * f[:, None]).reshape(
                len(f), val.shape[1] * f.shape[1], f.shape[-1])
        return np.add.reduce(self._branch_coeffs * val, axis=0,
                             initial=0.0).T.copy()

    def _slot_factors(self, x, slots=None):
        # the factor values (n, B, d, P) of every branch at the points x
        # (n, P, 4) of the n slots ``slots`` (a list; all slots by
        # default), chunk by chunk: the slots' distinct phases in one pass,
        # then per slot and factor its modes' phases times their
        # coefficients, modes first, summed
        half, tables = self._slot_half_p4s, self._slot_factor_tables
        if slots is not None:
            half, tables = half[:, slots], [tables[k] for k in slots]
        step = self._chunk_points
        out = np.empty((len(x), len(self._branch_coeffs), self._spinor_dim,
                        x.shape[1]), dtype=complex)
        # the points' components as contiguous rows, once per call: every
        # chunk's (n, P, 4) view below transposes back to rows that the
        # phase pass reads with unit stride
        rows = np.ascontiguousarray(x.transpose(2, 0, 1)).transpose(1, 2, 0)
        for lo in range(0, x.shape[1], step):
            cols = slice(lo, lo + step)
            # (n, M, 1, P): a factor's modes are then (n_f, 1, P)
            ph = self._slot_phases(rows[:, cols], half)[:, :, None]
            # the mode axis is outermost, so each sum runs mode after mode
            # whatever the chunk size (no pairwise summation); it starts
            # from zero, which can only change the sign of an exact zero,
            # and the branch sum resets that
            for k, tables_k in enumerate(tables):
                for b, (sel, coef) in enumerate(tables_k):
                    np.add.reduce(ph[k, sel] * coef, axis=0,
                                  out=out[k, b, :, cols])
        return out

    def evaluate(self, points) -> np.ndarray:
        """psi at one tuple of N spacetime points, shape (N, 4) -> (D,)."""
        x = np.asarray(points, dtype=float)
        if x.shape != (self.n_particles, 4):
            raise ValueError(f"expected {self.n_particles} spacetime points")
        return self.evaluate_batch(x)


def dirac_residual(psi: NParticleWavefunction, k: int, x, h: float) -> float:
    """Finite-difference residual of the k-th multi-time Dirac equation.

    Returns || i gamma_k . d_k psi - m psi || at the point tuple x with the
    slot-k partial derivatives replaced by central differences of step h.
    Second-order accurate; used as a test oracle only.
    """
    if h <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    n = psi.n_particles
    mus = list(psi.mode.vector_indices)

    displaced = np.broadcast_to(x, (2 * len(mus), n, 4)).copy()
    for j, mu in enumerate(mus):
        displaced[2 * j, k - 1, mu] += h
        displaced[2 * j + 1, k - 1, mu] -= h
    vals = psi.evaluate_batch(displaced)

    slashed = np.zeros(psi.dim, dtype=complex)
    for j, mu in enumerate(mus):
        dpsi = (vals[2 * j] - vals[2 * j + 1]) / (2.0 * h)
        slashed += lift_to_particle(gamma(mu, psi.mode), k, n) @ dpsi
    center = psi.evaluate_batch(x)
    return float(np.linalg.norm(1j * slashed - psi.mass * center))

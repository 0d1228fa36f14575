import itertools
import tracemalloc

import numpy as np
import pytest

from hbdsim.geometry import SpinDimensionMode, minkowski_dot, slash
from hbdsim.scenario import bundled_scenario_path, load_scenario
from hbdsim.wavefunction import (
    NParticleWavefunction,
    dirac_residual,
    make_mode,
)

from conftest import kron_chain

D31 = SpinDimensionMode.D31
D11 = SpinDimensionMode.D11


def test_rest_mode_spinors_sparse():
    assert np.array_equal(make_mode([0, 0, 0], 1.0, 1, 1, D31).w,
                          [1, 0, 0, 0])
    assert np.array_equal(make_mode([0, 0, 0], 1.0, 1, 2, D31).w,
                          [0, 1, 0, 0])
    assert np.array_equal(make_mode([0, 0, 0], 1.0, -1, 1, D31).w,
                          [0, 0, 1, 0])
    assert np.array_equal(make_mode([0], 1.0, 1, 1, D11).w, [1, 0])
    assert np.array_equal(make_mode([0], 1.0, -1, 1, D11).w, [0, 1])


def test_mode_nullspace_oracle(rng):
    # the amplitude spinor solves (slash(p4) - m) w = 0: cross-check against
    # a least-squares nullspace computation of the same matrix
    for _ in range(20):
        mode = D31 if rng.random() < 0.5 else D11
        p = rng.normal(0, 1.5, size=mode.spatial_dims)
        m = float(rng.uniform(0.1, 2.0))
        sign = 1 if rng.random() < 0.5 else -1
        label = int(rng.integers(1, 3)) if mode is D31 else 1
        md = make_mode(p, m, sign, label, mode)
        a = slash(md.four_momentum, mode=mode) - m * np.eye(mode.spinor_dim)
        assert np.linalg.norm(a @ md.w) < 1e-12 * (1 + abs(md.four_momentum[0]))
        # nullspace dimension matches the degeneracy
        svals = np.linalg.svd(a, compute_uv=False)
        degeneracy = 2 if mode is D31 else 1
        assert np.sum(svals < 1e-9) == degeneracy
        assert abs(np.vdot(md.w, md.w) - 1.0) < 1e-12


def test_mode_energy_and_momentum():
    md = make_mode([0.6], 1.0, 1, 1, D11)
    e = np.sqrt(1 + 0.36)
    assert np.allclose(md.four_momentum, [e, 0.6, 0, 0])
    md = make_mode([0.6], 1.0, -1, 1, D11)
    assert np.allclose(md.four_momentum, [-e, 0.6, 0, 0])


def test_mode_validation_errors():
    with pytest.raises(ValueError):
        make_mode([0.0], -1.0, 1, 1, D11)
    with pytest.raises(ValueError):
        make_mode([0.0], 0.0, 1, 1, D11)      # massless needs momentum
    with pytest.raises(ValueError):
        make_mode([0.1], 1.0, 2, 1, D11)
    with pytest.raises(ValueError):
        make_mode([0.1], 1.0, 1, 2, D11)
    with pytest.raises(ValueError):
        make_mode([0.1, 0.0], 1.0, 1, 1, D11)


def test_massless_modes_allowed():
    md = make_mode([1.0], 0.0, 1, 1, D11)
    assert np.linalg.norm(slash(md.four_momentum, mode=D11) @ md.w) < 1e-12


def test_wavefunction_validation():
    m1 = make_mode([0.3], 1.0, 1, 1, D11)
    with pytest.raises(ValueError):
        NParticleWavefunction([])
    with pytest.raises(ValueError):
        NParticleWavefunction([(0.0, (m1,))])
    m2 = make_mode([0.3], 2.0, 1, 1, D11)
    with pytest.raises(ValueError):
        NParticleWavefunction([(1.0, (m1,)), (1.0, (m2,))])   # mass mismatch
    with pytest.raises(ValueError):
        NParticleWavefunction([(1.0, (m1,)), (1.0, (m1, m1))])
    # the branch form is checked without expanding it: one factor per
    # particle, shared mass and mode, and some branch that can be nonzero
    build = NParticleWavefunction.from_product_branches
    cases = [
        ([], "at least one term"),
        ([(1.0, [[(1.0, m1)], []])], "at least one term"),
        ([(1.0, [[(1.0, m1)]]), (1.0, [[(1.0, m1)], [(1.0, m1)]])],
         "one mode per particle"),
        ([(0.0, [[(1.0, m1)]]), (1.0, [[(0.0, m1), (0.0, m1)]])],
         "coefficient must be nonzero"),
        ([(1.0, [[(1.0, m1), (0.5, m2)]])], "share mass"),
    ]
    for branches, message in cases:
        with pytest.raises(ValueError, match=message):
            build(branches)
    psi = build([(0.0, [[(1.0, m1)]]), (1.0, [[(0.0, m1), (2.0, m1)]])])
    v = psi.evaluate(np.zeros((1, 4)))
    assert abs(np.vdot(v, v).real - 4.0) < 1e-14


def test_branches_are_not_expanded():
    # four particles with 21-mode factors would expand to 21**4 terms; the
    # state is kept as its 84 factor modes
    modes = [make_mode([0.1 * a], 1.0, 1, 1, D11) for a in range(-10, 11)]
    factor = [(np.exp(-0.01 * a * a), md) for a, md in zip(range(-10, 11),
                                                            modes)]
    tracemalloc.start()
    try:
        psi = NParticleWavefunction.from_product_branches([(1.0, [factor] * 4)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert psi.n_particles == 4
    assert peak < 1_000_000


def test_evaluate_single_term_origin():
    md = make_mode([0.4], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(0.3 - 0.2j, (md,))])
    val = psi.evaluate(np.zeros((1, 4)))
    assert np.allclose(val, (0.3 - 0.2j) * md.w, atol=1e-15)


def test_rest_mode_phase():
    md = make_mode([0], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,))])
    t = 0.83
    val = psi.evaluate(np.array([[t, 0, 0, 0]]))
    assert np.allclose(val, np.exp(-1j * t) * md.w, atol=1e-14)


def test_evaluate_two_term_hand_expansion(rng):
    # entangled N=2 value equals the hand-expanded sum of two Kronecker
    # products computed with plain numpy here
    ma = make_mode([0.9], 1.0, 1, 1, D11)
    mb = make_mode([-0.4], 1.0, 1, 1, D11)
    mc = make_mode([0.2], 1.0, -1, 1, D11)
    c1, c2 = 0.7 - 0.1j, 0.3j
    psi = NParticleWavefunction([(c1, (ma, mb)), (c2, (mb, mc))])
    x = rng.normal(size=(2, 4))
    x[:, 2:] = 0.0

    def plane(md, xk):
        return md.w * np.exp(-1j * minkowski_dot(md.four_momentum, xk))

    expected = (c1 * np.kron(plane(ma, x[0]), plane(mb, x[1]))
                + c2 * np.kron(plane(mb, x[0]), plane(mc, x[1])))
    assert np.allclose(psi.evaluate(x), expected, atol=1e-13)


def test_linearity(rng):
    ma = make_mode([0.5], 1.0, 1, 1, D11)
    mb = make_mode([-0.8], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (ma,))])
    phi = NParticleWavefunction([(1.0, (mb,))])
    a, b = 0.6 - 1.1j, -0.2 + 0.9j
    combo = NParticleWavefunction([(a, (ma,)), (b, (mb,))])
    for _ in range(5):
        x = rng.normal(size=(1, 4))
        x[:, 2:] = 0.0
        lhs = combo.evaluate(x)
        rhs = a * psi.evaluate(x) + b * phi.evaluate(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_product_factorization(rng):
    # a single-term wave function factorizes into one-particle evaluations
    mats = [make_mode([0.7], 1.0, 1, 1, D11),
            make_mode([-0.2], 1.0, -1, 1, D11),
            make_mode([1.1], 1.0, 1, 1, D11)]
    psi = NParticleWavefunction([(1.3 + 0.4j, tuple(mats))])
    x = rng.normal(size=(3, 4))
    x[:, 2:] = 0.0
    singles = [NParticleWavefunction([(1.0, (m,))]).evaluate(x[k][None])
               for k, m in enumerate(mats)]
    expected = (1.3 + 0.4j) * kron_chain([s[:, None] for s in singles]).ravel()
    got = psi.evaluate(x)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


def _expanded_terms(branches):
    # the term list of a branch-form state: one term per choice of a mode
    # in every factor, its coefficient c times the chosen modes' weights
    return [(c * np.prod([w for w, _ in combo]), [md for _, md in combo])
            for c, factors in branches
            for combo in itertools.product(*factors)]


def _term_sum(terms, x):
    # plain numpy: the sum over the terms of c * kron(w_k exp(-i p_k.x_k))
    return np.array([
        sum(c * kron_chain([md.w * np.exp(-1j * minkowski_dot(
            md.four_momentum, xi[k])) for k, md in enumerate(modes)])
            for c, modes in terms)
        for xi in x])


def test_branch_form_matches_term_expansion(rng):
    # the factored evaluation equals the plain-numpy sum over the expanded
    # term list of c * kron(w_k exp(-i p_k.x_k))
    f1 = [(0.8, make_mode([0.5], 1.0, 1, 1, D11)),
          (0.2j, make_mode([1.0], 1.0, 1, 1, D11))]
    f2 = [(1.0, make_mode([-0.5], 1.0, 1, 1, D11)),
          (-0.4, make_mode([0.1], 1.0, -1, 1, D11))]
    branches = [(1.0, [f1, f2]), (0.5 - 0.5j, [f2, f1])]
    psi = NParticleWavefunction.from_product_branches(branches)
    terms = _expanded_terms(branches)
    assert len(terms) == 8
    x = rng.normal(size=(6, 2, 4))
    x[..., 2:] = 0.0
    expected = _term_sum(terms, x)
    got = psi.evaluate_batch(x)
    assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


def test_shared_and_repeated_momenta_match_term_expansion(rng):
    # factor modes that share a column of the slot's momentum table: the
    # headline state's 38 modes per slot over 31 momenta shared between
    # branches, and a D31 factor listing one four-momentum twice with spin
    # labels 1 and 2, two modes in one column whose weighted spinors must
    # stay apart
    headline = load_scenario(bundled_scenario_path("curved_n2_entangled")).psi
    p = [0.3, -0.2, 0.5]
    up, down = (make_mode(p, 1.0, 1, s, D31) for s in (1, 2))
    other = make_mode([-0.4, 0.1, 0.0], 1.0, -1, 2, D31)
    assert up.four_momentum.tobytes() == down.four_momentum.tobytes()
    d31 = NParticleWavefunction.from_product_branches(
        [(1.0, [[(0.7, up), (0.5 - 0.4j, down), (0.3j, other)],
                [(1.0, other), (0.2, up)]]),
         (0.4 - 0.6j, [[(1.0, down)], [(0.9j, up), (-0.5, down)]])])
    for psi, modes, distinct in [(headline, 38, 31), (d31, 4, 2)]:
        for k in range(2):
            tables = psi._slot_factor_tables[k]
            # a factor's selector is a slice of the table or its columns
            columns = np.arange(psi._slot_half_p4s.shape[2])
            assert sum(len(columns[sel]) for sel, _ in tables) == modes
            # slot k's halved momenta, columns (4, M_max); a real momentum
            # has a nonzero energy, the padding is all zero
            half = psi._slot_half_p4s[:, k, :, 0]
            real = half[0] != 0
            assert np.count_nonzero(real) == distinct
            assert len({p.tobytes() for p in half[:, real].T}) == distinct
            assert not half[:, ~real].any()
        x = rng.normal(0.0, 4.0, size=(5, 2, 4))
        x[..., 1 + psi.mode.spatial_dims:] = 0.0
        expected = _term_sum(_expanded_terms(psi.branches), x)
        got = psi.evaluate_batch(x)
        assert np.max(np.abs(got - expected)) < 1e-13 * np.max(np.abs(expected))


def _comb(p0, dp, n, weight=1.0):
    # n D11 modes p0, p0 + dp, ..., listed in momentum order
    return [(weight * np.exp(-0.2 * a) * (1.0 + 0.3j * a),
             make_mode([p0 + a * dp], 1.0, 1, 1, D11)) for a in range(n)]


def _selector_momenta(psi, k, sel):
    # the four-momenta slot k's table holds at a factor's selector
    return 2.0 * psi._slot_half_p4s[:, k, sel, 0].T


def test_headline_factors_take_their_phases_as_views():
    # every factor of the headline state is one run of its slot's table, in
    # its own mode order, so its phases are a slice of the chunk's phases
    psi = load_scenario(bundled_scenario_path("curved_n2_entangled")).psi
    x = np.random.default_rng(7).normal(0.0, 4.0, size=(2, 9, 4))
    ph = psi._slot_phases(x, psi._slot_half_p4s)[:, :, None]
    for k, tables in enumerate(psi._slot_factor_tables):
        for (sel, _), (_, factors) in zip(tables, psi.branches):
            assert isinstance(sel, slice) and sel.step is None
            view = ph[k][sel]
            assert view.base is not None and np.shares_memory(view, ph)
            assert np.array_equal(_selector_momenta(psi, k, sel),
                                  [md.four_momentum for _, md in factors[k]])


def _index_path_states():
    # interleaved combs (dp 0.25 and 0.4 overlap in momentum in slot 0, so
    # neither is one run of the sorted table there), and a factor listing
    # one four-momentum twice (spin labels 1 and 2 in D31)
    fine, coarse = _comb(-1.0, 0.25, 9), _comb(-0.9, 0.4, 6, 0.5j)
    interleaved = NParticleWavefunction.from_product_branches(
        [(1.0, [fine, coarse]), (0.6 - 0.3j, [coarse, _comb(2.0, 0.2, 3)])])
    p = [0.3, -0.2, 0.5]
    up, down = (make_mode(p, 1.0, 1, s, D31) for s in (1, 2))
    other = make_mode([-0.4, 0.1, 0.0], 1.0, -1, 2, D31)
    repeated = NParticleWavefunction.from_product_branches(
        [(1.0, [[(0.7, up), (0.3j, other), (0.5 - 0.4j, down)],
                [(1.0, other)]]),
         (0.4 - 0.6j, [[(0.2, up), (1.0, other)], [(0.9j, up)]])])
    return interleaved, repeated


def test_factors_that_are_no_run_take_the_index_path(rng):
    interleaved, repeated = _index_path_states()
    kinds = [[type(sel) for sel, _ in tables]
             for tables in interleaved._slot_factor_tables]
    assert kinds == [[np.ndarray, np.ndarray], [slice, slice]]
    # the repeated four-momentum: up and down share a column, so the
    # first factor of slot 0 lists a column twice; the second lists its
    # two columns against the table's order; a one-mode factor is a run
    (sel, _), (sel2, _) = repeated._slot_factor_tables[0]
    assert isinstance(sel, np.ndarray) and len(set(sel)) == 2 < len(sel)
    assert isinstance(sel2, np.ndarray)
    assert all(isinstance(s, slice)
               for s, _ in repeated._slot_factor_tables[1])
    for psi in (interleaved, repeated):
        for k, tables in enumerate(psi._slot_factor_tables):
            for (sel, _), (_, factors) in zip(tables, psi.branches):
                assert np.array_equal(
                    _selector_momenta(psi, k, sel),
                    [md.four_momentum for _, md in factors[k]])


def test_both_selector_paths_match_the_terms_and_are_row_independent(rng):
    headline = load_scenario(bundled_scenario_path("curved_n2_entangled")).psi
    for psi in (headline, *_index_path_states()):
        x = rng.normal(0.0, 4.0, size=(300, 2, 4))
        x[..., 1 + psi.mode.spatial_dims:] = 0.0
        expected = _term_sum(_expanded_terms(psi.branches), x[:20])
        whole = psi.evaluate_batch(x)
        assert (np.max(np.abs(whole[:20] - expected))
                < 1e-13 * np.max(np.abs(expected)))
        for i in (0, 1, 137, 299):
            assert np.array_equal(psi.evaluate_batch(x[i:i + 1])[0], whole[i])
    # the headline's slices and the same runs gathered by index give the
    # same bits
    gathered = load_scenario(bundled_scenario_path("curved_n2_entangled")).psi
    gathered._slot_factor_tables = [
        [(np.arange(sel.start, sel.stop), coef) for sel, coef in tables]
        for tables in gathered._slot_factor_tables]
    x = rng.normal(0.0, 4.0, size=(1500, 2, 4))
    x[..., 2:] = 0.0
    assert np.array_equal(gathered.evaluate_batch(x),
                          headline.evaluate_batch(x))


def test_dirac_residual_rest_mode():
    md = make_mode([0], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,))])
    r = dirac_residual(psi, 1, np.zeros((1, 4)), 1e-3)
    assert r < 1e-5                              # ~ m^3 h^2 / 6


def test_dirac_residual_second_order(rng):
    for mode, n in [(D11, 2), (D31, 1)]:
        modes = lambda: tuple(
            make_mode(rng.normal(0, 1, mode.spatial_dims), 1.0,
                      1 if rng.random() < 0.7 else -1,
                      int(rng.integers(1, 3)) if mode is D31 else 1, mode)
            for _ in range(n))
        psi = NParticleWavefunction([(1.0, modes()), (0.5j, modes())])
        x = rng.normal(size=(n, 4))
        x[:, 1 + mode.spatial_dims:] = 0.0
        k = int(rng.integers(1, n + 1))
        r1 = dirac_residual(psi, k, x, 2e-2)
        r2 = dirac_residual(psi, k, x, 1e-2)
        assert r1 > 1e-9
        assert 0.8 * 4 < r1 / r2 < 1.2 * 4


def test_dirac_residual_zero_function():
    md = make_mode([0.3], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,)), (-1.0, (md,))])
    r = dirac_residual(psi, 1, np.zeros((1, 4)), 1e-3)
    assert r == 0.0


def test_evaluate_batch_shape_checks():
    md = make_mode([0.3], 1.0, 1, 1, D11)
    psi = NParticleWavefunction([(1.0, (md,))])
    with pytest.raises(ValueError):
        psi.evaluate_batch(np.zeros((3, 2, 4)))
    with pytest.raises(ValueError):
        psi.evaluate(np.zeros((2, 4)))


def test_slot_phases_once_per_distinct_momentum(monkeypatch):
    # the headline state's branches share momenta: 21 + 17 factor modes per
    # slot, 31 of them distinct
    psi = load_scenario(bundled_scenario_path("curved_n2_entangled")).psi
    seen = []
    slot_phases = psi._slot_phases

    def recording(x, p4s):
        out = slot_phases(x, p4s)
        seen.append(out.shape)
        return out

    monkeypatch.setattr(psi, "_slot_phases", recording)
    psi.evaluate_batch(np.random.default_rng(3).normal(size=(50, 2, 4)))
    # one pass: both slots, 31 phases per slot and point, 50 points
    assert seen == [(2, 31, 50)]


def test_slot_phases_match_complex_exp():
    # the tangent half-angle phases against numpy's complex exp: random
    # arguments, the half-angle poles theta = (2k+1) pi with their
    # neighbours (|tan(theta / 2)| from 4e13 to 2e18 there), and both zeros;
    # the table holds p / 2, so 0.5 stands for p = (1, 0) and theta = x^0;
    # one slot, one momentum, component-major (4, N, M, 1)
    psi = NParticleWavefunction([(1.0, (make_mode([0.3], 1.0, 1, 1, D11),))])
    half = np.array([0.5, 0.0, 0.0, 0.0]).reshape(4, 1, 1, 1)
    poles = (2.0 * np.arange(-30, 31) + 1.0) * np.pi
    theta = np.concatenate([
        np.random.default_rng(17).uniform(-1e4, 1e4, 100_000),
        poles, np.nextafter(poles, np.inf), np.nextafter(poles, -np.inf),
        [0.0, -0.0]])
    x = np.zeros((theta.size, 4))
    x[:, 0] = theta
    ph = psi._slot_phases(x[None], half)
    assert ph.shape == (1, 1, theta.size)
    assert np.max(np.abs(ph[0, 0] - np.exp(-1j * theta))) <= 1e-15
    assert np.max(np.abs(np.abs(ph[0, 0]) - 1.0)) <= 1e-15
    nan = psi._slot_phases(np.full((1, 3, 4), np.nan), half)
    assert np.all(np.isnan(nan.real)) and np.all(np.isnan(nan.imag))


def test_slot_phases_bits_do_not_depend_on_the_window():
    # numpy's SIMD tan must treat the tail of an array like its vector
    # body: every window of the points, contiguous or strided, gives the
    # bits of the matching slice of the whole table (two slots of 31
    # momenta per point, so the windows also shift where each row starts
    # in the vector lanes)
    psi = load_scenario(bundled_scenario_path("curved_n2_entangled")).psi
    half = psi._slot_half_p4s
    x = np.random.default_rng(19).normal(0.0, 6.0, size=(2, 2 * 4097 + 16, 4))
    whole = psi._slot_phases(x, half)
    assert whole.shape == (2, 31, x.shape[1])
    for lo in range(17):
        for n in [*range(1, 18), 1023, 4097]:
            assert np.array_equal(psi._slot_phases(x[:, lo:lo + n], half),
                                  whole[..., lo:lo + n])
            strided = slice(lo, lo + 2 * n, 2)
            assert np.array_equal(psi._slot_phases(x[:, strided], half),
                                  whole[..., strided])
    # with one slot and one momentum, consecutive windows of n points put
    # every point in the tail of some array, past the SIMD kernel's last
    # full vector
    one = psi._slot_phases(x[:1], half[:, :1, :1])
    for n in range(1, 18):
        pieces = [psi._slot_phases(x[:1, lo:lo + n], half[:, :1, :1])
                  for lo in range(0, x.shape[1], n)]
        assert np.array_equal(np.concatenate(pieces, axis=2), one)


def _row_independence_states():
    ma = make_mode([0.7], 1.0, 1, 1, D11)
    mb = make_mode([-0.5], 1.0, -1, 1, D11)
    mc = make_mode([0.2], 1.0, 1, 1, D11)
    # a factor of 11 modes: summed over an inner mode axis, numpy's
    # pairwise summation would change bits against the ordered sum
    wide = [(np.exp(-0.1 * a) * (1.0 + 0.3j * a),
             make_mode([0.15 * a - 0.6], 1.0, 1 if a % 3 else -1, 1, D11))
            for a in range(11)]
    d11 = NParticleWavefunction.from_product_branches(
        [(1.0, [[(1.0, ma), (0.4j, mb)], [(0.5, mb), (0.3, mc)]]),
         (0.3 - 0.2j, [[(1.0, mc)], [(0.7, ma), (1.0, mb)]]),
         (0.6j, [wide, wide[::2]])])
    comb = [(0.9 ** (a + b) * (1.0 - 0.2j * a),
             make_mode([0.3 * a - 0.3, 0.2 * b - 0.2, 0.1], 1.0,
                       1 if (a + b) % 4 else -1, 1 + (a * b) % 2, D31))
            for a in range(3) for b in range(3)]
    d31 = NParticleWavefunction.from_product_branches(
        [(1.0, [comb, comb[:2]]), (0.4 + 0.1j, [comb[3:5], comb])])
    return d11, d31


def test_evaluation_is_row_independent():
    # one call on 5000 rows, batches of 1, 2 and 7 rows, an unaligned
    # split with a zero-row batch, and a 3-d batch must give the same bits
    x = np.random.default_rng(11).normal(0.0, 4.0, size=(5000, 2, 4))
    for psi in _row_independence_states():
        # the whole batch crosses factor-stage chunk boundaries, and the
        # split cuts a chunk
        assert psi._chunk_points < 4097 and 4097 % psi._chunk_points
        whole = psi.evaluate_batch(x)
        assert whole.shape == (5000, psi.dim) and whole.flags.c_contiguous
        for batch in (1, 2, 7):
            pieces = [psi.evaluate_batch(x[lo:lo + batch])
                      for lo in range(0, 5000, batch)]
            assert np.array_equal(np.concatenate(pieces), whole)
        empty = psi.evaluate_batch(x[:0])
        assert empty.shape == (0, psi.dim)
        split = np.concatenate([psi.evaluate_batch(x[:4097]), empty,
                                psi.evaluate_batch(x[4097:])])
        assert np.array_equal(whole, split)
        assert np.array_equal(psi.evaluate_batch(x.reshape(50, 100, 2, 4)),
                              whole.reshape(50, 100, -1))


def test_grid_of_unequal_slot_sets_equals_its_row_batch():
    # per-particle point sets of unequal size are zero-padded to the
    # largest inside the kernel, and the D11 state's momentum tables (14
    # and 9 momenta) are padded too: each particle's factor values on its
    # own set, taken to the row batch of the grid's point tuples and
    # combined there, must equal that row batch bit for bit, the sign of
    # zero included (the rest mode's lower component is exactly zero)
    rng = np.random.default_rng(29)
    rest = make_mode([0], 1.0, 1, 1, D11)
    ma = make_mode([0.7], 1.0, 1, 1, D11)
    mb = make_mode([-0.5], 1.0, -1, 1, D11)
    three = NParticleWavefunction.from_product_branches(
        [(1.0, [[(1.0, rest)], [(1.0, ma), (0.3j, mb)], [(0.5, mb)]]),
         (-0.4j, [[(0.2, rest)], [(1.0, mb)], [(1.0, rest), (0.7, ma)]])])
    d11, d31 = _row_independence_states()
    assert d11._slot_half_p4s.shape[2] == 14
    assert np.count_nonzero(d11._slot_half_p4s[0, 1, :, 0]) == 9
    cases = [(d11, (5, 900)), (d11, (900, 5)), (d31, (1, 37)),
             (d31, (600, 3)), (three, (4, 1, 6)), (three, (3, 50, 2))]
    for psi, sizes in cases:
        n, sd = psi.n_particles, psi.mode.spatial_dims
        sets, slots = [], []
        for k, size in enumerate(sizes):
            x = rng.normal(0.0, 4.0, size=(size, 4))
            x[:, 1 + sd:] = 0.0
            sets.append(x)
            slots.append(x.reshape((1,) * k + (size,) + (1,) * (n - 1 - k)
                                   + (4,)))
        factors = psi.evaluate_factors(sets)
        assert [f.shape for f in factors] == [
            (len(psi.branches), psi.mode.spinor_dim, size) for size in sizes]
        # particle k's own point index of every grid point, in C order
        index = np.indices(sizes).reshape(n, -1)
        grid = psi._combine([f[..., i] for f, i in zip(factors, index)])
        grid = grid.reshape(sizes + (psi.dim,))
        rows = psi.evaluate_batch(np.stack(np.broadcast_arrays(*slots),
                                           axis=-2))
        assert grid.shape == rows.shape == sizes + (psi.dim,)
        assert grid.flags.c_contiguous
        assert np.array_equal(grid.view(np.uint64), rows.view(np.uint64))
    # the last grid's exact zeros read +0.0
    lower = grid[..., 4:]
    assert np.all(lower == 0.0) and not np.signbit(lower.view(float)).any()


def test_evaluate_batch_of_no_rows():
    # an empty batch keeps its leading axes and gets the spin axis
    for psi in _row_independence_states():
        for lead in ((0,), (3, 0)):
            out = psi.evaluate_batch(np.zeros(lead + (2, 4)))
            assert out.shape == lead + (psi.dim,) and out.dtype == complex


def test_exact_zero_components_are_positive_zero():
    # a rest mode's lower component is exactly zero; the branch sum starts
    # from zero, so psi reads +0.0 there whatever the signs of the zero
    # products inside the factors (times -1, +0.0 becomes -0.0)
    rest = make_mode([0], 1.0, 1, 1, D11)
    psi = NParticleWavefunction.from_product_branches(
        [(-1.0, [[(1.0, rest), (-0.5j, rest)]])])
    x = np.zeros((64, 1, 4))
    x[:, 0, 0] = np.linspace(0.0, 6.0, 64)
    lower = psi.evaluate_batch(x)[:, 1]
    assert np.all(lower == 0.0)
    assert not np.any(np.signbit(lower.real) | np.signbit(lower.imag))

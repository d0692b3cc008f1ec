"""Levels, populations and the X-shaped state.

The zero-temperature ground set decided on the gap offsets is the one the levels give, around
the crossing and 3 ulps or more from the tolerance edge (within 2 ulps the two roundings can
part). _gaps' T43 and T31 are _half_offsets' halves doubled, and a beta = inf field sweep gives
the C of _ground's set, bit for bit, from the subnormal corner to float max; _ground's scale sits
on its tolerance edges to the bit. No result depends on the unit: (omega_sigma, omega_delta, J)
scaled by 2^k and beta by 2^-k, for k from -40 to 60, give bit-identical C, populations, ground
sets, line amplitudes and tau_t, and gaps scaled exactly, at beta = inf too.
The populations are exp(-beta E_i) / Z with the closed-form Z of the thermo docstring, at
beta = 0 and at finite beta. populations_for_params gives exactly 1/4 each at beta = 0 on
ordinary, zero and float-max parameters and on every set whose T31 passes float max; at
beta > 0 there the weights stay finite and the populations sum to 1. On random offsets away from
subnormals the weights of the halves are exp(-beta (o - min o)) bit for bit.
"""

import math

import numpy as np
import pytest

from spinpair import entangle, model, spectrum, thermo


def _params(omega_sigma, omega_delta, coupling=1.0):
    return model.derive_from_sigma_delta(omega_sigma, omega_delta, coupling)


def _random_levels(rng):
    params = _params(rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0))
    return thermo.energies(params, 1.0)


def test_energies_homonuclear():
    omega, j = 1.7, 1.0
    levels = thermo.energies(_params(2.0 * omega, 0.0, j), j)
    assert math.isclose(levels.e1, omega + j / 4, rel_tol=1e-14)
    assert math.isclose(levels.e2, j / 4, rel_tol=1e-14)
    assert math.isclose(levels.e3, -3 * j / 4, rel_tol=1e-14)
    assert math.isclose(levels.e4, -omega + j / 4, rel_tol=1e-14)


def test_energies_zero_hamiltonian():
    levels = thermo.energies(_params(0.0, 0.0, 0.0), 0.0)
    assert tuple(levels) == (0.0, 0.0, 0.0, 0.0)


def test_energies_hc_example():
    # omega1 = 4 omega_c with omega_c = 1, J = 1
    levels = thermo.energies(_params(5.0, 3.0), 1.0)
    assert math.isclose(levels.e2, 0.5 * (math.sqrt(10.0) - 0.5), rel_tol=1e-14)


def test_e2_minus_e3_is_d():
    rng = np.random.default_rng(2)
    for _ in range(200):
        j = rng.uniform(0.0, 5.0)
        params = _params(rng.uniform(0, 5), rng.uniform(0, 5), j)
        levels = thermo.energies(params, j)
        assert math.isclose(levels.e2 - levels.e3, params.d_coupling, rel_tol=1e-12, abs_tol=1e-12)
        assert levels.e2 >= levels.e3


def _closed_form_populations(params, beta):
    """exp(-beta E_i) / Z with Z = 2 exp(beta J/4) [exp(-beta J/2) cosh(beta omega_sigma/2)
    + cosh(beta D/2)]."""
    j = params.coupling
    z = 2.0 * math.exp(0.25 * beta * j) * (
        math.exp(-0.5 * beta * j) * math.cosh(0.5 * beta * params.omega_sigma)
        + math.cosh(0.5 * beta * params.d_coupling)
    )
    return [math.exp(-beta * e) / z for e in thermo.energies(params, j)]


def test_populations_homonuclear_zero_field():
    # beta J = ln 3 at omega = 0: each triplet weight is 3^(-1/4) and the singlet's 3^(3/4), so
    # Z = 2 3^(3/4) and the populations are 1/6 and 1/2.
    pops = thermo.populations_for_params(_params(0.0, 0.0, 1.0), 1.0, math.log(3.0))
    for p, want in zip(pops, (1 / 6, 1 / 6, 1 / 2, 1 / 6)):
        assert math.isclose(p, want, rel_tol=1e-12)


def test_populations_match_closed_form_z():
    # At beta = 0, where Z = 4, and at a beta drawn in [0, 20].
    rng = np.random.default_rng(3)
    for _ in range(500):
        ws, wd, j = rng.uniform(0, 5, size=3)
        beta = rng.uniform(0.0, 20.0)
        params = _params(ws, wd, j)
        for b in (0.0, beta):
            pops = thermo.populations_for_params(params, j, b)
            for p, want in zip(pops, _closed_form_populations(params, b)):
                assert math.isclose(p, want, rel_tol=1e-12), (params, b)


def test_populations_ground_state_dominance():
    # E3 lies 0.56 below E4, and further below E1 and E2: Z = exp(-beta E3) (1 + 5e-25), so p3
    # rounds to 1 and the others are exp(-beta (E_i - E3)).
    params = _params(1.0, 0.5)
    pops = thermo.populations_for_params(params, 1.0, 100.0)
    assert pops.p3 == 1.0
    for p, want in zip(pops, _closed_form_populations(params, 100.0)):
        assert math.isclose(p, want, rel_tol=1e-12)


def test_levels_stay_finite_near_float_max():
    # omega_sigma + J/2 overflows although omega_sigma, D and J are finite.
    params = _params(1.7e308, 0.3e308, 1e308)
    levels = thermo.energies(params, 1e308)
    assert all(map(math.isfinite, levels))
    assert levels.e1 == 0.5 * 1.7e308 + 0.25e308
    # Halving each term before the sum leaves normal-range levels unchanged.
    rng = np.random.default_rng(10)
    for _ in range(200):
        ws, wd, j = rng.uniform(0.0, 10.0, 3)
        params = _params(ws, wd, j)
        d = params.d_coupling
        old = (0.5 * (ws + 0.5 * j), 0.5 * (d - 0.5 * j), -0.5 * (d + 0.5 * j), 0.5 * (-ws + 0.5 * j))
        assert tuple(thermo.energies(params, j)) == old


def test_populations_infinite_temperature():
    levels = thermo.energies(_params(2.0, 1.0), 1.0)
    pops = thermo.populations(levels, 0.0)
    assert pops.probs == (0.25, 0.25, 0.25, 0.25)


def test_populations_zero_temperature_unique_ground():
    params = _params(1.0, 0.0, 1.0)
    levels = thermo.energies(params, 1.0)
    pops = thermo.populations(levels, math.inf)
    assert pops.probs == (0.0, 0.0, 1.0, 0.0)
    # 1 / p3 = Z exp(beta E3) tends to the ground-state multiplicity
    p3 = thermo.populations_for_params(params, 1.0, 200.0).p3
    assert math.isclose(1.0 / p3, 1.0, rel_tol=1e-12)


def test_populations_zero_temperature_degenerate_pair():
    # level crossing of the homonuclear system at omega_sigma = 2 J
    params = _params(2.0, 0.0, 1.0)
    levels = thermo.energies(params, 1.0)
    pops = thermo.populations(levels, math.inf)
    assert pops.probs == (0.0, 0.0, 0.5, 0.5)
    p3 = thermo.populations_for_params(params, 1.0, 200.0).p3
    assert math.isclose(1.0 / p3, 2.0, rel_tol=1e-12)


def test_degeneracy_scale_is_the_largest_level_magnitude():
    # The tolerance is DEGENERACY_RTOL max |E_i|, also where a negative level is largest.
    levels = thermo.EnergyLevels(-1e6, -1e6 + 5e-7, 5.0, 3.0)
    assert thermo.populations(levels, math.inf).probs == (0.5, 0.5, 0.0, 0.0)
    levels = thermo.EnergyLevels(-1e6, -1e6 + 2e-6, 5.0, 3.0)
    assert thermo.populations(levels, math.inf).probs == (1.0, 0.0, 0.0, 0.0)
    # Scales 1, D/2 + J/4 = 3 and omega_sigma/2 + J/4 = 5, in units 1 and 2^40 times finer:
    # RTOL x scale joins, the next float not. _ground judges _half_offsets at half the scale,
    # D/4 + J/8 = 1.5 and omega_sigma/4 + J/8 = 2.5, so there a half T43 of RTOL x 1.5 or 2.5 joins.
    # Through _ground itself: at omega_sigma = omega_delta = D = 1 (both terms of the scale equal)
    # E4 joins E3 up to J = RTOL, and at omega_sigma one float below omega_delta = D = 1 (the D
    # term alone) up to J = 9.998889776975377e-13. At the E3/E4 crossing of omega_delta = 1.94,
    # J = 1.61, omega_sigma = 4.131051367976288 joins: to 60 digits its half T43, 1.23400660576e-12,
    # lies below its tolerance, 1.23401284199e-12. The float below it stays out.
    below_one, up = math.nextafter(1.0, 0.0), lambda x: math.nextafter(x, math.inf)
    edges = [((1.0, 1.0, 1e-12), (1.0, 1.0, up(1e-12))),  # (joins, next float out)
             ((below_one, 1.0, 9.998889776975377e-13), (below_one, 1.0, up(9.998889776975377e-13))),
             ((4.131051367976288, 1.94, 1.61), (4.131051367976287, 1.94, 1.61))]
    for f in (1.0, 2.0**-40):
        levels = (f, f, 0.0, 1e-12 * f)
        assert thermo.populations(levels, math.inf).probs == (0.0, 0.0, 0.5, 0.5)
        levels = (f, f, 0.0, math.nextafter(1e-12 * f, 1.0))
        assert thermo.populations(levels, math.inf).probs[2] == 1.0
        params = _params(2.0 * f, 0.0, 4.0 * f)  # J = 4, omega_delta = 0: D = 4
        for omega_sigma, half_scale, half_t43 in ((2.0 * f, 1.5 * f, 1.5e-12 * f),
                                                  (8.0 * f, 2.5 * f, 2.5e-12 * f)):
            halves = thermo._half_offsets(params, omega_sigma)[:3]
            assert thermo._ground_set(halves + (half_t43,), half_scale) == [2, 3]
            assert thermo._ground_set(halves + (math.nextafter(half_t43, 1.0),), half_scale) == [2]
        for joins, out in edges:
            for case, ground in ((joins, [2, 3]), (out, [2])):
                params = _params(*(x * f for x in case))
                assert thermo._ground(params, params.omega_sigma) == ground, (case, f)
    # The scale's floor, the least normal float, makes a subnormal offset a tie, up to
    # 1e-12 float min = 2.2e-320. Halves are judged at half that floor, so an offset above it
    # stays out on both routes: at J = 3e-320 the homonuclear pair at zero field is a singlet.
    assert thermo.populations((0.0, 0.0, 0.0, 5e-324), math.inf).probs == (0.25,) * 4
    assert thermo.populations((0.0, 0.0, 0.0, 2e-320), math.inf).probs == (0.25,) * 4
    assert thermo.populations((0.0, 0.0, 0.0, 2.4e-320), math.inf).probs == (1 / 3,) * 3 + (0.0,)
    params = _params(0.0, 0.0, 3e-320)
    levels = thermo.energies(params, 3e-320)
    assert thermo.populations(levels, math.inf).probs == (0.0, 0.0, 1.0, 0.0)
    assert thermo._ground(params, 0.0) == [2]
    assert entangle.concurrence_for_params(params, 3e-320, math.inf) == 1.0


def test_populations_sum_and_range():
    rng = np.random.default_rng(4)
    for _ in range(300):
        levels = _random_levels(rng)
        beta = rng.uniform(0.0, 1e4)
        pops = thermo.populations(levels, beta)
        assert abs(sum(pops.probs) - 1.0) <= 1e-12
        assert all(0.0 <= p <= 1.0 for p in pops.probs)


def test_population_monotonicity():
    rng = np.random.default_rng(5)
    count = 0
    while count < 200:
        levels = _random_levels(rng)
        es = tuple(levels)
        if len({round(e, 12) for e in es}) < 4:
            continue
        count += 1
        beta = rng.uniform(1e-3, 50.0)
        pops = thermo.populations(levels, beta)
        order_by_energy = sorted(range(4), key=lambda i: es[i])
        ps = pops.probs
        for lower, higher in zip(order_by_energy, order_by_energy[1:]):
            assert ps[lower] > ps[higher]


def test_density_matrix_singlet():
    pops = thermo.Populations(0.0, 0.0, 1.0, 0.0)
    rho = thermo.density_matrix(pops, math.pi / 4)
    assert rho.rho11 == 0.0 and rho.rho44 == 0.0
    assert math.isclose(rho.rho22, 0.5, rel_tol=1e-14)
    assert math.isclose(rho.rho33, 0.5, rel_tol=1e-14)
    assert math.isclose(rho.rho23, -0.5, rel_tol=1e-14)


def test_density_matrix_unmixed_is_diagonal():
    pops = thermo.Populations(0.1, 0.2, 0.3, 0.4)
    rho = thermo.density_matrix(pops, 0.0)
    assert rho.rho23 == 0.0
    assert (rho.rho11, rho.rho22, rho.rho33, rho.rho44) == (0.1, 0.2, 0.3, 0.4)


def test_density_matrix_maximally_mixed():
    levels = thermo.energies(_params(2.0, 1.0), 1.0)
    rho = thermo.density_matrix(thermo.populations(levels, 0.0), 0.3)
    assert rho.rho23 == 0.0
    assert rho.to_array().diagonal().tolist() == [0.25, 0.25, 0.25, 0.25]


def test_density_matrix_trace_and_positivity():
    rng = np.random.default_rng(6)
    for _ in range(300):
        params = _params(rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5))
        j = rng.uniform(0.0, 5.0)
        params = _params(params.omega_sigma, params.omega_delta, j)
        beta = rng.uniform(0.0, 50.0)
        pops = thermo.populations(thermo.energies(params, j), beta)
        rho = thermo.density_matrix(pops, params.theta)
        assert abs(rho.rho11 + rho.rho22 + rho.rho33 + rho.rho44 - 1.0) <= 1e-12
        assert min(rho.rho11, rho.rho22, rho.rho33, rho.rho44) >= 0.0
        # central block must stay positive semidefinite
        assert rho.rho22 * rho.rho33 - rho.rho23**2 >= -1e-14
        half_gap = 0.5 * (rho.rho22 - rho.rho33)
        small_eig = 0.5 * (rho.rho22 + rho.rho33) - math.hypot(half_gap, rho.rho23)
        assert small_eig >= -1e-14


def test_density_matrix_accepts_a_sequence():
    pops = (0.1, 0.2, 0.3, 0.4)
    assert thermo.density_matrix(pops, 0.4) == thermo.density_matrix(thermo.Populations(*pops), 0.4)
    for i in range(4):  # each population at its bound 1
        pops = [float(k == i) for k in range(4)]
        assert thermo.density_matrix(pops, 0.3).to_array().trace() == 1.0


def test_populations_at_beta_zero_are_uniform_past_float_range():
    # E1 - E4 and T31 overflow, and 0 * inf would make every weight nan.
    big = 1.7976931348623157e308
    params = _params(big, 710.0, 1e308)
    levels = thermo.energies(params, 1e308)
    assert thermo.populations(levels, 0.0).probs == (0.25, 0.25, 0.25, 0.25)
    # The routes from parameters at the T31 overflows of test_failures and at ordinary, zero
    # and float-max parameters: uniform at beta = 0, and at beta > 0 finite weights, each at
    # most 1 and the least offset's exactly 1, whose populations sum to 1.
    extremes = [model.derive(model.SpinSystem(2.5879320237511028, 1e300, big)),
                model.derive(model.SpinSystem(1e308, 0.7e308, 1e308)),
                *(_params(big, wd, 1e308) for wd in (0.0, 710.0, 1e308, 1.3e308)),
                _params(1.0, 0.5), _params(0.0, 0.0, 0.0), _params(big, big), _params(5e-324, 0.0)]
    for p in extremes:
        assert thermo.populations_for_params(p, p.coupling, 0.0).probs == (0.25,) * 4, p
        for beta in (5e-324, 1e-310, 1e-300, 1.0, 1e300):
            weights = thermo._shifted_weights(thermo._half_offsets(p, p.omega_sigma), beta)
            assert all(0.0 <= w <= 1.0 for w in weights) and max(weights) == 1.0, (p, beta)
            for pops in (thermo.populations_for_params(p, p.coupling, beta),
                         thermo.populations(thermo.energies(p, p.coupling), beta)):
                assert math.isclose(sum(pops), 1.0, rel_tol=4e-16), (p, beta, pops)


def test_halved_weights_are_the_offset_weights_bit_for_bit():
    # Away from subnormals, halving and doubling are exact: exp(-beta (h - min h) 2) over the
    # halves h = o / 2 is exp(-beta (o - min o)) itself, wherever o - min o is finite.
    rng = np.random.default_rng(33)
    tiny = 2.0**-1000
    for _ in range(5000):
        scale = 10.0 ** rng.uniform(-300.0, 308.0)
        offsets = [float(x) for x in rng.choice((-1.0, 1.0), 4) * scale * rng.uniform(0.0, 1.0, 4)]
        if rng.uniform() < 0.2:
            offsets[rng.integers(4)] = 0.0
        low = min(offsets)
        if any(not (o - low == 0.0 or tiny <= o - low < math.inf) or 0.0 < abs(o) < tiny
               for o in offsets):
            continue
        # beta = 0, beta anywhere, and beta where the weights lie between 0 and 1.
        for beta in (0.0, 10.0 ** rng.uniform(-300.0, 300.0), 10.0 ** rng.uniform(-3, 3) / scale):
            want = [math.exp(-beta * (o - low)) for o in offsets]
            assert thermo._shifted_weights([0.5 * o for o in offsets], beta) == want, offsets


def test_gaps_are_the_level_differences():
    rng = np.random.default_rng(20)
    for _ in range(200):
        ws, wd, j = rng.uniform(0.0, 10.0, 3)
        params = _params(ws, wd, j)
        e1, e2, e3, e4 = thermo.energies(params, j)
        want = (e4 - e3, e1 - e2, e4 - e2, e1 - e3)
        for got, diff in zip(thermo._gaps(params), want):
            assert math.isclose(got, diff, rel_tol=1e-13, abs_tol=1e-13 * (ws + wd + j))
        # At omega_sigma = 0, E1 = E4: T43 = T31 and T21 = T42 to the bit, low parts included.
        t43, t21, t42, t31 = thermo._gaps(_params(0.0, wd, j))
        assert (t43, t21) == (t31, t42), (wd, j)


def test_gaps_do_not_cancel_at_float_max():
    # omega_sigma = omega_delta = float max at J = 1: T43 = T21 = J / 2, which
    # subtracting the levels loses entirely.
    big = 1.7976931348623157e308
    t43, t21, t42, t31 = thermo._gaps(_params(big, big, 1.0))
    assert (t43, t21, t42, t31) == (0.5, 0.5, -big, big)
    # D = J = 0: every gap is -omega_sigma / 2 or omega_sigma / 2.
    assert thermo._gaps(_params(3.0, 0.0, 0.0)) == (-1.5, 1.5, -1.5, 1.5)


def test_gap_populations_shift_the_levels_at_finite_beta():
    # The offsets E_i - E3 leave the weights as the levels give them; at beta = inf
    # they give the levels' ground set.
    for ws, wd, beta in ((1.0, 0.5, 2.0), (2.25, 0.75, 30.0), (3.0, 0.0, 0.3)):
        params = _params(ws, wd)
        gap = thermo.populations_for_params(params, 1.0, beta)
        level = thermo.populations(thermo.energies(params, 1.0), beta)
        assert all(math.isclose(a, b, rel_tol=1e-14, abs_tol=1e-16) for a, b in zip(gap, level))
    params = _params(2.25, 0.75)
    assert thermo.populations_for_params(params, 1.0, math.inf) == (0.0, 0.0, 0.5, 0.5)


def test_offset_ground_set_is_the_level_ground_set_at_the_tolerance_edge():
    # The ground set decided on the offsets (T31, D, 0, T43) against the one the
    # levels give, where the two could part: at the E3/E4 crossing omega_sigma = D + J
    # and its float neighbours, at relative distances 1e-17..1 from it, at 0 and
    # 5e-324, and with omega_delta and J from 1e-16 (where E2, and at low field E1,
    # join the ground set) up to 1e8 and 1e4. The tolerance edge lies where
    # |omega_sigma - (D + J)| = 2 DEGENERACY_RTOL scale. Within 2 ulps of it the two
    # forms, rounded differently, may part; 3 ulps and more away they must agree.
    rng = np.random.default_rng(23)
    pairs = [(0.0, 1.0), (1.0, 0.0), (0.0, 0.0), (1e-16, 1e-16), (1e8, 1.0), (1e8, 1e-16)]
    pairs += [tuple(10.0 ** rng.uniform(-16.0, (8.0, 4.0))) for _ in range(120)]
    for omega_delta, coupling in pairs:
        crossing = _params(0.0, omega_delta, coupling).d_coupling + coupling
        edge = 2.0 * thermo.DEGENERACY_RTOL * (0.5 * crossing + 0.25 * coupling)
        grid = {0.0, 5e-324, crossing, math.nextafter(crossing, 0.0),
                math.nextafter(crossing, math.inf)}
        for r in 10.0 ** rng.uniform(-17.0, 0.0, 25):
            grid.update((crossing * (1.0 - r), crossing * (1.0 + r)))
        for side in (crossing - edge, crossing + edge):
            ulp = math.ulp(max(crossing, abs(side)))
            grid.update(side + k * ulp for k in (-64, -8, -3, 3, 8, 64))
        grid = sorted(ws for ws in grid if ws >= 0.0)
        if coupling:  # a field sweep hands the kernel's own T43 to the rule
            rows = entangle.sweep("field", grid, omega_delta=omega_delta, tau=0.0, coupling=coupling)
        else:  # tau = k_B T / J needs J > 0
            rows = [(ws, entangle.concurrence_for_params(_params(ws, omega_delta, 0.0), 0.0, math.inf))
                    for ws in grid]
        for omega_sigma, (_, c) in zip(grid, rows):
            params = _params(omega_sigma, omega_delta, coupling)
            pops = thermo.populations(thermo.energies(params, coupling), math.inf)
            ground = [i for i, p in enumerate(pops) if p > 0.0]
            assert thermo._ground(params, omega_sigma) == ground, (omega_sigma, omega_delta, coupling)
            assert thermo.populations_for_params(params, coupling, math.inf) == pops
            s2 = params.sin_2theta
            assert c == (s2 if ground == [2] else 0.5 * s2 if ground == [2, 3] else 0.0)
    # One offsets form serves all three, bit for bit: _gaps' T43 and T31 are _half_offsets' halves
    # doubled (ArithmeticError where T31 passes float max), and a beta = inf field sweep gives the
    # C of _ground's set at every point, from the subnormal corner omega_sigma, D, J <= 1e-320 to
    # float max.
    big, corner = 1.7976931348623157e308, (0.0, 5e-324, 1.5e-323, 1e-321, 4e-321)
    pairs = [(wd, j) for wd in corner for j in corner] + [(1e308, 1e308), (710.0, 1e308)]
    pairs += [tuple(10.0 ** rng.uniform(-300.0, 307.0, 2)) for _ in range(60)]
    for omega_delta, coupling in pairs:
        crossing = _params(0.0, omega_delta, coupling).d_coupling + coupling
        grid = {0.0, 5e-324, 0.5 * omega_delta, omega_delta, 2.0 * omega_delta, crossing,
                math.nextafter(crossing, 0.0), math.nextafter(crossing, math.inf), big}
        grid.update(crossing * (1.0 + r) for r in 10.0 ** rng.uniform(-16.0, 0.0, 8))
        grid.update(crossing * (1.0 - r) for r in 10.0 ** rng.uniform(-16.0, 0.0, 8))
        grid.update(rng.uniform(0.0, 1e-320, 4))
        grid = sorted(ws for ws in grid if ws < math.inf)
        if coupling:
            rows = entangle.sweep("field", grid, omega_delta=omega_delta, tau=0.0, coupling=coupling)
        else:
            rows = [(ws, entangle.concurrence_for_params(_params(ws, omega_delta, 0.0), 0.0, math.inf))
                    for ws in grid]
        for omega_sigma, (_, c) in zip(grid, rows):
            params = _params(omega_sigma, omega_delta, coupling)
            half_t31, _, _, half_t43 = thermo._half_offsets(params, omega_sigma)
            if 2.0 * half_t31 == math.inf:
                with pytest.raises(ArithmeticError, match="T31 gap"):
                    thermo._gaps(params)
            else:
                t43, _, _, t31 = thermo._gaps(params)
                assert (t43, t31) == (2.0 * half_t43, 2.0 * half_t31), params
            ground, s2 = thermo._ground(params, omega_sigma), params.sin_2theta
            assert c == (s2 if ground == [2] else 0.5 * s2 if ground == [2, 3] else 0.0), params


def test_zero_temperature_past_float_range_is_the_level_route():
    # At J = 1e308, T31 = (omega_sigma + D + J) / 2 overflows (_gaps raises), while the
    # halved levels stay finite: the kernel and populations_for_params give the levels' values.
    big = 1.7976931348623157e308
    systems = [model.derive(model.SpinSystem(1e308, 0.7e308, 1e308))]
    systems += [_params(big, wd, 1e308) for wd in (0.0, 1e308, 1.3e308)]
    for params in systems:
        pops = thermo.populations(thermo.energies(params, 1e308), math.inf)
        assert thermo.populations_for_params(params, 1e308, math.inf) == pops == (0.0, 0.0, 1.0, 0.0)
        assert entangle.concurrence_for_params(params, 1e308, math.inf) == params.sin_2theta
        rows = entangle.sweep("field", [1e308, params.omega_sigma], omega_delta=params.omega_delta,
                              tau=0.0, coupling=1e308)
        assert list(rows)[-1] == (params.omega_sigma, params.sin_2theta)


def _scaled_results(omega_sigma, omega_delta, coupling, beta, f):
    # Everything that must not depend on the unit at (omega_sigma, omega_delta, J) f and beta / f,
    # with each gap and line frequency divided back by f (exact for a power of two f).
    params, j, b = _params(omega_sigma * f, omega_delta * f, coupling * f), coupling * f, beta / f
    lines = spectrum.simulate_spectrum(params, b, math.pi / 2)
    return (
        entangle.concurrence_for_params(params, j, b),
        thermo.populations_for_params(params, j, b),
        thermo.populations(thermo.energies(params, j), b),
        thermo._ground(params, params.omega_sigma),
        [(line.amplitude, line.frequency / f) for line in lines],
        [g / f for g in thermo._gaps(params)],
        entangle.threshold_tau(omega_delta * f, j),
    )


def test_results_do_not_depend_on_the_unit():
    # Scaling (omega_sigma, omega_delta, J) by 2^k and beta by 2^-k is exact in floats, and
    # each beta gap, J / D and every ratio of frequencies is the same float: C, populations,
    # ground set, line amplitudes and tau_t are bit-identical, each gap scales exactly. A
    # degeneracy tolerance fixed in one unit would show at beta = inf: the pair below is a
    # singlet (C = 1) in every unit, though its gaps, about J, fall below 1e-12 at k = -40.
    rng = np.random.default_rng(31)
    cases = [(0.002217498673316992, 0.0, 0.4096668797715603, math.inf)]
    for _ in range(200):
        omega_delta, coupling = map(float, 10.0 ** rng.uniform(-3.0, 3.0, 2))
        crossing = _params(0.0, omega_delta, coupling).d_coupling + coupling
        # About the E3/E4 crossing, out to a few tolerance widths, or anywhere up to 1e3.
        omega_sigma = [crossing * (1.0 + rng.uniform(-5e-12, 5e-12)),
                       crossing * (1.0 + rng.uniform(-1e-6, 1e-6)),
                       10.0 ** rng.uniform(-3.0, 3.0)][rng.integers(3)]
        if rng.uniform() < 0.1:  # homonuclear, or uncoupled
            omega_delta, coupling = [(0.0, coupling), (omega_delta, 0.0)][rng.integers(2)]
        for beta in (math.inf, 0.0, 10.0 ** rng.uniform(-3.0, 3.0)):
            cases.append((omega_sigma, omega_delta, coupling, beta))
    for case in cases:
        want = _scaled_results(*case, 1.0)
        for k in (-40, -7, 1, 9, 60):
            assert _scaled_results(*case, 2.0**k) == want, (case, k)
    assert _scaled_results(*cases[0], 2.0**-40)[:2] == (1.0, (0.0, 0.0, 1.0, 0.0))

"""Closed forms against a 60-digit mpmath reference over the whole input domain.

omega_sigma and omega_delta are drawn log-uniform in [1e-3, 1e8], together
with the points where the gaps are ill-conditioned: omega_sigma close to
omega_delta, omega_sigma = 0 with omega_delta << J, and omega_sigma near the
E3/E4 crossing D + J and the E1/E2 crossing |D - J|. beta is log-uniform in
[1e-3, 1e3], at J = 1; the reference takes the same float inputs as exact.

The public level route rounds the levels, which perturbs each Boltzmann
exponent by about eps * beta * |E|, so its bounds are multiples of eps * cond
with cond = 1 + beta (omega_sigma + D + J). The gap routes (the concurrence
kernel and the populations the CLI prints) round only the gaps, and only
T43 = E4 - E3 moves the weights that matter: their bound is eps * gap_cond with
gap_cond = 1 + beta (|E4 - E3| + J). The J is margin: T43 itself keeps its
digits at the E3/E4 crossing, as the line frequencies below show. The
multiples are about four times the largest normalised errors seen on 3e3 hypothesis
examples plus 2.5e4 random points: populations 0.27 absolute and 1.0
relative, ratio-form C 0.21 absolute, population-form C 0.18 absolute. On gap_cond, which is never above cond, the gap-route
populations reached 0.50 and C 0.25 absolute and 2.5 relative to kappa on
2.5e4 random points of this sample; their multiples are 1, 1 and 8, so that
no absolute bound is looser than the one it replaces. The line frequencies
are within 8 eps of their 60-digit values relative to the gap, floored at
2^-50 max(omega_sigma, omega_delta, J) and at the least normal float, also at
both crossings and their float neighbours with omega_delta and J drawn over
[1e-300, float max]; they are the |gap| that thermo._gaps forms and simulate_spectrum
returns.
The gap-route bounds also hold at high field, omega_delta up to 1e8 with
omega_sigma a few J from either crossing, where a difference of two rounded
levels keeps 8 digits: the public routes from parameters must not take one.
The same bounds hold at omega_sigma = float max, omega_delta = 710, J = 1e308 and
beta = 1e-310, 1e-309, where E1 - E3 = T31 passes float max and every population is
about 1/4, for the populations from parameters and for the level route; and at
J = float max, omega_delta = 6.9e298, where T43 rounds to float max and the sum of its halves
past it, for the populations and C at beta = 0, 5e-309 and 1e-308. They hold as well where
Z = sum exp(-beta E_i) would leave float range or come near its edge, which the shifted weights
never form: at log Z = log(float max) and one float past it, near and past it at J = 1, and on
each set whose T31 passes float max, at beta = 1e-308 and beta = 1. Where beta times the gaps
passes 1/eps the bound says nothing; there the populations equal the 60-digit ones exactly.
The line amplitudes at phi = pi/2 are within 12 eps gap_cond of the sum of
the magnitudes of their three terms (2.8 seen on 7.5e4 random points, with
omega_delta << J and small beta gap drawn on purpose). At phi = pi/2 the
weights sin^2(phi/2) and cos^2(phi/2) are equal; a small phi would scale the
bound by their ratio cot^2(phi/2).
The observables route is checked step by step against the 60-digit value of
its own float inputs: polarizations within 4 eps, reconstruct_populations within
4 eps (1 + |P1z - P2z| / |cos 2theta|), concurrence_from_observables within the
bound on 16 p1 p4 of bench/reference.py::observables_tolerance. Each multiple
is twice or more the worst case of the step's roundings.
The threshold tau_t is checked against a 50-digit root of the entanglement gap.
The crossing coupling and the critical omega_sigma, over [1e-300, 1e300], are
within 2 eps relative of their 60-digit values, or within the smallest
subnormal where those are subnormal.
"""

import math
import random
import sys

import pytest

from spinpair import critical, entangle, model, observe, spectrum, thermo

mp = pytest.importorskip("mpmath").mp
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = sys.float_info.epsilon
P_ABS, P_REL = 1.0, 4.0
C_REL = 2.0
GAP_P_ABS, GAP_C_ABS, GAP_C_REL = 1.0, 1.0, 8.0
FREQ = 8.0
C_POP_ABS = 1.0
AMP, AMP_PHI = 12.0, 0.5 * math.pi
OBS, REC, C_OBS = 4.0, 4.0, 8.0


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _mp_state(omega_sigma, omega_delta, beta, coupling=1.0):
    """D, the levels and the populations as mpf at the working precision."""
    ws, wd, b, j = (mp.mpf(v) for v in (omega_sigma, omega_delta, beta, coupling))
    d = mp.sqrt(wd * wd + j * j)
    levels = [(ws + j / 2) / 2, (d - j / 2) / 2, -(d + j / 2) / 2, (-ws + j / 2) / 2]
    emin = min(levels)
    weights = [mp.exp(-b * (e - emin)) for e in levels]
    total = mp.fsum(weights)
    return d, levels, [w / total for w in weights]


def _reference(omega_sigma, omega_delta, beta):
    """Populations, C, C's cancellation factor and |E4 - E3|, to 60 digits."""
    with mp.workdps(60):
        b, j = mp.mpf(beta), mp.mpf(1)
        d, levels, ps = _mp_state(omega_sigma, omega_delta, beta)
        c = abs(ps[1] - ps[2]) * (j / d) - 2 * mp.sqrt(ps[0] * ps[3])
        # C's numerator is sinh(beta D/2) sin 2theta - exp(-beta J/2).
        gain, loss = mp.sinh(b * d / 2) * j / d, mp.exp(-b * j / 2)
        kappa = (gain + loss) / abs(gain - loss)
        return (
            [float(p) for p in ps],
            float(max(c, 0)),
            float(kappa),
            float(abs(levels[3] - levels[2])),
        )


def _near(centre, rel):
    """centre scaled by 1 +- rel, never below 0."""
    return st.tuples(st.sampled_from((-1.0, 1.0)), rel).map(
        lambda sr: max(0.0, centre * (1.0 + sr[0] * sr[1]))
    )


def _crossing_pairs(crossing):
    """(omega_sigma, omega_delta) with omega_sigma near crossing(D) at J = 1."""
    return _log_uniform(1e-3, 1e8).flatmap(
        lambda wd: st.tuples(_near(crossing(math.hypot(wd, 1.0)), _log_uniform(1e-17, 1e-4)),
                             st.just(wd))
    )


_SPAN = _log_uniform(1e-3, 1e8)
# The input domain with the points where a gap is ill-conditioned drawn on purpose.
OMEGA_PAIRS = st.one_of(
    st.tuples(_SPAN, _SPAN),
    _SPAN.flatmap(lambda wd: st.tuples(_near(wd, _log_uniform(1e-16, 1e-3)), st.just(wd))),
    st.tuples(st.just(0.0), _log_uniform(1e-6, 1e-2)),
    _crossing_pairs(lambda d: d + 1.0),
    _crossing_pairs(lambda d: abs(d - 1.0)),
)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=600, database=None)
# At J = omega_delta = 1, beta = 100 these put the exact log Z at 709.70,
# 709.775, 709.785 and 709.85, on both sides of log(float max) = 709.78,
# which the shifted weights of the populations never form.
@hypothesis.example(pair=(14.694, 1.0), beta=100.0)
@hypothesis.example(pair=(14.6955, 1.0), beta=100.0)
@hypothesis.example(pair=(14.6957, 1.0), beta=100.0)
@hypothesis.example(pair=(14.697, 1.0), beta=100.0)
# Exact homonuclear points, where concurrence_homonuclear must take the same
# route: below, at (omega_sigma = 2 J) and above the crossing, and near beta J = ln 3.
@hypothesis.example(pair=(1.0, 0.0), beta=5.0)
@hypothesis.example(pair=(2.0, 0.0), beta=100.0)
@hypothesis.example(pair=(2.5, 0.0), beta=1000.0)
@hypothesis.example(pair=(0.01, 0.0), beta=1.1)
@hypothesis.example(pair=(1e4, 0.0), beta=1e-3)
# The points of the CLI's concurrence and spectrum reproducers.
@hypothesis.example(pair=(100000000.01, 99999999.99), beta=1.0)
@hypothesis.example(pair=(0.0, 1e-6), beta=1.0)
@hypothesis.given(pair=OMEGA_PAIRS, beta=_log_uniform(1e-3, 1e3))
def test_closed_forms_match_mpmath(pair, beta):
    omega_sigma, omega_delta = pair
    ps_ref, c_ref, kappa, t43 = _reference(omega_sigma, omega_delta, beta)
    params = model.derive_from_sigma_delta(omega_sigma, omega_delta, 1.0)
    tol = EPS * (1.0 + beta * (omega_sigma + params.d_coupling + 1.0))
    gap_tol = EPS * (1.0 + beta * (t43 + 1.0))
    # The level route, kept for the benchmark until it goes.
    _check_level_populations(thermo.populations(thermo.energies(params, 1.0), beta), ps_ref, tol)
    # The public route, whose populations concurrence and spectrum print, takes the gaps.
    pops = thermo.populations_for_params(params, 1.0, beta)
    _check_gap_populations(pops, ps_ref, gap_tol, tol)
    c = entangle.concurrence_for_params(params, 1.0, beta)
    assert abs(c - c_ref) <= GAP_C_ABS * gap_tol, (c, c_ref)
    if c_ref >= sys.float_info.min:
        assert abs(c - c_ref) <= C_REL * tol * kappa * c_ref, (c, c_ref, kappa)
        assert abs(c - c_ref) <= GAP_C_REL * gap_tol * kappa * c_ref, (c, c_ref, kappa)
    if omega_delta == 0.0:
        assert entangle.concurrence_homonuclear(0.5 * omega_sigma, 1.0, beta) == c
    c_pop = entangle.concurrence_from_populations(pops, params.theta)
    assert abs(c_pop - c_ref) <= C_POP_ABS * tol, (c_pop, c_ref)


def _check_level_populations(pops, ps_ref, tol):
    for p, ref in zip(pops, ps_ref):
        err = abs(p - ref)
        assert err <= P_ABS * tol, (p, ref)
        assert ref < sys.float_info.min or err <= P_REL * tol * ref, (p, ref)


def _check_gap_populations(pops, ps_ref, gap_tol, tol):
    for p, ref in zip(pops, ps_ref):
        err = abs(p - ref)
        assert err <= GAP_P_ABS * gap_tol, (p, ref)
        assert ref < sys.float_info.min or err <= P_REL * tol * ref, (p, ref)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
@hypothesis.example(pair=(100000000.01, 99999999.99))
@hypothesis.example(pair=(0.0, 1e-6))
@hypothesis.given(pair=OMEGA_PAIRS)
def test_line_frequencies_match_mpmath(pair):
    params = model.derive_from_sigma_delta(*pair, 1.0)
    freqs = _frequencies(params)
    lines = spectrum.simulate_spectrum(params, 1.0)
    assert [(line.transition, line.frequency) for line in lines] == list(freqs.items())
    _check_frequencies(freqs, *pair)


def _frequencies(params):
    """{line: |E_outer - E_inner|} from thermo._gaps, the frequencies of simulate_spectrum."""
    return {name: abs(gap) for name, gap in zip(spectrum.TRANSITIONS, thermo._gaps(params))}


def _check_frequencies(freqs, omega_sigma, omega_delta, coupling=1.0):
    """Each line frequency within FREQ eps of its 60-digit value, relative to the gap, floored at
    2^-50 max(omega_sigma, omega_delta, J) and at the least normal float."""
    floor = max(2.0**-50 * max(omega_sigma, omega_delta, coupling), sys.float_info.min)
    with mp.workdps(60):
        ws, wd, j = (mp.mpf(v) for v in (omega_sigma, omega_delta, coupling))
        d = mp.sqrt(wd * wd + j * j)
        want = [abs(d + j - ws) / 2, abs(ws - d + j) / 2, (ws + d - j) / 2, (ws + d + j) / 2]
        for (name, got), ref in zip(freqs.items(), want):
            assert abs(got - ref) <= FREQ * EPS * max(ref, floor), (name, got, ref)


def _crossing_points(wd_j_k):
    """(omega_sigma, omega_delta, J) with omega_sigma at D + J or |D - J|, or a float neighbour."""
    wd, j, k = wd_j_k
    d = math.hypot(wd, j)
    crossing = (d + j, abs(d - j))[k % 2]
    return ([math.nextafter(crossing, 0.0), crossing, math.nextafter(crossing, math.inf)][k // 2],
            wd, j)


_FULL = _log_uniform(1e-300, sys.float_info.max)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
# The paper's critical point, the E1/E2 crossing of the CLI's T21 reproducer, T21 near float max,
# T43 rounding to float max, and omega_delta / D below 2^-537 at omega_sigma = 0.
@hypothesis.example(point=(2.414213562373095, 1.0, 1.0))
@hypothesis.example(point=(0.6666666666666666, 1.3333333333333333, 1.0))
@hypothesis.example(point=(6e307, 1e308, 1.3e308))
@hypothesis.example(point=(1.716325371635124e150, 6.915936136574687e298, sys.float_info.max))
@hypothesis.example(point=(0.0, 1.7084795795017473e-37, 4.5756703909163665e163))
@hypothesis.given(point=st.tuples(_FULL, _FULL, st.integers(0, 5)).map(_crossing_points).filter(
    lambda p: math.isfinite(p[0]) and math.isfinite(math.hypot(p[1], p[2]))))
def test_line_frequencies_match_mpmath_at_both_crossings(point):
    params = model.derive_from_sigma_delta(*point)
    try:
        freqs = _frequencies(params)
    except ArithmeticError as exc:
        assert "T31" in str(exc), exc
        with mp.workdps(60):
            ws, wd, j = map(mp.mpf, point)
            assert (ws + mp.sqrt(wd * wd + j * j) + j) / 2 > sys.float_info.max, point
        return
    _check_frequencies(freqs, *point)
    if point == (6e307, 1e308, 1.3e308):
        assert abs(freqs["T21"] - 1.2993902665716373e307) <= math.ulp(1.2993902665716373e307)


# omega_delta = 1e8, J = 1, omega_sigma = D + J + 1/2, beta = 10: the level route's
# p3 and T43, T21 are 0.07585818002124 and 0.25, 1.25 here.
_HIGH_FIELD = (math.hypot(1e8, 1.0) + 1.5, 1e8, 10.0)


def _high_field_points():
    """(omega_sigma, omega_delta, beta) with omega_delta >> J = 1 and omega_sigma a few J from
    either crossing, D + J or D - J, but never on it."""
    rng = random.Random(32)
    points = [_HIGH_FIELD]
    for _ in range(30):
        omega_delta = 10.0 ** rng.uniform(4.0, 8.0)
        crossing = math.hypot(omega_delta, 1.0) + rng.choice((1.0, -1.0))
        offset = rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-1.0, 0.5)
        points.append((crossing + offset, omega_delta, 10.0 ** rng.uniform(-9.0, 2.0)))
    return points


def test_high_field_state_matches_mpmath():
    # Each level is about omega_delta / 2, so a difference of two rounded levels keeps
    # only the digits below 1e-16 omega_delta: 8 of them at omega_delta = 1e8. The
    # routes from parameters take the gaps themselves and must meet the gap-route bounds.
    for omega_sigma, omega_delta, beta in _high_field_points():
        ps_ref, _, _, t43 = _reference(omega_sigma, omega_delta, beta)
        params = model.derive_from_sigma_delta(omega_sigma, omega_delta, 1.0)
        tol = EPS * (1.0 + beta * (omega_sigma + params.d_coupling + 1.0))
        gap_tol = EPS * (1.0 + beta * (t43 + 1.0))
        _check_gap_populations(thermo.populations_for_params(params, 1.0, beta), ps_ref, gap_tol,
                               tol)
        _check_frequencies(_frequencies(params), omega_sigma, omega_delta)
    # The 60-digit values at _HIGH_FIELD.
    params = model.derive_from_sigma_delta(*_HIGH_FIELD[:2], 1.0)
    freqs = _frequencies(params)
    assert math.isclose(freqs["T43"], 0.2499999975, rel_tol=1e-15)
    assert math.isclose(freqs["T21"], 1.2499999975, rel_tol=1e-15)
    p3 = thermo.populations_for_params(params, 1.0, _HIGH_FIELD[2]).p3
    assert math.isclose(p3, 0.0758581817738365, rel_tol=1e-14)


# omega_sigma = float max, omega_delta = 710, J = 1e308: E1 - E3 = T31 passes float max, while at
# beta = 1e-310 every population is about 1/4. The 60-digit state there.
_PAST_MAX = (sys.float_info.max, 710.0, 1e308)
_PAST_MAX_STATE = (0.247137018633898, 0.249368414632590, 0.251874608865161, 0.251619957868350)


def test_state_past_float_max_matches_mpmath():
    # A difference of two levels, or T31 itself, leaves float range here; a difference of
    # halves does not. Each route must meet its bounds.
    omega_sigma, _, coupling = _PAST_MAX
    params = model.derive_from_sigma_delta(*_PAST_MAX)
    for beta in (1e-310, 1e-309):
        with mp.workdps(60):
            _, levels, ps = _mp_state(*_PAST_MAX[:2], beta, coupling)
            ps_ref = [float(p) for p in ps]
            t43 = float(abs(levels[3] - levels[2]))
        tol = EPS * (1.0 + beta * (omega_sigma + params.d_coupling + coupling))
        gap_tol = EPS * (1.0 + beta * (t43 + coupling))
        pops = thermo.populations_for_params(params, coupling, beta)
        _check_gap_populations(pops, ps_ref, gap_tol, tol)
        _check_level_populations(thermo.populations(thermo.energies(params, coupling), beta),
                                 ps_ref, tol)
        if beta == 1e-310:
            assert all(math.isclose(p, w, rel_tol=1e-14) for p, w in zip(pops, _PAST_MAX_STATE))


# J = float max, omega_delta = 6.9e298: E4 - E3 = T43 = (J + D - omega_sigma) / 2 rounds to float max,
# and the sum J / 2 + (D - omega_sigma) / 2 of its halves would round past it. At beta = 1e-308 the
# 60-digit C is 0.335967904885.
_T43_AT_MAX = (1.716325371635124e150, 6.915936136574687e298, sys.float_info.max)


def test_state_where_t43_rounds_to_float_max_matches_mpmath():
    # T43 is formed from halves: the populations and C meet their bounds at each beta, and
    # the line frequencies give T43 as float max.
    omega_sigma, omega_delta, coupling = _T43_AT_MAX
    params = model.derive_from_sigma_delta(*_T43_AT_MAX)
    for beta in (0.0, 5e-309, 1e-308):
        with mp.workdps(60):
            d, levels, ps = _mp_state(*_T43_AT_MAX[:2], beta, coupling)
            c_ref = float(max(abs(ps[1] - ps[2]) * (coupling / d) - 2 * mp.sqrt(ps[0] * ps[3]), 0))
            ps_ref = [float(p) for p in ps]
            # T43 + J and omega_sigma + D + J pass float max: the bounds are formed here.
            b, j = mp.mpf(beta), mp.mpf(coupling)
            tol = float(EPS * (1 + b * (mp.mpf(omega_sigma) + d + j)))
            gap_tol = float(EPS * (1 + b * (abs(levels[3] - levels[2]) + j)))
        _check_gap_populations(thermo.populations_for_params(params, coupling, beta), ps_ref,
                               gap_tol, tol)
        c = entangle.concurrence_for_params(params, coupling, beta)
        assert abs(c - c_ref) <= GAP_C_ABS * gap_tol, (beta, c, c_ref)
    assert math.isclose(c, 0.335967904885, rel_tol=1e-11), c
    freqs = _frequencies(params)
    assert freqs["T43"] == sys.float_info.max, freqs


# (omega_sigma, omega_delta, J, beta) where Z leaves float range or comes near its edge: log Z =
# -beta E3 = log(float max) and the float after it at omega_sigma = J = 0, D = 2; Z near float max
# at omega_sigma = 14.4 and 14.69, J = omega_delta = 1, beta = 100, past it at 14.8, and at
# omega_sigma = J = 1e10, beta = 1e300; and each set whose T31 = (omega_sigma + D + J) / 2 passes
# float max, where Z is about exp(0.9e308) at beta = 1.
_T31_PAST_MAX = [(1e300, 1e300, sys.float_info.max), (1.7e308, 3e307, 1e308),
                 *((sys.float_info.max, wd, 1e308) for wd in (0.0, 1e308, 1.3e308)),
                 (1.7e308, 1e300, 1.7e308)]
_Z_PAST_FLOAT_RANGE = [
    (0.0, 2.0, 0.0, 709.782712893384), (0.0, 2.0, 0.0, math.nextafter(709.782712893384, math.inf)),
    (14.4, 1.0, 1.0, 100.0), (14.69, 1.0, 1.0, 100.0), (14.8, 1.0, 1.0, 100.0),
    (1e10, 1.0, 1e10, 1e300),
    *((*point, beta) for point in _T31_PAST_MAX for beta in (1e-308, 1.0)),
]


@pytest.mark.parametrize("omega_sigma, omega_delta, coupling, beta", _Z_PAST_FLOAT_RANGE)
def test_populations_where_z_leaves_float_range_match_mpmath(omega_sigma, omega_delta, coupling,
                                                              beta):
    params = model.derive_from_sigma_delta(omega_sigma, omega_delta, coupling)
    with mp.workdps(60):
        d, levels, ps = _mp_state(omega_sigma, omega_delta, beta, coupling)
        ps_ref = [float(p) for p in ps]
        b, j = mp.mpf(beta), mp.mpf(coupling)
        tol = float(EPS * (1 + b * (mp.mpf(omega_sigma) + d + j)))
        gap_tol = float(EPS * (1 + b * (abs(levels[3] - levels[2]) + j)))
    pops = thermo.populations_for_params(params, coupling, beta)
    _check_gap_populations(pops, ps_ref, gap_tol, tol)
    if gap_tol >= 1.0:
        assert pops.probs == tuple(ps_ref), (pops, ps_ref)


def _amplitude_reference(omega_sigma, omega_delta, beta):
    """Each line's amplitude at phi = pi/2 and the sum of its three terms' magnitudes."""
    with mp.workdps(60):
        d, _, p = _mp_state(omega_sigma, omega_delta, beta)
        c, s = mp.mpf(omega_delta) / d, 1 / d
        sp2 = mp.sin(mp.mpf(AMP_PHI) / 2) ** 2
        pre = -mp.sin(mp.mpf(AMP_PHI)) / 2
        cross = pre * sp2 * c * c * (p[2] - p[1])
        want = {}
        for name, (outer, inner) in spectrum._LINES.items():
            w = sp2 if outer == 3 else 1 - sp2
            r = pre * (1 + s if inner == 1 else 1 - s)
            terms = (w * r * (p[inner] - p[0]), cross if abs(outer - inner) == 2 else -cross,
                     (1 - w) * r * (p[3] - p[inner]))
            want[name] = (mp.fsum(terms), float(sum(map(abs, terms))))
        return want


# omega_delta << J and small beta gap drawn on purpose: omega_sigma = 0 puts
# T21 = T42 near omega_delta^2 / 4, and beta reaches 1e-3.
AMPLITUDE_PAIRS = st.one_of(
    st.tuples(st.one_of(st.just(0.0), _log_uniform(1e-3, 1e3)), _log_uniform(1e-6, 1e3)),
    OMEGA_PAIRS,
)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200, database=None)
# The CLI's two low-field reproducers, and exact zeros at omega_sigma = omega_delta = 0.
@hypothesis.example(pair=(0.0, 1e-6), beta=1.0)
@hypothesis.example(pair=(0.0, 1.091766587011041e-06), beta=1.0 / 758.0372)
@hypothesis.example(pair=(0.0, 0.0), beta=1.0)
@hypothesis.given(pair=AMPLITUDE_PAIRS, beta=_log_uniform(1e-3, 1e3))
def test_line_amplitudes_match_mpmath(pair, beta):
    omega_sigma, omega_delta = pair
    params = model.derive_from_sigma_delta(omega_sigma, omega_delta, 1.0)
    gap_tol = EPS * (1.0 + beta * (abs(thermo._gaps(params)[0]) + 1.0))
    lines = spectrum.simulate_spectrum(params, beta, AMP_PHI)
    for line, (want, scale) in zip(lines, _amplitude_reference(*pair, beta).values()):
        assert abs(line.amplitude - want) <= AMP * gap_tol * scale, (line, want, scale)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
# p1 p4 -> 0, where the radicand 16 p1 p4 cancels; cos 2theta = 1e-6; a homonuclear point.
@hypothesis.example(pair=(1e4, 1.0), beta=1e3)
@hypothesis.example(pair=(0.0, 1e-6), beta=1.0)
@hypothesis.example(pair=(1.0, 0.0), beta=5.0)
@hypothesis.given(pair=OMEGA_PAIRS, beta=_log_uniform(1e-3, 1e3))
def test_observables_match_mpmath(pair, beta):
    params = model.derive_from_sigma_delta(*pair, 1.0)
    pops, theta = thermo.populations_for_params(params, 1.0, beta), params.theta
    obs = observe.polarizations(pops, theta)
    with mp.workdps(60):
        p1, p2, p3, p4 = map(mp.mpf, pops)
        c, tan = mp.cos(2 * mp.mpf(theta)), mp.tan(2 * mp.mpf(theta))
        for got, want in zip(obs, (p1 - p4 + (p2 - p3) * c, p1 - p4 + (p3 - p2) * c,
                                   p1 + p4 - p2 - p3)):
            assert abs(got - want) <= OBS * EPS, (got, want)
        if abs(c) < observe.SINGULAR_COS2THETA:
            return
        q1, q2, q12 = map(mp.mpf, obs)
        skew = (q1 - q2) / c
        want = [(1 + q1 + q2 + q12) / 4, (1 - q12 + skew) / 4, (1 - q12 - skew) / 4,
                (1 - q1 - q2 + q12) / 4]
        bound = REC * EPS * (1 + float(abs(skew)))
        for got, ref in zip(observe.reconstruct_populations(obs, theta), want):
            assert abs(got - min(max(ref, 0), 1)) <= bound, (got, ref)
        # A rounding d_rad of the radicand moves its root by min(sqrt(d_rad), d_rad / 2 root).
        radicand = (1 + q12) ** 2 - (q1 + q2) ** 2
        root, gain = mp.sqrt(max(radicand, 0)), abs(q1 - q2) * abs(tan)
        d_rad = C_OBS * EPS * ((1 + q12) ** 2 + (q1 + q2) ** 2)
        d_root = min(mp.sqrt(d_rad), d_rad / (2 * root)) if root else mp.sqrt(d_rad)
        bound = float((d_root + C_OBS * EPS * (gain + root)) / 2)
        want = max(gain - root, 0) / 2
        got = observe.concurrence_from_observables(obs, theta)
        assert abs(got - want) <= bound, (got, want, bound)


def _mp_threshold_x(s):
    """The root x* = beta* D / 2 of s sinh(x) - exp(-x s), for an mpf s, at the working precision."""
    return mp.findroot(
        lambda x: s * mp.sinh(x) - mp.exp(-x * s),
        (mp.asinh(mp.exp(-2) / s), mp.asinh(2 / s)),
        solver="anderson",
    )


def _mp_threshold_tau(omega_delta, coupling):
    """tau_t = 1 / (beta* J) from the 50-digit root x*."""
    with mp.workdps(50):
        wd, j = mp.mpf(omega_delta), mp.mpf(coupling)
        s = j / mp.sqrt(wd * wd + j * j)
        return float(1 / (2 * _mp_threshold_x(s) * s))


# omega_delta / J up to 8e307, where the start asinh(1 / s) nears
# log(float max); J from 1e-300 up to float max, with D finite.
# The ratio alone sets tau_t.
@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
@hypothesis.example(pair=(0.0, 1.0))
@hypothesis.example(pair=(1.0, 1.0))
@hypothesis.example(pair=(1e26, 1.0))
@hypothesis.example(pair=(1e30, 1.0))
@hypothesis.example(pair=(1e300, 1.0))
@hypothesis.example(pair=(1.0, 1e-300))
# At J <= 3e-308 (s = J) the root beta_hat / 2 lies within 1 of
# log(float max) = 709.78.
@hypothesis.example(pair=(1.0, 3e-308))
@hypothesis.example(pair=(1.0, 2e-308))
@hypothesis.example(pair=(1.0, 1.5e-308))
# D near float max: tau_t depends on s alone, because the root is solved at
# unit splitting D = 1, J = s and tau_t = 1 / (beta_hat s); at the actual D
# the slope of the gap would overflow and beta* would be subnormal.
@hypothesis.example(pair=(0.0, 1e308))
@hypothesis.example(pair=(0.0, 1.7e308))
@hypothesis.example(pair=(0.0, sys.float_info.max))
@hypothesis.example(pair=(0.0, 1.7317192461649184e308))
@hypothesis.example(pair=(1e308, 2.0))
# J subnormal, where the root is the start 2 asinh(1 / s) to
# rounding, down to s = J = 5.562684646268013e-309, whose 1 / s lies 15 ulp
# below float max.
@hypothesis.example(pair=(1.0, 1.2e-308))
@hypothesis.example(pair=(1.0, 1.11254e-308))
@hypothesis.example(pair=(1.0, 6e-309))
@hypothesis.example(pair=(1.0, 5.57e-309))
@hypothesis.example(pair=(1.0, 5.562684646268013e-309))
@hypothesis.example(pair=(678176.1171011522, 7.544959748128799e-303))
@hypothesis.example(pair=(0.0, 1e-300))
@hypothesis.given(
    pair=st.tuples(
        st.one_of(st.just(0.0), _log_uniform(1e-3, 8e307)),
        _log_uniform(1e-300, sys.float_info.max),
    )
    .map(lambda rj: (rj[0] * rj[1], rj[1]))
    .filter(lambda pair: math.isfinite(math.hypot(*pair)))
)
def test_threshold_matches_mpmath(pair):
    omega_delta, coupling = pair
    want = _mp_threshold_tau(omega_delta, coupling)
    got = entangle.threshold_tau(omega_delta, coupling)
    assert math.isclose(got, want, rel_tol=1e-15), (got, want)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
@hypothesis.example(s=1.0)
@hypothesis.example(s=1e-16)
@hypothesis.example(s=1e-17)
@hypothesis.example(s=5.56268464626801e-309)
@hypothesis.given(s=_log_uniform(5.57e-309, 1.0))
def test_threshold_newton_starts_at_or_above_the_root(s):
    # The start 2 asinh(1 / s) lies above the root, or within rounding of it
    # where the float gap there is already <= 0 and the start is returned.
    start = 2.0 * math.asinh(1.0 / s)
    with mp.workdps(50):
        root = 2 * _mp_threshold_x(mp.mpf(s))
        assert start >= root - math.ulp(start), (s, start, root)
    if s >= 1e-16:
        assert entangle.entanglement_gap(start, s) > 0.0
    assert entangle.threshold_beta(s) <= start


def test_subnormal_concurrence_is_resolved():
    # Two tau-scan points where C is subnormal, not 0, and keeps the digits the
    # subnormal range allows: the ratio-form denominator just below float max,
    # and beyond it (bench scan 37 of seed 1), where its growing term exp(a),
    # a = 729.5, overflows and C = num exp(-a) = 1.44e-317.
    for omega_sigma, omega_delta, tau in (
        (3.5077, 0.36347, 0.001017),
        (3.507696550576163, 0.363465299581727, 0.0009895177440392843),
    ):
        beta = 1.0 / tau
        _, c_ref, _, _ = _reference(omega_sigma, omega_delta, beta)
        params = model.derive_from_sigma_delta(omega_sigma, omega_delta, 1.0)
        c = entangle.concurrence_for_params(params, 1.0, beta)
        assert 0.0 < c_ref < sys.float_info.min
        assert math.isclose(c, c_ref, rel_tol=1e-12, abs_tol=1e-323), (c, c_ref)


# Two frequencies log-uniform over [1e-300, 1e300], drawn independently or
# the second as the first times a ratio in [1e-3, 1e3].
_WIDE = _log_uniform(1e-300, 1e300)
_FREQUENCY_PAIRS = st.one_of(
    st.tuples(_WIDE, _WIDE),
    st.tuples(_WIDE, _log_uniform(1e-3, 1e3)).map(lambda xr: (xr[0], xr[0] * xr[1])),
)


def _assert_rounded(got, want):
    """got is within 2 eps of the mpf want relative, or 1 subnormal step where want is subnormal."""
    bound = 2 * EPS * abs(want) if abs(want) >= sys.float_info.min else 5e-324
    assert abs(got - want) <= bound, (got, want)


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
@hypothesis.example(pair=(5e-324, 1.0))
@hypothesis.example(pair=(1e-310, 3e-310))
@hypothesis.example(pair=(1.0, 1.0))
@hypothesis.example(pair=(sys.float_info.max, sys.float_info.max))
@hypothesis.example(pair=(1e-300, sys.float_info.max))
@hypothesis.given(pair=_FREQUENCY_PAIRS)
def test_crossing_coupling_matches_mpmath(pair):
    omega1, omega2 = pair
    with mp.workdps(60):
        a, b = mp.mpf(omega1), mp.mpf(omega2)
        _assert_rounded(critical.crossing_coupling(omega1, omega2), 2 * a * b / (a + b))
        _assert_rounded(critical.crossing_coupling(omega2, omega1), 2 * a * b / (a + b))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
@hypothesis.example(pair=(0.0, 1.0))
@hypothesis.example(pair=(5e-324, 5e-324))
@hypothesis.example(pair=(1.0, 5e-324))
@hypothesis.example(pair=(1e-310, 3e-310))
@hypothesis.example(pair=(1e308, 1e-300))
@hypothesis.given(pair=_FREQUENCY_PAIRS)
def test_critical_omega_sigma_matches_mpmath(pair):
    omega_delta, coupling = pair
    with mp.workdps(60):
        wd, j = mp.mpf(omega_delta), mp.mpf(coupling)
        want = j + mp.sqrt(wd * wd + j * j)
        _assert_rounded(critical.critical_omega_sigma(omega_delta, coupling), want)

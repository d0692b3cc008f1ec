"""Closed forms against a 60-digit mpmath reference over the whole input domain.

omega_sigma and omega_delta are drawn log-uniform in [1e-3, 1e4] and beta
log-uniform in [1e-3, 1e3], at J = 1; the reference takes the same float
inputs as exact. Rounding the levels perturbs each Boltzmann exponent by
about eps * beta * |E|, so every bound is a multiple of eps * cond with
cond = 1 + beta (omega_sigma + D + J). The multiples are about four times
the largest normalised errors seen on 3e3 hypothesis examples plus 2.5e4
random points, some of them within 1e-6 of the E3/E4 crossing:
populations 0.27 absolute and 1.0 relative, ratio-form C 0.21 absolute,
population-form C 0.18 absolute, log Z 2.0. Both forms of Z are compared
in log space up to log(float max), and must raise ArithmeticError above it.
"""

import math
import sys

import pytest

from spinpair import entangle, model, thermo

mp = pytest.importorskip("mpmath").mp
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EPS = sys.float_info.epsilon
P_ABS, P_REL = 1.0, 4.0
C_ABS, C_REL = 1.0, 2.0
C_POP_ABS = 1.0
LOG_Z_ABS = 8.0
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def _reference(omega_sigma, omega_delta, beta):
    """Populations, C, log Z and the cancellation factor of C's numerator, to 60 digits."""
    with mp.workdps(60):
        ws, wd, b, j = (mp.mpf(v) for v in (omega_sigma, omega_delta, beta, 1.0))
        d = mp.sqrt(wd * wd + j * j)
        levels = [(ws + j / 2) / 2, (d - j / 2) / 2, -(d + j / 2) / 2, (-ws + j / 2) / 2]
        emin = min(levels)
        weights = [mp.exp(-b * (e - emin)) for e in levels]
        total = mp.fsum(weights)
        ps = [w / total for w in weights]
        c = abs(ps[1] - ps[2]) * (j / d) - 2 * mp.sqrt(ps[0] * ps[3])
        # C's numerator is sinh(beta D/2) sin 2theta - exp(-beta J/2).
        gain, loss = mp.sinh(b * d / 2) * j / d, mp.exp(-b * j / 2)
        kappa = (gain + loss) / abs(gain - loss)
        return (
            [float(p) for p in ps],
            float(max(c, 0)),
            float(-b * emin + mp.log(total)),
            float(kappa),
        )


@hypothesis.settings(derandomize=True, deadline=None, max_examples=300, database=None)
# At J = omega_delta = 1, beta = 100 these put the exact log Z at 709.70,
# 709.775, 709.785 and 709.85, on both sides of log(float max) = 709.78.
@hypothesis.example(omega_sigma=14.694, omega_delta=1.0, beta=100.0)
@hypothesis.example(omega_sigma=14.6955, omega_delta=1.0, beta=100.0)
@hypothesis.example(omega_sigma=14.6957, omega_delta=1.0, beta=100.0)
@hypothesis.example(omega_sigma=14.697, omega_delta=1.0, beta=100.0)
# Exact homonuclear points, where concurrence_homonuclear must take the same
# route: below, at (omega_sigma = 2 J) and above the crossing, and near beta J = ln 3.
@hypothesis.example(omega_sigma=1.0, omega_delta=0.0, beta=5.0)
@hypothesis.example(omega_sigma=2.0, omega_delta=0.0, beta=100.0)
@hypothesis.example(omega_sigma=2.5, omega_delta=0.0, beta=1000.0)
@hypothesis.example(omega_sigma=0.01, omega_delta=0.0, beta=1.1)
@hypothesis.example(omega_sigma=1e4, omega_delta=0.0, beta=1e-3)
@hypothesis.given(
    omega_sigma=_log_uniform(1e-3, 1e4),
    omega_delta=_log_uniform(1e-3, 1e4),
    beta=_log_uniform(1e-3, 1e3),
)
def test_closed_forms_match_mpmath(omega_sigma, omega_delta, beta):
    ps_ref, c_ref, log_z_ref, kappa = _reference(omega_sigma, omega_delta, beta)
    params = model.derive_from_sigma_delta(omega_sigma, omega_delta, 1.0)
    tol = EPS * (1.0 + beta * (omega_sigma + params.d_coupling + 1.0))
    levels = thermo.energies(params, 1.0)
    pops = thermo.populations(levels, beta)

    for p, ref in zip(pops.probs, ps_ref):
        err = abs(p - ref)
        assert err <= P_ABS * tol, (p, ref)
        assert ref < sys.float_info.min or err <= P_REL * tol * ref, (p, ref)
    c = entangle.concurrence_for_params(params, 1.0, beta)
    assert abs(c - c_ref) <= C_ABS * tol, (c, c_ref)
    if c_ref >= sys.float_info.min:
        assert abs(c - c_ref) <= C_REL * tol * kappa * c_ref, (c, c_ref, kappa)
    if omega_delta == 0.0:
        assert entangle.concurrence_homonuclear(0.5 * omega_sigma, 1.0, beta) == c
    c_pop = entangle.concurrence_from_populations(pops, params.theta)
    assert abs(c_pop - c_ref) <= C_POP_ABS * tol, (c_pop, c_ref)

    # Compare Z in log space. Both forms return Z while the exact log Z
    # is at most log(float max) and raise ArithmeticError above it; within
    # rounding of that limit either outcome is correct.
    bound = LOG_Z_ABS * tol
    for z_form in (
        lambda: thermo.partition(levels, beta),
        lambda: thermo.partition_closed(params, 1.0, beta),
    ):
        try:
            z = z_form()
        except ArithmeticError as exc:
            assert not isinstance(exc, OverflowError), exc
            assert log_z_ref > LOG_FLOAT_MAX - bound, (exc, log_z_ref)
        else:
            assert abs(math.log(z) - log_z_ref) <= bound, (z, log_z_ref)


def test_subnormal_concurrence_is_resolved():
    # A tau-scan point whose ratio-form denominator is just below float max:
    # C is subnormal, not 0, and keeps the digits the subnormal range allows.
    omega_sigma, omega_delta, beta = 3.5077, 0.36347, 1.0 / 0.001017
    _, c_ref, _, _ = _reference(omega_sigma, omega_delta, beta)
    params = model.derive_from_sigma_delta(omega_sigma, omega_delta, 1.0)
    c = entangle.concurrence_for_params(params, 1.0, beta)
    assert 0.0 < c_ref < sys.float_info.min
    assert math.isclose(c, c_ref, rel_tol=1e-12), (c, c_ref)

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The anchors: the homonuclear threshold 1/ln 3 to 1e-9; threshold temperatures
for couplings from 7 Hz to 15600 GHz against their published
two-significant-figure values; the critical fields at omega_delta/J = 0, 1, 2.5;
the exact 1 -> 1/2 -> 0 concurrence jump across the crossing; agreement of
every closed form with the spin-flip oracle to 1e-9 over 10^4 random systems;
NMR silence of the singlet ground state; the flip-angle amplitude identities;
the roofing intensity ratio; and the observable-reconstruction round trip.
"""

import math

import numpy as np

from spinpair import (
    critical,
    entangle,
    model,
    observe,
    oracle,
    spectrum,
    thermo,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def _round_sig(value: float, sig: int) -> float:
    return float(f"{value:.{sig}g}")


def _zero_temp_concurrence(omega_sigma, omega_delta, coupling=1.0):
    params = model.derive_from_sigma_delta(omega_sigma, omega_delta, coupling)
    return entangle.concurrence_for_params(params, coupling, math.inf)


def test_criterion_01_homonuclear_threshold():
    tau_t = entangle.threshold_tau(0.0)
    err = abs(tau_t - 1.0 / math.log(3.0))
    params = model.derive_from_sigma_delta(0.0, 0.0, 1.0)
    below = entangle.concurrence_for_params(params, 1.0, 1.0 / (tau_t * (1 - 1e-6)))
    above = entangle.concurrence_for_params(params, 1.0, 1.0 / (tau_t * (1 + 1e-6)))
    ok = err <= 1e-9 and below > 0.0 and above == 0.0
    _report(1, ok, f"tau_t = {tau_t:.12f}, |tau_t - 1/ln3| = {err:.2e}, "
                   f"C(below) = {below:.2e}, C(above) = {above}")


def test_criterion_02_table_reproduction():
    # Reference temperatures are quoted to two (one row, three)
    # significant figures, so the computed value is rounded to that
    # resolution before the 2% comparison; raw errors are reported too.
    rows = [
        (7.0, 0.31e-9, 2),
        (150.0, 6.5e-9, 2),
        (3096.0, 0.14e-6, 2),
        (14500.0, 0.63e-6, 2),
        (18500.0, 0.81e-6, 2),
        (1.4e9, 61.2e-3, 3),
    ]
    details = []
    ok = True
    for j_hz, printed, sig in rows:
        computed = entangle.threshold_kelvin(j_hz)
        rounded = _round_sig(computed, sig)
        rel = abs(rounded - printed) / printed
        raw_rel = abs(computed - printed) / printed
        ok = ok and rel <= 0.02
        details.append(f"{j_hz:g} Hz: {computed:.4e} K (raw {raw_rel * 100:.2f}%)")
    # metal-carboxylate row: the 1.6e13 Hz coupling is not
    # self-consistent with its quoted 680.9 K; the 15600 GHz figure is
    with_printed_freq = entangle.threshold_kelvin(1.6e13)
    with_text_freq = entangle.threshold_kelvin(15600e9)
    inconsistent = abs(_round_sig(with_printed_freq, 4) - 680.9) / 680.9 > 0.02
    consistent = abs(_round_sig(with_text_freq, 4) - 680.9) / 680.9 <= 0.02
    ok = ok and inconsistent and consistent
    details.append(
        f"metal row: 1.6e13 Hz -> {with_printed_freq:.1f} K (inconsistent), "
        f"15600 GHz -> {with_text_freq:.1f} K (within 2%)"
    )
    _report(2, ok, "; ".join(details))


def test_criterion_03_critical_points():
    v0 = critical.critical_omega_sigma(0.0, 1.0)
    v1 = critical.critical_omega_sigma(1.0, 1.0)
    v25 = critical.critical_omega_sigma(2.5, 1.0)
    ok = (
        abs(v0 - 2.0) <= 1e-12
        and abs(v1 - (1.0 + math.sqrt(2.0))) <= 1e-12
        and 2.3 < v1 < 2.5
        and abs(v25 - 0.5 * (2.0 + math.sqrt(29.0))) <= 1e-12
        and 3.6 < v25 < 3.8
    )
    _report(3, ok, f"crossings at omega_sigma/J = {v0}, {v1:.12f}, {v25:.12f}")


def test_criterion_04_zero_temperature_discontinuity():
    crit = critical.critical_omega_sigma(0.0, 1.0)
    below = _zero_temp_concurrence(crit - 1e-6, 0.0)
    at = _zero_temp_concurrence(crit, 0.0)
    above = _zero_temp_concurrence(crit + 1e-6, 0.0)
    ok = below == 1.0 and at == 0.5 and above == 0.0 and below - above >= 0.4
    _report(4, ok, f"C = {below}, {at}, {above} below / at / above the crossing")


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(20250808)
    worst = 0.0
    for _ in range(10_000):
        ws = rng.uniform(0.0, 5.0)
        wd = rng.uniform(0.0, 5.0)
        beta = 1.0 / rng.uniform(0.05, 2.0)
        params = model.derive_from_sigma_delta(ws, wd, 1.0)
        pops = thermo.populations_for_params(params, 1.0, beta)
        rho = thermo.density_matrix(pops, params.theta).to_array()
        closed = entangle.concurrence_for_params(params, 1.0, beta)
        worst = max(worst, abs(oracle.wootters_concurrence(rho) - closed))
    ok = worst <= 1e-9
    _report(5, ok, f"max |closed form - spin-flip oracle| = {worst:.2e} over 10^4 draws")


def test_criterion_06_nmr_silence():
    system = model.SpinSystem(0.5, 0.5, 1.0)  # singlet ground state
    lines = spectrum.simulate_spectrum(model.derive(system), math.inf, math.radians(5.0))
    worst = max(abs(line.amplitude) for line in lines)
    ok = worst <= 1e-12
    _report(6, ok, f"largest amplitude of the singlet ground state = {worst:.2e}")


def _reduced_amplitudes(setting, theta, phi):
    s = math.sin(2 * theta)
    c2 = math.cos(2 * theta) ** 2
    sp2, cp2 = math.sin(phi / 2) ** 2, math.cos(phi / 2) ** 2
    half = -0.5 * math.sin(phi)
    quarter = -0.25 * math.sin(phi)
    if setting == "pure3":
        return {
            "T43": half * (sp2 * (1 - s) - sp2 * c2 - cp2 * (1 - s)),
            "T21": -half * sp2 * c2,
            "T42": half * sp2 * c2,
            "T31": half * (cp2 * (1 - s) + sp2 * c2 - sp2 * (1 - s)),
        }
    if setting == "mix34":
        return {
            "T43": quarter * (sp2 * (1 - s) - sp2 * c2),
            "T21": -quarter * (sp2 * c2 - sp2 * (1 + s)),
            "T42": quarter * (sp2 * c2 + cp2 * (1 + s)),
            "T31": quarter * (cp2 * (1 - s) + sp2 * c2),
        }
    return {
        "T43": half * cp2 * (1 - s),
        "T21": half * sp2 * (1 + s),
        "T42": half * cp2 * (1 + s),
        "T31": half * sp2 * (1 - s),
    }


def test_criterion_07_amplitude_reductions():
    populations = {
        "pure3": (0.0, 0.0, 1.0, 0.0),
        "mix34": (0.0, 0.0, 0.5, 0.5),
        "pure4": (0.0, 0.0, 0.0, 1.0),
    }
    worst = 0.0
    for setting, pops in populations.items():
        for theta in np.linspace(0.0, math.pi / 4, 20):
            for phi in np.linspace(math.radians(1.0), math.pi, 20):
                general = spectrum.transition_amplitudes(pops, theta, phi)
                reduced = _reduced_amplitudes(setting, theta, phi)
                for key in spectrum.TRANSITIONS:
                    worst = max(worst, abs(general[key] - reduced[key]))
    ok = worst <= 1e-12
    _report(7, ok, f"max |general - reduced| = {worst:.2e} on the 20x20 grid")


def test_criterion_08_roofing_ratio():
    theta = math.pi / 8
    omega_delta = 1.0 / math.tan(2.0 * theta)
    params = model.derive_from_sigma_delta(1000.0, omega_delta, 1.0)
    pops = thermo.populations_for_params(params, 1.0, 0.01)
    amps = spectrum.transition_amplitudes(pops, params.theta, math.radians(1.0))
    ratio = abs(amps["T42"]) / abs(amps["T43"])
    target = (1.0 + math.sin(2 * theta)) / (1.0 - math.sin(2 * theta))
    rel = abs(ratio / target - 1.0)
    ok = rel <= 0.01
    _report(8, ok, f"|T42|/|T43| = {ratio:.6f} vs roofing {target:.6f} ({rel * 100:.3f}%)")


def test_criterion_09_reconstruction():
    rng = np.random.default_rng(909)
    worst_round = 0.0
    worst_route = 0.0
    for _ in range(2000):
        raw = rng.uniform(0.0, 1.0, size=4)
        p = tuple(raw / raw.sum())
        theta = rng.uniform(0.0, math.pi / 4 - 0.05)
        obs = observe.polarizations(p, theta)
        back = observe.reconstruct_populations(obs, theta)
        worst_round = max(worst_round, max(abs(a - b) for a, b in zip(back.probs, p)))
        direct = observe.concurrence_from_observables(obs, theta)
        via_pops = entangle.concurrence_from_populations(back, theta)
        worst_route = max(worst_route, abs(direct - via_pops))
    theta30 = math.radians(30.0)
    obs = observe.polarizations((0.0, 0.0, 1.0, 0.0), theta30)
    c_pure = observe.concurrence_from_observables(obs, theta30)
    pure_err = abs(c_pure - 0.866)
    ok = worst_round <= 1e-12 and worst_route <= 1e-12 and pure_err <= 1e-3
    _report(
        9,
        ok,
        f"round trip {worst_round:.2e}, route identity {worst_route:.2e}, "
        f"pure-state C = {c_pure:.6f}",
    )


def test_criterion_10_crossing_presets():
    ratios = tuple(critical.FIELD_RATIOS[name] for name in ("hh", "hc", "hp"))
    hf = critical.crossing_coupling(1.0, 0.0)
    ps = critical.crossing_coupling(1.0, -1.0)
    ok = ratios == (1.0, 2.5, 1.75) and hf is None and ps is None
    _report(10, ok, f"field ratios {ratios}, hyperfine/positronium crossing: none")

import math

import numpy as np
import pytest

from spinpair import critical, entangle, model, oracle, thermo


def _thermal_rho(omega_sigma, omega_delta, beta, coupling=1.0):
    params = model.derive_from_sigma_delta(omega_sigma, omega_delta, coupling)
    pops = thermo.populations(thermo.energies(params, coupling), beta)
    return thermo.density_matrix(pops, params.theta).to_array(), params


def _random_hermitian(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return a + a.conj().T


def _random_state(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


BELL_SINGLET = np.array(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, -0.5, 0.0],
        [0.0, -0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, 0.0],
    ]
)


def test_spin_flip_identity_and_pure_states():
    eye4 = np.eye(4) / 4.0
    assert np.array_equal(oracle.spin_flip(eye4), eye4)
    up_up = np.diag([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(oracle.spin_flip(up_up), np.diag([0.0, 0.0, 0.0, 1.0]))


def test_spin_flip_reverses_x_state():
    rho, _ = _thermal_rho(2.0, 1.0, 1.5)
    flipped = oracle.spin_flip(rho)
    assert np.allclose(np.diag(flipped), np.diag(rho)[::-1], atol=1e-15)
    assert flipped[1, 2] == rho[1, 2]


def test_spin_flip_matches_sigma_y_sandwich():
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    syy = np.kron(sy, sy)
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = _random_hermitian(rng)
        expected = syy @ rho.conj() @ syy
        assert np.max(np.abs(oracle.spin_flip(rho) - expected)) <= 1e-12


def test_spin_flip_involution_and_trace():
    rng = np.random.default_rng(32)
    for _ in range(100):
        rho = _random_hermitian(rng)
        flipped = oracle.spin_flip(rho)
        assert np.max(np.abs(oracle.spin_flip(flipped) - rho)) <= 1e-14
        assert abs(np.trace(flipped) - np.trace(rho)) <= 1e-12


def test_spin_flip_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        oracle.spin_flip(bad)


def test_wootters_pure_states():
    assert oracle.wootters_concurrence(BELL_SINGLET) == pytest.approx(1.0, abs=1e-14)
    product = np.diag([0.0, 1.0, 0.0, 0.0])
    assert oracle.wootters_concurrence(product) == 0.0


def test_wootters_thermal_x_state():
    rho, params = _thermal_rho(2.0, 0.0, 2.0)
    expected = (math.exp(2.0) - 3.0) / (2.0 * math.cosh(2.0) + math.exp(2.0) + 1.0)
    assert math.isclose(oracle.wootters_concurrence(rho), expected, rel_tol=1e-12)


def test_wootters_generic_path_matches_numpy_route():
    rng = np.random.default_rng(33)
    for _ in range(50):
        rho = _random_state(rng)
        flipped = oracle.spin_flip(rho)
        lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(rho @ flipped).real)[::-1], 0.0, None))
        expected = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        assert abs(oracle.wootters_concurrence(rho) - expected) <= 1e-10


def test_oracle_matches_closed_form():
    rng = np.random.default_rng(34)
    worst = 0.0
    for _ in range(2000):
        ws, wd = rng.uniform(0.0, 5.0, size=2)
        j = rng.uniform(1e-3, 3.0)
        beta = 1.0 / rng.uniform(0.05, 2.0)
        rho, params = _thermal_rho(ws, wd, beta, coupling=j)
        closed = entangle.concurrence_for_params(params, j, beta)
        worst = max(worst, abs(oracle.wootters_concurrence(rho) - closed))
    assert worst <= 1e-9


def test_check_density_matrix_rejects_invalid():
    with pytest.raises(ValueError):
        oracle.check_density_matrix(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        oracle.check_density_matrix(np.diag([1.5, -0.5, 0.0, 0.0]))
    skew = np.diag([0.25] * 4).astype(complex)
    skew[0, 1] = 0.3
    with pytest.raises(ValueError):
        oracle.check_density_matrix(skew)


def test_wootters_rejects_bad_input():
    with pytest.raises(ValueError):
        oracle.wootters_concurrence(np.eye(3) / 3.0)
    bad = np.eye(4) / 4.0
    bad[0, 0] = math.nan
    with pytest.raises(ValueError):
        oracle.wootters_concurrence(bad)


def test_dense_path_matches_x_path():
    # An off-pattern coherence far below rounding forces the general
    # path on a thermal X state; it must reproduce the exact block
    # formula, including at and next to the E3/E4 crossing and near
    # pure states.
    worst = 0.0
    for wd in (0.0, 0.5, 1.0, 2.5, 7.0):
        ws_cross = critical.critical_omega_sigma(wd, 1.0)
        for ws in (wd, ws_cross * (1 - 1e-9), ws_cross, ws_cross * (1 + 1e-9), 1.5 * ws_cross):
            for beta in (0.01, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, math.inf):
                rho, _ = _thermal_rho(ws, wd, beta)
                x_path = oracle.wootters_concurrence(rho)
                dense = rho.astype(complex)
                dense[0, 1] = dense[1, 0] = 1e-300
                worst = max(worst, abs(oracle.wootters_concurrence(dense) - x_path))
    assert worst <= 1e-12


def test_dense_rank_one_matches_pure_state_formula():
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    syy = np.kron(sy, sy)
    rng = np.random.default_rng(38)
    worst = 0.0
    for _ in range(1000):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        expected = abs(psi @ syy @ psi)  # |<psi| sy sy |psi*>|
        worst = max(worst, abs(oracle.wootters_concurrence(np.outer(psi, psi.conj())) - expected))
    assert worst <= 1e-12

import math
import re

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


@pytest.mark.parametrize("i, j", [(1, 2), (0, 3)])
def test_x_state_with_excess_coherence_is_not_positive(i, j):
    # Valid unit-trace diagonal, but the block {ii, ij, jj} has eigenvalue -0.05.
    rho = np.diag([0.25] * 4).astype(complex)
    rho[i, j] = rho[j, i] = 0.3
    for entry in (oracle.check_density_matrix, oracle.wootters_concurrence):
        with pytest.raises(ValueError, match="density matrix has a negative eigenvalue"):
            entry(rho)


@pytest.mark.parametrize("i, j, sign", [(0, 3, 1.0), (0, 1, -1.0)])
def test_moduli_past_float_max_saturate(i, j, sign):
    # |rho_ij| exceeds float max, but validation takes moduli of the entries
    # times 1/4, which stay finite: the pair is Hermitian. The dense case has
    # NaN eigenvalues.
    z = complex(1.7e308, 1.7e308)
    rho = np.diag([0.25] * 4).astype(complex)
    rho[i, j], rho[j, i] = z, z.conjugate()
    assert oracle.spin_flip(rho)[3 - j, 3 - i] == sign * z
    for entry in (oracle.check_density_matrix, oracle.wootters_concurrence):
        with pytest.raises(ValueError, match="density matrix has a negative eigenvalue"):
            entry(rho)


def _x_matrix(rng, lowest):
    # Unit-trace Hermitian X matrix whose blocks have eigenvalues (lowest, p)
    # and (q, r), each block rotated by a random angle and phase.
    w = rng.uniform(0.0, 1.0, size=3)
    p, q, r = w * (1.0 - lowest) / w.sum()
    m = np.zeros((4, 4), dtype=complex)
    blocks = [(0, 3), (1, 2)]
    rng.shuffle(blocks)
    for (i, j), (hi, lo) in zip(blocks, ((p, lowest), (q, r))):
        t, phase = rng.uniform(0.0, math.pi, size=2)
        c, s = math.cos(t), math.sin(t)
        m[i, i] = hi * c * c + lo * s * s
        m[j, j] = hi * s * s + lo * c * c
        m[j, i] = (hi - lo) * c * s * np.exp(1j * phase)
        m[i, j] = np.conj(m[j, i])
    return m


def test_x_state_positivity_matches_eigvalsh():
    # The closed-form block minimum agrees with LAPACK to rounding, and so
    # accepts and rejects the same states, including within 1e-12 of the floor.
    rng = np.random.default_rng(39)
    floor = oracle.EIGENVALUE_FLOOR
    near = 0
    for k in range(3000):
        if k % 3 == 2:
            lowest = rng.uniform(-0.5, 0.5)
        else:
            lowest = floor + rng.uniform(-1e-12, 1e-12)
        m = _x_matrix(rng, lowest)
        if k % 5 == 4:
            m = m * 10.0 ** rng.uniform(-3, 3)  # block check only: any scale
        tol = 1e-15 * max(1.0, float(np.max(np.abs(m))))
        exact = float(np.linalg.eigvalsh(m)[0])
        assert abs(oracle._x_lowest(m.ravel().tolist()) - exact) <= tol
        if k % 5 == 4 or abs(exact - floor) <= tol:
            continue
        near += abs(exact - floor) <= 1e-12
        try:
            oracle.check_density_matrix(m)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (exact >= floor)
    assert near > 1000


_REJECTED = {
    "shape (3, 3)": (np.eye(3) / 3.0, "expected a 4x4 matrix, got shape (3, 3)"),
    "shape (4, 4, 1)": (np.eye(4)[..., None] / 4.0, "expected a 4x4 matrix, got shape (4, 4, 1)"),
    "nan": ({(0, 0): math.nan}, "matrix entries must be finite"),
    "inf": ({(0, 1): math.inf, (1, 0): math.inf}, "matrix entries must be finite"),
    "complex(0, nan)": ({(2, 2): complex(0.0, math.nan)}, "matrix entries must be finite"),
    "non-Hermitian": ({(0, 1): 1.000001e-12}, None),  # each entry point's own message
    # Moduli past float max: rho21 = -conj(rho12) is anti-Hermitian.
    "anti-Hermitian past float max": (
        {(0, 1): complex(1.7e308, 1.7e308), (1, 0): -complex(1.7e308, -1.7e308)}, None,
    ),
    "trace": (np.eye(4), "density matrix must have unit trace"),
    "negative, X": (np.diag([1.5, -0.5, 0.0, 0.0]), "density matrix has a negative eigenvalue"),
    "negative, dense": (
        {(0, 0): 0.5, (1, 1): 0.5, (2, 2): 0.5, (3, 3): -0.5, (0, 1): 1e-3, (1, 0): 1e-3},
        "density matrix has a negative eigenvalue",
    ),
}
_HERMITIAN_ERRORS = {
    oracle.check_density_matrix: "density matrix is not Hermitian",
    oracle.spin_flip: "spin flip requires a Hermitian input",
    oracle.wootters_concurrence: "density matrix is not Hermitian",
}


@pytest.mark.parametrize("entry", list(_HERMITIAN_ERRORS), ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", list(_REJECTED))
def test_entry_points_reject_alike(entry, case):
    rho, message = _REJECTED[case]
    if isinstance(rho, dict):  # entries set on the maximally mixed state
        edits, rho = rho, np.diag([0.25] * 4).astype(complex)
        for ij, value in edits.items():
            rho[ij] = value
    message = message or _HERMITIAN_ERRORS[entry]
    if entry is oracle.spin_flip and case in ("trace", "negative, X", "negative, dense"):
        oracle.spin_flip(rho)  # a Hermitian flip needs no trace or positivity
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(rho)


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

"""The spin-flip oracle on both of its paths, and the dense path's rho_tilde, oracle._flip,
against the sandwich (sy (x) sy) rho* (sy (x) sy).

The X path matches, for the Bell states Phi+- and seeded mixed X states with rho14 != 0,
2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)), and the dense path on the
same states turned by a local unitary U (x) V. On the mixed states the X path also lies within
the bound its own roundings set, 2^-53 (6 (o + i) + 10 (|rho14| + |rho23|)) with
o = sqrt(rho11 rho44) and i = sqrt(rho22 rho33), of the 60-digit value of that formula. A thermal
X state never calls eigh, and a state with one off-X pair does.
"""

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


_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SY_SY = np.kron(_SY, _SY)

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
    assert np.array_equal(oracle._flip(eye4), eye4)
    up_up = np.diag([1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(oracle._flip(up_up), np.diag([0.0, 0.0, 0.0, 1.0]))


def test_spin_flip_reverses_x_state():
    rho, _ = _thermal_rho(2.0, 1.0, 1.5)
    flipped = oracle._flip(rho)
    assert np.allclose(np.diag(flipped), np.diag(rho)[::-1], atol=1e-15)
    assert flipped[1, 2] == rho[1, 2]


def test_spin_flip_matches_sigma_y_sandwich():
    rng = np.random.default_rng(31)
    for _ in range(50):
        rho = _random_hermitian(rng)
        expected = SY_SY @ rho.conj() @ SY_SY
        assert np.max(np.abs(oracle._flip(rho) - expected)) <= 1e-12


def test_spin_flip_involution_and_trace():
    rng = np.random.default_rng(32)
    for _ in range(100):
        rho = _random_hermitian(rng)
        flipped = oracle._flip(rho)
        assert np.max(np.abs(oracle._flip(flipped) - rho)) <= 1e-14
        assert abs(np.trace(flipped) - np.trace(rho)) <= 1e-12


def _bell_phi(sign):
    # Phi+- = (|aa> +- |bb>) / sqrt 2: the coherence is rho14, in the outer block.
    phi = np.diag([0.5, 0.0, 0.0, 0.5])
    phi[0, 3] = phi[3, 0] = 0.5 * sign
    return phi


def test_wootters_concurrence_is_the_one_public_function():
    public = [name for name, obj in vars(oracle).items()
              if callable(obj) and getattr(obj, "__module__", None) == oracle.__name__
              and not name.startswith("_")]
    assert public == ["wootters_concurrence"]


def test_wootters_pure_states():
    assert oracle.wootters_concurrence(BELL_SINGLET) == pytest.approx(1.0, abs=1e-14)
    assert oracle.wootters_concurrence(_bell_phi(1.0)) == 1.0
    assert oracle.wootters_concurrence(_bell_phi(-1.0)) == 1.0
    product = np.diag([0.0, 1.0, 0.0, 0.0])
    assert oracle.wootters_concurrence(product) == 0.0


def _mixed_x_state(rng):
    # Unit-trace positive X state with complex coherences rho14 and rho23, each a
    # random fraction of its bound sqrt(rho11 rho44) or sqrt(rho22 rho33). The two
    # largest weights go to the outer block {11, 44} or to the inner one {22, 33}.
    p = np.sort(rng.dirichlet(np.ones(4)))
    p = p[[3, 1, 0, 2]] if rng.uniform() < 0.5 else p[[1, 3, 2, 0]]
    rho = np.diag(p).astype(complex)
    for i, j in ((0, 3), (1, 2)):
        modulus = rng.uniform(0.0, 1.0) * math.sqrt(p[i] * p[j])
        rho[i, j] = modulus * np.exp(2j * math.pi * rng.uniform())
        rho[j, i] = np.conj(rho[i, j])
    return rho


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_x_path_matches_block_formula_and_dense_path():
    # C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)); a local
    # unitary U (x) V leaves C unchanged but fills the off-X entries, so the rotated
    # state takes the dense path.
    rng = np.random.default_rng(41)
    outer_wins = inner_wins = 0
    for _ in range(300):
        rho = _mixed_x_state(rng)
        r = np.abs(rho)
        outer = r[0, 3] - math.sqrt(r[1, 1] * r[2, 2])
        inner = r[1, 2] - math.sqrt(r[0, 0] * r[3, 3])
        want = 2.0 * max(0.0, outer, inner)
        outer_wins += outer > max(inner, 0.0) + 1e-3
        inner_wins += inner > max(outer, 0.0) + 1e-3
        c = oracle.wootters_concurrence(rho)
        assert abs(c - want) <= 1e-14, (rho, c, want)
        u = np.kron(_random_unitary(rng), _random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        assert np.min(np.abs(rotated)) > 0.0
        assert abs(oracle.wootters_concurrence(rotated) - want) <= 1e-12, (rho, want)
    assert outer_wins > 100 and inner_wins > 100


def test_x_path_matches_mpmath():
    # The X path against the 60-digit C = 2 max(0, |rho14| - sqrt(rho22 rho33),
    # |rho23| - sqrt(rho11 rho44)) of the same float entries. The bound counts the
    # roundings, u = 2^-53, with o = sqrt(rho11 rho44), i = sqrt(rho22 rho33), a = |rho14|,
    # b = |rho23| (a <= o, b <= i): o and i err by 1.5u (product, sqrt), a and b by 2u
    # (one ulp of hypot); the four l = o +- a, i +- b add u each and the three
    # subtractions u times 2a or 2b, |2a - i - b| and C. Summed to first order, the error
    # is below u (5o + 6i + 10a + 5b) when the outer block wins, with o, i and a, b
    # swapped when the inner one does; u (6(o + i) + 10(a + b)) covers both, and the
    # factor 1 + 2^-20 the second-order terms.
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(41)
    worst = 0.0
    with mp.workdps(60):
        for _ in range(300):
            rho = _mixed_x_state(rng)
            c = oracle.wootters_concurrence(rho)
            a, b = (mp.hypot(z.real, z.imag) for z in (rho[0, 3], rho[1, 2]))
            o, i = (mp.sqrt(mp.mpf(rho[k, k].real) * rho[3 - k, 3 - k].real) for k in (0, 1))
            want = 2 * max(0, a - i, b - o)
            bound = mp.mpf(2) ** -53 * (6 * (o + i) + 10 * (a + b)) * (1 + mp.mpf(2) ** -20)
            assert abs(c - want) <= bound, (rho, c, want)
            worst = max(worst, float(abs(c - want) / bound))
    assert worst > 0.0  # the reference sees the roundings


def test_wootters_thermal_x_state():
    rho, params = _thermal_rho(2.0, 0.0, 2.0)
    expected = (math.exp(2.0) - 3.0) / (2.0 * math.cosh(2.0) + math.exp(2.0) + 1.0)
    assert math.isclose(oracle.wootters_concurrence(rho), expected, rel_tol=1e-12)


def test_wootters_generic_path_matches_numpy_route():
    rng = np.random.default_rng(33)
    for _ in range(50):
        rho = _random_state(rng)
        flipped = SY_SY @ rho.conj() @ SY_SY
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


@pytest.mark.parametrize("i, j, sign", [(0, 3, 1.0), (0, 1, -1.0)])
def test_moduli_past_float_max_saturate(i, j, sign):
    # |rho_ij| exceeds float max; the flip moves each entry and at most changes its sign.
    z = complex(1.7e308, 1.7e308)
    rho = np.diag([0.25] * 4).astype(complex)
    rho[i, j], rho[j, i] = z, z.conjugate()
    assert oracle._flip(rho)[3 - j, 3 - i] == sign * z


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
            oracle.wootters_concurrence(m)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == (exact >= floor)
    assert near > 1000


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


@pytest.fixture
def eigh_calls(monkeypatch):
    calls, eigh = [], np.linalg.eigh

    def counting_eigh(m):
        calls.append(m)
        return eigh(m)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    return calls


def test_x_states_never_call_lapack(eigh_calls):
    # Thermal states with rho23 != 0, the E3/E4 crossing (2, 0) and beta = inf among them,
    # and the three Bell states with one coherence take the closed-form X path.
    for ws, wd, beta in ((2.0, 1.0, 1.5), (2.0, 0.0, 3.0), (2.0, 0.0, math.inf), (0.5, 2.0, 0.3)):
        rho, _ = _thermal_rho(ws, wd, beta)
        assert rho[1, 2] != 0.0
        oracle.wootters_concurrence(rho)
    for bell in (BELL_SINGLET, _bell_phi(1.0), _bell_phi(-1.0)):
        oracle.wootters_concurrence(bell)
    assert eigh_calls == []


@pytest.mark.parametrize("i, j", [(i, j) for i in range(4) for j in range(i + 1, 4) if i + j != 3])
def test_one_off_x_pair_takes_the_dense_path(eigh_calls, i, j):
    rho = np.diag([0.25] * 4)
    rho[i, j] = rho[j, i] = 1e-3
    assert oracle.wootters_concurrence(rho) == 0.0
    assert len(eigh_calls) == 1


def test_dense_rank_one_matches_pure_state_formula():
    rng = np.random.default_rng(38)
    worst = 0.0
    for _ in range(1000):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        expected = abs(psi @ SY_SY @ psi)  # |<psi| sy sy |psi*>|
        worst = max(worst, abs(oracle.wootters_concurrence(np.outer(psi, psi.conj())) - expected))
    assert worst <= 1e-12

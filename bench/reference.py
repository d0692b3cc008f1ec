"""Independent correctness references and output checkers.

Nothing here imports spinpair. The references start from the physics,
not from the package's formulas:

* populations from the four energy levels and Boltzmann weights, in
  numpy (every row) and in 30-digit mpmath (a seeded sample), with the
  concurrence from the population form;
* the threshold as the root of log(sinh(beta D/2) sin 2theta) + beta J/2,
  in float (every op) and in 30-digit mpmath (a seeded sample);
* spectrum amplitudes from an explicit pulse rotation of the density
  matrix, frequencies from energy differences;
* the spin-flip concurrence of dense states through the Hermitian
  route sqrt(rho) rho~ sqrt(rho) with numpy's eigh;
* reconstruction as a 4x4 linear solve.

Each checker returns None for a correct output and a short reason
otherwise. They run outside every timed region.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

MP_DPS = 30
# closed form vs oracle, as the acceptance suite pins
AGREE_TOL = 1e-9
ABS_TOL = 1e-12
DEGENERACY_RTOL = 1e-12

HBAR = 1.054571817e-34
K_BOLTZMANN = 1.380649e-23
PRESET_RATIOS = {"hh": 1.0, "hc": 0.25, "hp": 0.4, "hyperfine": 0.0, "positronium": -1.0}
TRANSITIONS = ("T43", "T21", "T42", "T31")
# (upper, lower) eigenstate indices (0-based) of each line
_LINE_LEVELS = {"T43": (3, 2), "T21": (1, 0), "T42": (3, 1), "T31": (2, 0)}
DEFAULT_LINEWIDTH = 0.05


def rel_tol(digits: int) -> float:
    """Tolerance of a value printed with ``digits`` significant digits."""
    return max(AGREE_TOL, 10.0 ** (1 - digits))


def close(value: float, ref: float, rtol: float = AGREE_TOL, atol: float = ABS_TOL) -> bool:
    return abs(value - ref) <= rtol * abs(ref) + atol


# ----------------------------------------------------------------- thermal


def levels(omega_sigma, omega_delta, coupling) -> np.ndarray:
    """E1..E4 along the first axis, shape (4,) or (4, n)."""
    ws, wd, j = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (omega_sigma, omega_delta, coupling))
    )
    d = np.hypot(wd, j)
    half_j = 0.5 * j
    return np.stack([0.5 * (ws + half_j), 0.5 * (d - half_j), -0.5 * (d + half_j),
                     0.5 * (-ws + half_j)])


def sin_2theta(omega_delta, coupling):
    d = np.hypot(omega_delta, coupling)
    return np.where(d > 0.0, coupling / np.where(d > 0.0, d, 1.0), 0.0)


def populations(energies: np.ndarray, beta) -> np.ndarray:
    """Boltzmann populations, shape (4, n); beta = inf gives the ground limit."""
    e = np.asarray(energies, dtype=float).reshape(4, -1)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    shifted = e - e.min(axis=0)
    scale = np.maximum(1.0, np.abs(e).max(axis=0))
    ground = (shifted <= DEGENERACY_RTOL * scale).astype(float)
    finite = np.isfinite(beta)
    w = np.where(finite, np.exp(-np.where(finite, beta, 0.0) * shifted), ground)
    return w / w.sum(axis=0)


def concurrence_pop(p: np.ndarray, s2t) -> np.ndarray:
    value = np.abs(p[1] - p[2]) * s2t - 2.0 * np.sqrt(np.maximum(p[0] * p[3], 0.0))
    return np.maximum(value, 0.0)


def thermal(omega_sigma, omega_delta, coupling, beta):
    """(populations (4, n), concurrence (n,)) from the population form."""
    p = populations(levels(omega_sigma, omega_delta, coupling), beta)
    return p, concurrence_pop(p, sin_2theta(omega_delta, coupling))


def mp_thermal(omega_sigma, omega_delta, coupling, beta):
    """30-digit populations and concurrence; floats in, floats out."""
    with mpmath.workdps(MP_DPS):
        ws, wd, j = (mpmath.mpf(x) for x in (omega_sigma, omega_delta, coupling))
        d = mpmath.sqrt(wd * wd + j * j)
        es = [(ws + j / 2) / 2, (d - j / 2) / 2, -(d + j / 2) / 2, (-ws + j / 2) / 2]
        emin = min(es)
        if math.isinf(beta):
            scale = max(mpmath.mpf(1), max(abs(e) for e in es))
            ws_ = [mpmath.mpf(1) if e - emin <= DEGENERACY_RTOL * scale else mpmath.mpf(0)
                   for e in es]
        else:
            b = mpmath.mpf(beta)
            ws_ = [mpmath.exp(-b * (e - emin)) for e in es]
        total = sum(ws_)
        p = [w / total for w in ws_]
        s2t = j / d if d > 0 else mpmath.mpf(0)
        c = abs(p[1] - p[2]) * s2t - 2 * mpmath.sqrt(p[0] * p[3])
        return [float(x) for x in p], float(max(c, 0))


# --------------------------------------------------------------- threshold


def _threshold_bracket(omega_delta, coupling, logsinh, log, one):
    # x = beta J solves h(x) = log(sinh(x D / 2J)) + log(sin 2theta) + x / 2 = 0.
    # h is strictly increasing, so a doubling search brackets the root
    # within a factor of two.
    d = (omega_delta * omega_delta + coupling * coupling) ** 0.5
    a = d / (2 * coupling)
    log_s = log(coupling / d)

    def h(x):
        return logsinh(x * a) + log_s + x / 2

    x = one
    if h(x) > 0:
        while h(x) > 0:
            x /= 2
        return h, x, 2 * x
    while h(x) < 0:
        x *= 2
    return h, x / 2, x


def _logsinh(y: float) -> float:
    if y < 20.0:
        return math.log(math.sinh(y))
    return y - math.log(2.0) + math.log1p(-math.exp(-2.0 * y))


def threshold_tau(omega_delta: float, coupling: float) -> float:
    """Float reference for tau_t = 1 / (beta* J), bisected to one ulp."""
    h, lo, hi = _threshold_bracket(omega_delta, coupling, _logsinh, math.log, 1.0)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return 1.0 / mid
        if h(mid) > 0.0:
            hi = mid
        else:
            lo = mid


def mp_threshold_tau(omega_delta: float, coupling: float) -> float:
    with mpmath.workdps(MP_DPS):
        wd, j = mpmath.mpf(omega_delta), mpmath.mpf(coupling)
        h, lo, hi = _threshold_bracket(
            wd, j, lambda y: mpmath.log(mpmath.sinh(y)), mpmath.log, mpmath.mpf(1)
        )
        return float(1 / mpmath.findroot(h, (lo, hi), solver="illinois"))


def threshold_kelvin(j_hz: float) -> float:
    with mpmath.workdps(MP_DPS):
        return float(mpmath.mpf(HBAR) * 2 * mpmath.pi * mpmath.mpf(j_hz)
                     / (mpmath.mpf(K_BOLTZMANN) * mpmath.log(3)))


def preset_delta(name: str, field: float) -> float:
    """omega_delta of a preset at omega1 = field, with the float rounding
    of omega1 - ratio * omega1."""
    return field - PRESET_RATIOS[name] * field


# ------------------------------------------------------- spectrum and oracle

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_LOWER = np.array([[0.0, 0.0], [1.0, 0.0]])
_EYE2 = np.eye(2)
_F_MINUS = np.kron(_LOWER, _EYE2) + np.kron(_EYE2, _LOWER)
_YY = np.kron(np.array([[0.0, -1j], [1j, 0.0]]), np.array([[0.0, -1j], [1j, 0.0]]))


def _eigenbasis(omega_delta: float, coupling: float) -> np.ndarray:
    theta = 0.5 * math.atan2(coupling, omega_delta)
    c, s = math.cos(theta), math.sin(theta)
    # columns are |1> = aa, |2> = c ab + s ba, |3> = -s ab + c ba, |4> = bb
    return np.array([[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]], dtype=float)


def spectrum_lines(omega_sigma, omega_delta, coupling, beta, phi) -> dict:
    """{transition: (frequency, amplitude)} from a pulse rotation of rho."""
    e = levels(omega_sigma, omega_delta, coupling)
    p = populations(e, beta)[:, 0]
    v = _eigenbasis(omega_delta, coupling)
    rho = v @ np.diag(p) @ v.T
    r1 = math.cos(0.5 * phi) * _EYE2 - 1j * math.sin(0.5 * phi) * _SX
    pulse = np.kron(r1, r1)
    after = v.T @ (pulse @ rho @ pulse.conj().T) @ v
    f_minus = v.T @ _F_MINUS @ v
    out = {}
    for t, (i, j) in _LINE_LEVELS.items():
        out[t] = (abs(e[i] - e[j]), float((after[j, i] * f_minus[i, j]).imag))
    return out


def lorentzian(lines: list[tuple[float, float]], linewidth: float, grid: np.ndarray) -> np.ndarray:
    half = 0.5 * linewidth
    return sum(a * half**2 / ((grid - f) ** 2 + half**2) for f, a in lines)


def wootters(rho: np.ndarray) -> float:
    """Concurrence through the Hermitian spin-flip route."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    flipped = _YY @ rho.conj() @ _YY
    lam = np.sqrt(np.clip(np.linalg.eigvalsh(root @ flipped @ root), 0.0, None))[::-1]
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def observables_tolerance(p, theta: float) -> float:
    """Agreement bound for the concurrence computed from float observables.

    The radicand (1 + P12)^2 - (P1 + P2)^2 equals 16 p1 p4 and cancels as
    p1 p4 -> 0, where sqrt has unbounded slope: a rounding error dR of the
    radicand moves C by up to min(sqrt(dR), dR / (2 sqrt(R))) / 2 whatever
    the implementation. dR and the tan(2 theta) term use a few ulps per
    observable.
    """
    eps = 8.0 * np.finfo(float).eps
    p1, p2, p3, p4 = p
    one_plus = 2.0 * (p1 + p4)
    pair = 2.0 * abs(p1 - p4)
    d_rad = 2.0 * (one_plus + pair) * eps + eps * one_plus**2
    rad = 16.0 * p1 * p4
    d_root = min(math.sqrt(d_rad), d_rad / (2.0 * math.sqrt(rad))) if rad > 0.0 else math.sqrt(d_rad)
    return AGREE_TOL + 0.5 * (d_root + 2.0 * eps * abs(math.tan(2.0 * theta)))


def reconstruct(obs, theta: float) -> np.ndarray:
    c = math.cos(2.0 * theta)
    a = np.array([[1, 1, 1, 1], [1, c, -c, -1], [1, -c, c, -1], [1, -1, -1, 1]], dtype=float)
    return np.linalg.solve(a, np.array([1.0, *obs]))


def grid(start: float, stop: float, points: int) -> np.ndarray:
    if points == 1:
        return np.array([start])
    return start + np.arange(points) * ((stop - start) / (points - 1))


# --------------------------------------------------------------- CLI checks


def _json(stdout: str):
    lines = stdout.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one JSON line, got {len(lines)}")
    return json.loads(lines[0])


def _csv(lines: list[str], header: str, rows: int) -> np.ndarray:
    if not lines or lines[0] != header:
        raise ValueError(f"bad header {lines[:1]!r}")
    if len(lines) - 1 != rows:
        raise ValueError(f"expected {rows} rows, got {len(lines) - 1}")
    body = ",".join(lines[1:rows + 1])
    return np.array(body.split(","), dtype=float).reshape(rows, -1)


def _beta(tau):
    return math.inf if not tau else 1.0 / tau


def check_scan(op: dict, stdout: str, digits: int, mp_rows: list[int]) -> str | None:
    data = _csv(stdout.splitlines(), "x,concurrence", op["points"])
    x = grid(op["start"], op["stop"], op["points"])
    rtol = rel_tol(digits)
    if not np.all(np.abs(data[:, 0] - x) <= rtol * np.abs(x) + ABS_TOL):
        return "x column differs from the requested grid"
    if op["kind"] == "scan_tau":
        ws, wd = op["omega_sigma"], op["omega_delta"]
        betas = np.where(x > 0.0, 1.0 / np.where(x > 0.0, x, 1.0), np.inf)
        _, c = thermal(ws, wd, 1.0, betas)
        mp_args = [(ws, wd, float(betas[i])) for i in mp_rows]
    else:
        wd, beta = op["omega_delta"], _beta(op["tau"])
        _, c = thermal(x, wd, 1.0, beta)
        mp_args = [(float(x[i]), wd, beta) for i in mp_rows]
    bad = ~(np.abs(data[:, 1] - c) <= rtol * np.abs(c) + ABS_TOL)  # nan fails too
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"row {i}: concurrence {data[i, 1]!r} vs reference {c[i]!r}"
    for i, (ws, wd, beta) in zip(mp_rows, mp_args):
        ref = mp_thermal(ws, wd, 1.0, beta)[1]
        if not close(data[i, 1], ref, rtol):
            return f"row {i}: concurrence {data[i, 1]!r} vs 30-digit {ref!r}"
    return None


def check_scalar(op: dict, stdout: str, digits: int) -> str | None:
    kind = op["kind"]
    rtol = rel_tol(digits)
    if kind in ("concurrence_tau", "concurrence_zero"):
        out = _json(stdout)
        p, c = mp_thermal(op["omega_sigma"], op["omega_delta"], 1.0, _beta(op["tau"]))
        if not close(out["concurrence"], c, rtol):
            return f"concurrence {out['concurrence']!r} vs {c!r}"
        if not all(close(a, b, rtol) for a, b in zip(out["populations"], p)):
            return f"populations {out['populations']!r} vs {p!r}"
    elif kind == "threshold_omega":
        out = _json(stdout)
        ref = mp_threshold_tau(op["omega_delta"], op["coupling"])
        if not close(out["tau_t"], ref, rtol):
            return f"tau_t {out['tau_t']!r} vs {ref!r}"
    elif kind == "threshold_jhz":
        out = _json(stdout)
        ref = threshold_kelvin(op["j_hz"])
        if not close(out["t_kelvin"], ref, rtol):
            return f"t_kelvin {out['t_kelvin']!r} vs {ref!r}"
    elif kind in ("crossing_preset", "crossing_omega"):
        out = _json(stdout)
        if kind == "crossing_preset":
            o1, o2 = 1.0, PRESET_RATIOS[op["preset"]]
        else:
            o1, o2 = op["omega1"], op["omega2"]
        j = 2.0 * o1 * o2 / (o1 + o2) if o1 + o2 != 0.0 else 0.0
        if j > 0.0:
            if out.get("j_cross") == "none" or not close(out["j_cross"], j, rtol):
                return f"j_cross {out.get('j_cross')!r} vs {j!r}"
        elif out.get("j_cross") != "none":
            return f"j_cross {out.get('j_cross')!r}, expected none"
        if kind == "crossing_preset" and j > 0.0:
            ratio = (1.0 + o2) / (2.0 * o2)
            if not close(out.get("field_ratio", math.nan), ratio, rtol):
                return f"field_ratio {out.get('field_ratio')!r} vs {ratio!r}"
    elif kind == "spectrum":
        lines = stdout.splitlines()
        table = _csv(
            [lines[0]] + [ln.split(",", 1)[1] for ln in lines[1:5]],
            "transition,frequency,amplitude", 4,
        )
        if [ln.split(",", 1)[0] for ln in lines[1:5]] != list(TRANSITIONS):
            return "transition labels out of order"
        ref = spectrum_lines(op["omega_sigma"], op["omega_delta"], 1.0, _beta(op["tau"]),
                             math.radians(op["phi_deg"]))
        for row, t in zip(table, TRANSITIONS):
            if not (close(row[0], ref[t][0], rtol) and close(row[1], ref[t][1], rtol)):
                return f"line {t}: {row.tolist()!r} vs {ref[t]!r}"
        start, stop, points = op["render"]
        curve = _csv(lines[5:], "f,intensity", points)
        fgrid = grid(start, stop, points)
        want = lorentzian([ref[t] for t in TRANSITIONS], DEFAULT_LINEWIDTH, fgrid)
        if not np.allclose(curve[:, 0], fgrid, rtol=rtol, atol=ABS_TOL):
            return "render grid differs"
        if not np.allclose(curve[:, 1], want, rtol=rtol, atol=ABS_TOL):
            return "rendered intensity differs"
    elif kind == "reconstruct":
        out = _json(stdout)
        theta = math.radians(op["theta_deg"])
        p = reconstruct(op["observables"], theta)
        c = float(concurrence_pop(p, math.sin(2.0 * theta)))
        if not all(close(a, b, rtol) for a, b in zip(out["populations"], p)):
            return f"populations {out['populations']!r} vs {p.tolist()!r}"
        if not close(out["concurrence"], c, rtol):
            return f"concurrence {out['concurrence']!r} vs {c!r}"
    elif kind == "invalid":
        if stdout:
            return "rejected input printed a result"
    else:
        return f"unknown op kind {kind!r}"
    return None


def check_cli(op: dict, code: int, stdout: str, digits: int, mp_rows: list[int]) -> str | None:
    """None when exit code and output match the reference."""
    if code != op["expect_exit"]:
        return f"exit {code}, expected {op['expect_exit']}"
    if code != 0:
        return None
    try:
        if op["kind"] in ("scan_tau", "scan_field"):
            return check_scan(op, stdout, digits, mp_rows)
        return check_scalar(op, stdout, digits)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unparsable output: {exc}"

"""Seeded input generation for the four benchmark workloads.

Every generator takes only the seed and returns plain Python data, so
the same seed gives byte-identical inputs on any machine; ``input_hash``
pins that. Nothing here imports spinpair: the program under test
receives only these generated inputs.

Shares and ranges are fixed constants below so that they are recorded
with the benchmark and repeat across seeds; the seed moves values
inside each share, never the shares themselves.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# A scan op's cost is set by its size and axis, so scans come in cycles of
# 9 ops, in seeded order: each size of a log-spaced grid over 2e4-2e5
# points once on each axis, plus a second tau scan of the middle size. A
# scan run ends on a cycle boundary, so every run sees the same size and
# axis mix, and its peak RSS covers 2e5-point scans on both axes. The
# extra op makes the median op fall inside a block of equal ops rather
# than in the gap between two sizes. The seed draws everything else.
SCAN_SIZES = tuple(round(20_000 * 10 ** (k / 3)) for k in range(4))
SCAN_MIX = [(n, axis) for n in SCAN_SIZES for axis in ("tau", "field")] + [(SCAN_SIZES[2], "tau")]
SCAN_CYCLES = 64
SCAN_TAU_FROM_ZERO = 0.35

SCALAR_CYCLE = (
    "concurrence_tau", "concurrence_tau",
    "concurrence_zero", "concurrence_zero",
    "scan_small",
    "threshold_omega", "threshold_omega", "threshold_omega",
    "threshold_jhz", "threshold_jhz",
    "crossing_preset", "crossing_preset",
    "crossing_omega", "crossing_omega",
    "spectrum", "spectrum",
    "reconstruct", "reconstruct",
    "invalid", "invalid",
)
SCALAR_OPS = 1200

# Inputs the seed accepts although the CLI contract says it must not
# (ROADMAP item 4). They run once per scalar run, outside the timed ops,
# so the open gaps stay visible without counting as failed operations.
DOMAIN_GAP_PROBES = (
    (["threshold", "--omega-delta", "1", "--coupling", "inf"], 2),
    (
        ["reconstruct", "--p1z", "0.3", "--p2z", "0.1", "--p1z2z", "0.0",
         "--theta-deg", "200"],
        2,
    ),
    (["threshold", "--omega-delta", "1", "--coupling", "1e-320"], 3),
)

CROSSCHECK_POOL = 2048
CROSSCHECK_DENSE_EVERY = 20  # one op in 20 (5 %) is a dense 4x4 state
CROSSCHECK_KINDS = (
    "generic", "generic", "generic", "generic",
    "crossing", "near_crossing", "delta_dominant", "weak_coupling",
    "homonuclear",
)
CROSSCHECK_ZERO_TEMP = 0.2

THRESHOLD_POOL = 4096
THRESHOLD_CYCLE = ("tau",) * 5 + ("temperature",) * 3 + ("kelvin",) * 2
THRESHOLD_PRESETS = ("hh", "hc", "hp")
J_HZ_RANGE = (7.0, 15.6e12)

WORKLOADS = ("scan", "scalar", "crosscheck", "threshold")


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def critical_sigma(omega_delta: float, coupling: float = 1.0) -> float:
    """omega_sigma of the E3/E4 crossing, J + sqrt(J^2 + omega_delta^2)."""
    return coupling + math.hypot(coupling, omega_delta)


def _f(x: float) -> str:
    # repr round-trips exactly through argparse's float()
    return repr(float(x))


def scan_ops(seed: int) -> list[dict]:
    """CLI scans in shuffled cycles of the size and axis mix."""
    rng = random.Random(f"scan:{seed}")
    ops = []
    for _ in range(SCAN_CYCLES):
        cycle = list(SCAN_MIX)
        rng.shuffle(cycle)
        ops.extend(_scan_op(rng, points, axis) for points, axis in cycle)
    return ops


def _scan_op(rng: random.Random, points: int, axis: str) -> dict:
    omega_delta = log_uniform(rng, 1e-2, 10.0)
    crit = critical_sigma(omega_delta)
    if axis == "tau":
        omega_sigma = crit * rng.uniform(0.2, 1.8)
        start = 0.0 if rng.random() < SCAN_TAU_FROM_ZERO else log_uniform(rng, 1e-3, 0.1)
        stop = start + log_uniform(rng, 1.0, 10.0)
        argv = ["scan", "--axis", "tau", "--from", _f(start), "--to", _f(stop),
                "--points", str(points), "--omega-sigma", _f(omega_sigma),
                "--omega-delta", _f(omega_delta)]
        return {"kind": "scan_tau", "argv": argv, "points": points, "start": start,
                "stop": stop, "omega_sigma": omega_sigma, "omega_delta": omega_delta,
                "expect_exit": 0}
    # the field range straddles the zero-temperature critical field
    tau = log_uniform(rng, 1e-2, 3.0)
    start = crit * rng.uniform(0.0, 0.8)
    stop = crit * rng.uniform(1.2, 3.0)
    argv = ["scan", "--axis", "field", "--from", _f(start), "--to", _f(stop),
            "--points", str(points), "--omega-delta", _f(omega_delta), "--tau", _f(tau)]
    return {"kind": "scan_field", "argv": argv, "points": points, "start": start,
            "stop": stop, "tau": tau, "omega_delta": omega_delta, "expect_exit": 0}


def _populations(rng: random.Random) -> list[float]:
    w = [rng.expovariate(1.0) for _ in range(4)]
    total = sum(w)
    return [x / total for x in w]


def _scalar_op(rng: random.Random, kind: str) -> dict:
    op = {"kind": kind, "expect_exit": 0}
    if kind in ("concurrence_tau", "concurrence_zero", "spectrum"):
        omega_delta = log_uniform(rng, 1e-2, 10.0)
        crit = critical_sigma(omega_delta)
        if kind == "concurrence_zero" and rng.random() < 0.25:
            omega_sigma = crit  # exactly at the E3/E4 crossing
        else:
            omega_sigma = crit * rng.uniform(0.2, 1.8)
        tau = None if kind == "concurrence_zero" else log_uniform(rng, 1e-2, 3.0)
        if kind == "spectrum" and rng.random() < 0.25:
            tau = None
        argv = [kind.split("_")[0], "--omega-sigma", _f(omega_sigma),
                "--omega-delta", _f(omega_delta)]
        argv += ["--zero-temp"] if tau is None else ["--tau", _f(tau)]
        op.update(omega_sigma=omega_sigma, omega_delta=omega_delta, tau=tau)
        if kind == "spectrum":
            phi = rng.uniform(1.0, 180.0)
            top = omega_sigma + omega_delta + 2.0
            render = (-top, top, rng.randint(16, 64))
            argv += ["--phi", _f(phi), "--render", _f(render[0]), _f(render[1]),
                     str(render[2])]
            op.update(phi_deg=phi, render=render)
    elif kind == "scan_small":
        points = rng.randint(2, 100)
        omega_delta = log_uniform(rng, 1e-2, 10.0)
        omega_sigma = critical_sigma(omega_delta) * rng.uniform(0.2, 1.8)
        start, stop = 0.0, log_uniform(rng, 0.5, 5.0)
        argv = ["scan", "--axis", "tau", "--from", _f(start), "--to", _f(stop),
                "--points", str(points), "--omega-sigma", _f(omega_sigma),
                "--omega-delta", _f(omega_delta)]
        op.update(kind="scan_tau", points=points, start=start, stop=stop,
                  omega_sigma=omega_sigma, omega_delta=omega_delta)
    elif kind == "threshold_omega":
        omega_delta = log_uniform(rng, 1e-3, 1e4)
        coupling = 1.0 if rng.random() < 0.5 else log_uniform(rng, 1e-2, 1e2)
        argv = ["threshold", "--omega-delta", _f(omega_delta)]
        if coupling != 1.0:
            argv += ["--coupling", _f(coupling)]
        op.update(omega_delta=omega_delta, coupling=coupling)
    elif kind == "threshold_jhz":
        j_hz = log_uniform(rng, *J_HZ_RANGE)
        argv = ["threshold", "--j-hz", _f(j_hz)]
        op.update(j_hz=j_hz)
    elif kind == "crossing_preset":
        name = rng.choice(("hh", "hc", "hp", "hyperfine", "positronium"))
        argv = ["crossing", "--preset", name]
        op.update(preset=name)
    elif kind == "crossing_omega":
        omega1 = log_uniform(rng, 1e-2, 1e2)
        omega2 = 0.0 if rng.random() < 0.15 else omega1 * rng.uniform(0.0, 1.0)
        argv = ["crossing", "--omega1", _f(omega1), "--omega2", _f(omega2)]
        op.update(omega1=omega1, omega2=omega2)
    elif kind == "reconstruct":
        p = _populations(rng)
        theta_deg = rng.uniform(1.0, 40.0)
        c = math.cos(2.0 * math.radians(theta_deg))
        obs = (p[0] - p[3] + (p[1] - p[2]) * c,
               p[0] - p[3] + (p[2] - p[1]) * c,
               p[0] + p[3] - p[1] - p[2])
        argv = ["reconstruct", "--p1z", _f(obs[0]), "--p2z", _f(obs[1]),
                "--p1z2z", _f(obs[2]), "--theta-deg", _f(theta_deg)]
        op.update(observables=obs, theta_deg=theta_deg)
    elif kind == "invalid":
        argv = rng.choice((
            ["concurrence", "--omega-sigma", "2", "--omega-delta", "1", "--tau", "-1"],
            ["concurrence", "--omega-sigma", "2", "--omega-delta", "1"],
            ["scan", "--axis", "tau", "--from", "0", "--to", "1", "--points", "0"],
            ["scan", "--axis", "field", "--from", "0", "--to", "1", "--points", "5",
             "--omega-delta", "1"],
            ["threshold"],
            ["spectrum", "--omega-sigma", "2", "--omega-delta", "1", "--tau", "1",
             "--phi", "200"],
            ["crossing"],
            ["crossing", "--preset", "hx"],
            ["reconstruct", "--p1z", "0.1", "--p2z", "0.1", "--p1z2z", "0",
             "--theta-deg", "45"],
        ))
        op.update(expect_exit=2)
    else:
        raise ValueError(kind)
    op["argv"] = argv
    return op


def scalar_ops(seed: int) -> list[dict]:
    """Short CLI commands: the kind mix is a cycle, shuffled per cycle."""
    rng = random.Random(f"scalar:{seed}")
    ops = []
    while len(ops) < SCALAR_OPS:
        cycle = list(SCALAR_CYCLE)
        rng.shuffle(cycle)
        ops.extend(_scalar_op(rng, kind) for kind in cycle)
    return ops[:SCALAR_OPS]


def _random_unitary(rng: random.Random) -> list[list[complex]]:
    rows: list[list[complex]] = []
    for _ in range(4):
        v = [complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]
        for u in rows:
            d = sum(a.conjugate() * b for a, b in zip(u, v))
            v = [b - d * a for a, b in zip(u, v)]
        norm = math.sqrt(sum(abs(b) ** 2 for b in v))
        rows.append([b / norm for b in v])
    return rows


def dense_state(rng: random.Random) -> list[list[list[float]]]:
    """Full-rank state U diag(lam) U^+ with lam >= ~0.001: well conditioned,
    entangled about two times in three. Returned as [re, im] pairs."""
    top = rng.uniform(0.4, 0.94)
    rest = [rng.uniform(0.02, 1.0) for _ in range(3)]
    scale = (1.0 - top) / sum(rest)
    lam = [top] + [r * scale for r in rest]
    u = _random_unitary(rng)
    rho = [[sum(lam[k] * u[k][i] * u[k][j].conjugate() for k in range(4))
            for j in range(4)] for i in range(4)]
    return [[[z.real, z.imag] for z in row] for row in rho]


def _crosscheck_system(rng: random.Random, kind: str) -> dict:
    coupling = log_uniform(rng, 1e-2, 1e2)
    omega_delta = coupling * log_uniform(rng, 1e-2, 1e2)
    if kind == "delta_dominant":
        omega_delta = coupling * log_uniform(rng, 1e3, 1e6)
    elif kind == "weak_coupling":
        coupling = omega_delta * log_uniform(rng, 1e-12, 1e-6)
    elif kind == "homonuclear":
        omega_delta = 0.0
    crit = critical_sigma(omega_delta, coupling)
    if kind == "crossing":
        omega_sigma = crit
    elif kind == "near_crossing":
        omega_sigma = crit * (1.0 + rng.choice((-1.0, 1.0)) * log_uniform(rng, 1e-9, 1e-3))
    else:
        omega_sigma = crit * rng.uniform(0.0, 2.5)
    if rng.random() < CROSSCHECK_ZERO_TEMP:
        beta = math.inf
    else:
        beta = log_uniform(rng, 1e-3, 1e3) / coupling
    return {"kind": kind, "omega_sigma": omega_sigma, "omega_delta": omega_delta,
            "coupling": coupling, "beta": beta, "phi": rng.uniform(0.01, math.pi)}


def crosscheck_ops(seed: int) -> list[dict]:
    """Pool of systems cycled by the in-process crosscheck loop."""
    rng = random.Random(f"crosscheck:{seed}")
    ops, kinds = [], []
    for i in range(CROSSCHECK_POOL):
        if i % CROSSCHECK_DENSE_EVERY == CROSSCHECK_DENSE_EVERY - 1:
            ops.append({"kind": "dense", "rho": dense_state(rng)})
            continue
        if not kinds:
            kinds = list(CROSSCHECK_KINDS)
            rng.shuffle(kinds)
        ops.append(_crosscheck_system(rng, kinds.pop()))
    return ops


def threshold_ops(seed: int) -> list[dict]:
    """Pool of thresholds: (omega_delta, J) pairs, presets, SI couplings."""
    rng = random.Random(f"threshold:{seed}")
    ops = []
    while len(ops) < THRESHOLD_POOL:
        cycle = list(THRESHOLD_CYCLE)
        rng.shuffle(cycle)
        for kind in cycle:
            if kind == "tau":
                ops.append({"kind": kind, "omega_delta": log_uniform(rng, 1e-3, 1e4),
                            "coupling": log_uniform(rng, 1e-2, 1e2)})
            elif kind == "temperature":
                ops.append({"kind": kind, "preset": rng.choice(THRESHOLD_PRESETS),
                            "field": log_uniform(rng, 1e-2, 1e3),
                            "coupling": log_uniform(rng, 1e-2, 1e2)})
            else:
                ops.append({"kind": kind, "j_hz": log_uniform(rng, *J_HZ_RANGE)})
    return ops[:THRESHOLD_POOL]


# CLI runs end on a cycle boundary of their mix
CYCLE_OPS = {"scan": len(SCAN_MIX), "scalar": len(SCALAR_CYCLE)}

GENERATORS = {
    "scan": scan_ops,
    "scalar": scalar_ops,
    "crosscheck": crosscheck_ops,
    "threshold": threshold_ops,
}


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)


def input_hash(ops: list[dict]) -> str:
    """sha256 of the canonical JSON of the generated inputs."""
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()

"""Fresh worker process for the in-process workloads and the traced runs.

Protocol on stdin/stdout, one JSON object per line:

1. the parent writes the config ``{"workload", "seed", "seconds",
   "mode", "trace_ops", "digits", "out_dir"}``;
2. the worker generates the inputs, imports spinpair and answers
   ``{"ready": true, "input_hash": ...}``; the parent times steps 1-2
   as set-up;
3. the parent writes ``"go"`` (or ``"quit"``) and the worker answers
   with one result object.

``mode`` is ``timed`` (closed loop for ``seconds``, tracing off) or
``traced`` (the first ``trace_ops`` ops twice untraced, to warm up and
then as the baseline, and once traced).
Outputs are checked against ``reference`` after the timed loop.
"""

from __future__ import annotations

import io
import json
import math
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import workloads

CLI_WORKLOADS = ("scan", "scalar")
# cos 2theta below this makes reconstruction too ill-conditioned to compare
RECONSTRUCT_MIN_COS = 1e-3
# threshold slots checked against the 30-digit root; every slot gets the float root
MP_SAMPLE = 256
MAX_REPORTED_FAILURES = 5
RATE_WINDOWS = 10
# Latencies kept for the percentiles. The buffer is allocated up front, so
# the worker's RSS does not depend on how many ops a run gets through.
# When it fills, every 3rd sample is kept: the pools have power-of-two
# sizes, so a stride of 3**k still visits every slot.
LATENCY_SAMPLES = 3 << 15
LATENCY_THIN = 3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentiles(latencies) -> dict:
    """Median and the highest ladder percentile with >= 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)

    def at(q):
        return xs[max(0, min(n - 1, math.ceil(q / 100.0 * n) - 1))]

    tail_q = 50.0
    for q in (75.0, 90.0, 95.0, 99.0, 99.9, 99.99, 99.999):
        if n * (1.0 - q / 100.0) >= 10.0:
            tail_q = q
    return {"n": n, "p50_s": at(50.0), "tail_q": tail_q, "tail_s": at(tail_q)}


class Latencies:
    """Op latencies in memory that does not grow with the op rate.

    Every op adds to its wall-clock slice's count and busy time (for
    ``window_rate``) and to the total busy time. The percentiles use a
    sample of at most LATENCY_SAMPLES latencies: every op until the
    buffer fills, then every 3rd, every 9th, ... op, thinning the kept
    sample to a third each time the buffer fills again.
    """

    def __init__(self, seconds: float | None):
        self.sample = array("d", bytes(8 * LATENCY_SAMPLES))
        self.kept = 0
        self.stride = 1
        self.count = 0
        self.busy = 0.0
        self.slice_s = seconds / RATE_WINDOWS if seconds else math.inf
        self.slice_ops = [0] * RATE_WINDOWS
        self.slice_busy = [0.0] * RATE_WINDOWS

    def add(self, since_start: float, seconds: float) -> None:
        k = min(int(since_start / self.slice_s), RATE_WINDOWS - 1)
        self.slice_ops[k] += 1
        self.slice_busy[k] += seconds
        self.busy += seconds
        if self.count % self.stride == 0:
            if self.kept == LATENCY_SAMPLES:
                self.kept = LATENCY_SAMPLES // LATENCY_THIN
                self.sample[:self.kept] = self.sample[::LATENCY_THIN]
                self.stride *= LATENCY_THIN
            self.sample[self.kept] = seconds
            self.kept += 1
        self.count += 1

    def percentiles(self) -> dict:
        return percentiles(self.sample[:self.kept])

    def window_rate(self) -> float:
        """Median over the wall-clock slices of the run of ops per busy second.

        On a shared machine a neighbour's burst slows a few seconds of a
        run; the median over slices keeps it from moving the whole figure.
        """
        rates = [n / b for n, b in zip(self.slice_ops, self.slice_busy) if n]
        return statistics.median(rates)


# ------------------------------------------------------------- in-process ops


class InProcess:
    """Runs crosscheck or threshold ops against the imported package."""

    def __init__(self, workload: str, ops: list[dict]):
        import numpy as np
        import spinpair

        self.np = np
        self.sp = spinpair
        self.workload = workload
        self.ops = ops
        self.args = [self._prepare(op) for op in ops]
        self.run = self._crosscheck if workload == "crosscheck" else self._threshold

    def _prepare(self, op):
        if op["kind"] == "dense":
            m = self.np.array(op["rho"], dtype=float)
            return m[..., 0] + 1j * m[..., 1]
        return op

    def _crosscheck(self, slot: int):
        sp = self.sp
        op = self.args[slot]
        if not isinstance(op, dict):
            return (sp.oracle.wootters_concurrence(op),)
        ws, wd, j, beta = op["omega_sigma"], op["omega_delta"], op["coupling"], op["beta"]
        params = sp.model.derive_from_sigma_delta(ws, wd, j)
        theta = params.theta
        pops = sp.thermo.populations(sp.thermo.energies(params, j), beta)
        c_pop = sp.entangle.concurrence_from_populations(pops, theta)
        c_par = sp.entangle.concurrence_for_params(params, j, beta)
        c_hom = sp.entangle.concurrence_homonuclear(0.5 * ws, j, beta) if wd == 0.0 else math.nan
        rho = sp.thermo.density_matrix(pops, theta)
        c_orc = sp.oracle.wootters_concurrence(rho.to_array())
        obs = sp.observe.polarizations(pops, theta)
        if abs(params.cos_2theta) >= RECONSTRUCT_MIN_COS:
            rec = sp.observe.reconstruct_populations(obs, theta).probs
            c_obs = sp.observe.concurrence_from_observables(obs, theta)
        else:
            rec, c_obs = (math.nan,) * 4, math.nan
        amps = sp.spectrum.transition_amplitudes(pops, theta, op["phi"])
        ground = -1
        if ws >= wd:
            system = sp.model.SpinSystem(0.5 * (ws + wd), 0.5 * (ws - wd), j)
            ground = sp.critical.ground_state(system).index
        return (*pops.probs, c_pop, c_par, c_hom, c_orc, c_obs, *rec,
                amps["T43"], amps["T21"], amps["T42"], amps["T31"], ground)

    def _threshold(self, slot: int):
        sp = self.sp
        op = self.args[slot]
        kind = op["kind"]
        if kind == "tau":
            return sp.entangle.threshold_tau(op["omega_delta"], op["coupling"])
        if kind == "temperature":
            system = sp.model.preset(op["preset"], op["field"], op["coupling"])
            return sp.entangle.threshold_temperature(system)
        return sp.entangle.threshold_kelvin(op["j_hz"])

    def loop(self, count: int | None, seconds: float | None, tracer=None):
        """Closed loop over the pool, for ``count`` ops or ``seconds``.

        Returns the ``Latencies``, the first output of every slot that ran,
        and the ops whose output differed from their slot's first output.
        """
        pool = len(self.ops)
        first: list = [None] * pool
        lat = Latencies(seconds)
        differing: list[int] = []
        run = self.run
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds if seconds is not None else math.inf
        i = 0
        while count is None or i < count:
            slot = i % pool
            if tracer is not None:
                tracer.op_id = i
            t0 = clock()
            try:
                out = run(slot)
            except Exception as exc:  # an op that raises is a failed op
                out = f"{type(exc).__name__}: {exc}"
            t1 = clock()
            lat.add(t1 - start, t1 - t0)
            if i < pool:
                first[slot] = out
            elif out != first[slot]:
                differing.append(i)
            i += 1
            if t1 >= deadline:
                break
        return lat, first, differing

    def check(self, first: list, seed: int) -> dict[int, str]:
        """{slot: reason} for the slots that ran and fail their reference."""
        import reference

        bad = {}
        check = self._check_crosscheck if self.workload == "crosscheck" else self._check_threshold
        mp_slots = set(random.Random(f"mp:{seed}").sample(range(len(first)), MP_SAMPLE))
        for slot, out in enumerate(first):
            if out is None:
                continue
            if isinstance(out, str):
                bad[slot] = f"raised {out}"
                continue
            reason = check(reference, slot, out, slot in mp_slots)
            if reason:
                bad[slot] = f"({self.ops[slot]['kind']}) {reason}"
        return bad

    def failures(self, n_ops: int, bad: dict[int, str], differing: list[int],
                 passes: int = 1) -> tuple[int, list[str]]:
        """Failed-op count of ``passes`` passes of ``n_ops`` ops, and the first
        reasons. A slot that fails its reference fails every time it ran.
        """
        pool = len(self.ops)
        failed = passes * sum(n_ops // pool + (slot < n_ops % pool) for slot in bad)
        failed += sum(1 for i in differing if i % pool not in bad)
        reasons = [f"slot {s}: {r}" for s, r in bad.items()]
        reasons += [f"op {i}: output differs from slot {i % pool}'s first" for i in differing]
        return failed, reasons[:MAX_REPORTED_FAILURES]

    def _check_threshold(self, ref, slot, out, use_mp) -> str | None:
        op = self.ops[slot]
        kind = op["kind"]
        if kind == "kelvin":
            want = ref.threshold_kelvin(op["j_hz"])
        else:
            wd = op["omega_delta"] if kind == "tau" else ref.preset_delta(op["preset"], op["field"])
            want = ref.threshold_tau(wd, op["coupling"])
            if use_mp:
                mp_want = ref.mp_threshold_tau(wd, op["coupling"])
                if out is None or not ref.close(out, mp_want):
                    return f"{out!r} vs 30-digit {mp_want!r}"
        if out is None or not ref.close(out, want):
            return f"{out!r} vs {want!r}"
        return None

    def _check_crosscheck(self, ref, slot, out, _use_mp) -> str | None:
        np = self.np
        op = self.ops[slot]
        if op["kind"] == "dense":
            want = ref.wootters(self.args[slot])
            return None if abs(out[0] - want) <= ref.AGREE_TOL else f"oracle {out[0]!r} vs {want!r}"
        ws, wd, j, beta = op["omega_sigma"], op["omega_delta"], op["coupling"], op["beta"]
        pops, c_pop, c_par, c_hom, c_orc, c_obs = out[:4], *out[4:9]
        rec, amps, ground = out[9:13], out[13:17], out[17]
        p_mp, c_mp = ref.mp_thermal(ws, wd, j, beta)
        if not all(ref.close(a, b) for a, b in zip(pops, p_mp)):
            return f"populations {pops!r} vs 30-digit {p_mp!r}"
        if not ref.close(c_par, c_mp):
            return f"concurrence_for_params {c_par!r} vs 30-digit {c_mp!r}"
        routes = {"populations": (c_pop, ref.AGREE_TOL), "oracle": (c_orc, ref.AGREE_TOL)}
        if wd == 0.0:
            routes["homonuclear"] = (c_hom, ref.AGREE_TOL)
        if not math.isnan(c_obs):
            theta = 0.5 * math.atan2(j, wd)
            routes["observables"] = (c_obs, ref.observables_tolerance(p_mp, theta))
            if not all(abs(a - b) <= ref.AGREE_TOL for a, b in zip(rec, pops)):
                return f"reconstructed {rec!r} vs {pops!r}"
        for name, (value, tol) in routes.items():
            if not abs(value - c_par) <= tol:
                return f"{name} route {value!r} vs closed form {c_par!r}"
        lines = ref.spectrum_lines(ws, wd, j, beta, op["phi"])
        want = [lines[t][1] for t in ref.TRANSITIONS]
        if not all(ref.close(a, b) for a, b in zip(amps, want)):
            return f"amplitudes {amps!r} vs {want!r}"
        if ground != -1:
            o1, o2 = 0.5 * (ws + wd), 0.5 * (ws - wd)
            e = ref.levels(o1 + o2, o1 - o2, j)
            scale = max(1.0, float(np.abs(e).max()))
            members = np.flatnonzero(e - e.min() <= ref.DEGENERACY_RTOL * scale)
            if ground != int(members[0]) + 1:
                return f"ground state {ground} vs {int(members[0]) + 1}"
        return None


# ---------------------------------------------------------------- CLI in-process


class _Sink:
    """stdout replacement that keeps what is written for the byte count."""

    def __init__(self):
        self.chunks: list[str] = []
        self.write = self.chunks.append

    def flush(self):
        pass


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    sink = _Sink()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = sink, io.StringIO()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects usage errors this way
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout, sys.stderr = saved
    return code, "".join(sink.chunks)


def scan_mp_rows(seed: int, index: int, points: int) -> list[int]:
    """Seeded rows of a scan checked against the 30-digit reference."""
    rng = random.Random(f"rows:{seed}:{index}")
    return sorted({0, points - 1, rng.randrange(points)})


def cli_pass(cli, ops, seed, digits, tracer=None):
    """One pass over CLI ops in-process; returns (seconds, failures, bytes, rows)."""
    import reference

    total = 0.0
    failures, nbytes, nrows = [], 0, 0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = time.perf_counter()
        code, text = run_cli(cli, op["argv"])
        total += time.perf_counter() - t0
        nbytes += len(text.encode())
        nrows += text.count("\n")
        rows = scan_mp_rows(seed, i, op["points"]) if op["kind"].startswith("scan") else []
        reason = reference.check_cli(op, code, text, digits, rows)
        if reason:
            failures.append(f"op {i} ({op['kind']}): {reason}")
    return total, failures, nbytes, nrows


# ------------------------------------------------------------------ modes


def timed(cfg: dict, runner: InProcess) -> dict:
    lat, first, differing = runner.loop(None, cfg["seconds"])
    rss = peak_rss_mb()
    failed, reasons = runner.failures(lat.count, runner.check(first, cfg["seed"]), differing)
    return {
        "attempted": lat.count, "failed": failed, "failures": reasons,
        "ops_per_s": lat.window_rate(), "peak_rss_mb": rss, **lat.percentiles(),
    }


def traced(cfg: dict, ops: list[dict]) -> dict:
    import spinpair.cli as cli
    from spans import MODULES, Tracer

    workload, seed, n = cfg["workload"], cfg["seed"], cfg["trace_ops"]
    tracer = Tracer()
    if workload in CLI_WORKLOADS:
        chosen = ops[:n]
        # the first pass warms caches, the second is the untraced baseline
        passes = [cli_pass(cli, chosen, seed, cfg["digits"]) for _ in range(2)]
        base_s = passes[1][0]
        tracer.install()
        try:
            passes.append(cli_pass(cli, chosen, seed, cfg["digits"], tracer))
        finally:
            tracer.uninstall()
        traced_s, _, nbytes, nrows = passes[2]
        reasons = [r for p in passes for r in p[1]]
        failed = len(reasons)
        attempted = 3 * len(chosen)
    else:
        runner = InProcess(workload, ops)
        _, first, differing = runner.loop(n, None)
        bad = runner.check(first, seed)
        lat, _, more = runner.loop(n, None)
        base_s = lat.busy
        tracer.install()
        try:
            tlat, tfirst, traced_more = runner.loop(n, None, tracer)
        finally:
            tracer.uninstall()
        traced_s = tlat.busy
        for slot, (a, b) in enumerate(zip(first, tfirst)):
            if a != b:
                bad.setdefault(slot, "traced output differs")
        failed, reasons = runner.failures(n, bad, differing + more + traced_more, passes=3)
        nbytes = nrows = 0
        attempted = 3 * n
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.save(out_dir / f"spans-{workload}.npz")

    summary = tracer.module_summary()
    metrics = {}
    for m in MODULES:
        metrics[f"{m}.calls"] = summary[m]["calls"]
        metrics[f"{m}.self_s"] = summary[m]["self_s"]
        metrics[f"{m}.errors"] = summary[m]["errors"]
    paths = tracer.oracle_path
    thresholds = tracer.calls_of("entangle", "threshold_beta")
    gap_evals = tracer.calls_of("entangle", "entanglement_gap")
    metrics.update({
        "entangle.sweep_points": tracer.sweep_points,
        "entangle.gap_evals": gap_evals,
        "entangle.gap_evals_per_threshold": gap_evals / thresholds if thresholds else 0.0,
        "oracle.x_calls": len(paths["x"]),
        "oracle.dense_calls": len(paths["dense"]),
        # 0 where the workload never takes that path
        "oracle.x_us_p50": 1e6 * percentiles(paths["x"])["p50_s"] if paths["x"] else 0.0,
        "oracle.dense_us_p50": (1e6 * percentiles(paths["dense"])["p50_s"]
                                if paths["dense"] else 0.0),
        "cli.bytes_out": nbytes,
        "cli.rows_out": nrows,
        "trace.op_s": traced_s,
        "trace.overhead_frac": traced_s / base_s - 1.0,
    })
    return {
        "attempted": attempted, "failed": failed,
        "failures": reasons[:MAX_REPORTED_FAILURES], "metrics": metrics, "info": {},
    }


def main() -> int:
    cfg = json.loads(sys.stdin.readline())
    ops = workloads.generate(cfg["workload"], cfg["seed"])
    digest = workloads.input_hash(ops)
    import spinpair  # noqa: F401  (set-up includes the package import)

    runner = None
    if cfg["mode"] == "timed":
        runner = InProcess(cfg["workload"], ops)
    print(json.dumps({"ready": True, "input_hash": digest}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = timed(cfg, runner) if runner is not None else traced(cfg, ops)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

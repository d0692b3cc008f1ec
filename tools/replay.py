"""Replay the benchmark's command lines and a seeded set of library draws on a change and on its
parent, and count the ops and the draws whose results differ.

    python3 tools/replay.py --base HEAD

The change is the source tree this script sits in, as it stands; the parent is the commit
--base names, exported with tools/pairs.py's export. The ops are the 1,200 scalar_ops of each
of seeds 1, 2 and 90217 and the first 45 scan_ops(1) of this tree's bench/workloads.py: 3,645
argv lists. Each tree runs all of them through cli.main in process, in a subprocess of its own
with its own src/ first on sys.path, at the default SPINPAIR_PRECISION. The library draws reach
what the CLI cannot, since it fixes J = 1: library_draws lists them. Each draw's points run
through thermo._gaps and thermo._ground, and through populations_for_params,
concurrence_for_params and the oracle's wootters_concurrence of the thermal state at its beta
and at beta = inf, in the same subprocess; the first DENSE draws also
carry one dense state, for the oracle's other path. The first line printed is "N of 3,645
replayed ops differ from <base>", the second "M of 10,000 library draws differ from <base>"; the
argv, exit codes and first differing output line of the first few differing ops, and the first
differing call of the first few differing draws, follow. The exit status is 1 if any op or draw
differs. On a pull request, CI fails on any difference unless the pull request adds to
CHANGES.md the line "REPLAY: N of 3,645 ops, M of 10,000 draws" with the two printed counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALAR_SEEDS = (1, 2, 90217)
SCAN_OPS = 45
SHOWN = 3
HEAD_CHARS = 4096  # of each output, kept to show where two outputs part
DRAWS, DRAW_SEED = 10_000, 1
DENSE = 64  # draws that carry a dense state
CORNER = 0.3  # the share of draws with omega_delta and J in the subnormal corner
CORNER_UNITS = 2024  # its top, 2024 * 5e-324 ~ 1e-320


def _module(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def replay_argvs() -> list[list[str]]:
    """The argv of every replayed op, in order."""
    workloads = _module(ROOT / "bench" / "workloads.py")
    ops = [op for seed in SCALAR_SEEDS for op in workloads.scalar_ops(seed)]
    return [op["argv"] for op in ops + workloads.scan_ops(1)[:SCAN_OPS]]


def run_ops(argvs: list[list[str]]) -> list[list]:
    """[exit code, sha256 of stdout, its first HEAD_CHARS characters] of each argv, run through
    the cli.main that import finds; stderr is dropped."""
    from spinpair.cli import main

    results = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        text = out.getvalue()
        results.append([code, hashlib.sha256(text.encode()).hexdigest(), text[:HEAD_CHARS]])
    return results


def library_draws(count: int = DRAWS, seed: int = DRAW_SEED) -> list[list]:
    """[omega_delta, J, beta, omega_sigmas, dense] of each seeded library draw. omega_delta and J
    are log-uniform in [1e-300, float max], or, for a CORNER share of draws, whole multiples of
    5e-324 up to about 1e-320; beta is log-uniform in [1e-3, 1e3] over max(omega_delta, J), capped
    at float max. The omega_sigmas are 0, 5e-324, omega_delta / 2, omega_delta, 2 omega_delta and
    the crossings D + J and |D - J| with their float neighbours, where finite, each once. dense is
    a state of bench/workloads.py's dense_state, as [re, im] pairs, in the first DENSE draws and
    None in the others; drawn from a stream of its own, it leaves the other fields as they were."""
    rng = random.Random(seed)
    dense_state = _module(ROOT / "bench" / "workloads.py").dense_state
    dense_rng = random.Random(f"dense:{seed}")
    lo, hi = math.log(1e-300), math.log(sys.float_info.max)
    draws = []
    for _ in range(count):
        if rng.random() < CORNER:
            wd, j = (rng.randint(0, CORNER_UNITS) * 5e-324 for _ in range(2))
        else:
            wd, j = (math.exp(rng.uniform(lo, hi)) for _ in range(2))
        beta = math.exp(rng.uniform(math.log(1e-3), math.log(1e3))) / max(wd, j, 5e-324)
        d = math.hypot(wd, j)
        sigmas = [0.0, 5e-324, 0.5 * wd, wd, 2.0 * wd]
        for cross in (d + j, abs(d - j)):
            sigmas += [math.nextafter(cross, 0.0), cross, math.nextafter(cross, math.inf)]
        sigmas = list(dict.fromkeys(x for x in sigmas if x < math.inf))
        dense = dense_state(dense_rng) if len(draws) < DENSE else None
        draws.append([wd, j, min(beta, sys.float_info.max), sigmas, dense])
    return draws


def _outcome(function, *args) -> str:
    """repr of function(*args), or the class and message of the ValueError or ArithmeticError
    that it raises."""
    try:
        return repr(function(*args))
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _thermal_oracle(params, coupling: float, beta: float) -> float:
    """wootters_concurrence of the thermal state of params at beta."""
    from spinpair import oracle, thermo

    pops = thermo.populations_for_params(params, coupling, beta)
    return oracle.wootters_concurrence(thermo.density_matrix(pops, params.theta).to_array())


def run_draws(draws: list[list]) -> list[list[str]]:
    """The _outcome of each call of each draw, in order, through the spinpair that import
    finds."""
    from spinpair import entangle, model, oracle, thermo

    results = []
    for wd, j, beta, sigmas, dense in draws:
        outcomes = []
        for ws in sigmas:
            try:
                params = model.derive_from_sigma_delta(ws, wd, j)
            except (ValueError, ArithmeticError) as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
                continue
            outcomes += [_outcome(thermo._gaps, params), _outcome(thermo._ground, params, ws)]
            outcomes += [_outcome(f, params, j, b) for b in (beta, math.inf)
                         for f in (thermo.populations_for_params, entangle.concurrence_for_params,
                                   _thermal_oracle)]
        if dense is not None:
            rho = [[complex(re, im) for re, im in row] for row in dense]
            outcomes.append(_outcome(oracle.wootters_concurrence, rho))
        results.append(outcomes)
    return results


def serve() -> None:
    """Read {"argvs": argv lists, "draws": library draws} as JSON from stdin; write the spinpair
    file that ran them, their run_ops results and their run_draws outcomes as JSON to stdout."""
    job = json.load(sys.stdin)
    results, draws = run_ops(job["argvs"]), run_draws(job["draws"])
    json.dump({"spinpair": sys.modules["spinpair"].__file__, "results": results, "draws": draws},
              sys.stdout)


def replay_in(tree: Path, argvs: list[list[str]], draws: list[list]) -> tuple[list, list]:
    """run_ops of argvs and run_draws of draws in a subprocess that imports spinpair from
    tree/src."""
    code = (f"import sys; sys.path[:0] = [{str(tree / 'src')!r}, {str(ROOT / 'tools')!r}]; "
            "import replay; replay.serve()")
    env = {k: v for k, v in os.environ.items() if k != "SPINPAIR_PRECISION"}
    res = subprocess.run([sys.executable, "-c", code], input=json.dumps({"argvs": argvs,
                         "draws": draws}), cwd=tree, env=env, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"replay in {tree} exited {res.returncode}: {res.stderr[-2000:]}")
    reply = json.loads(res.stdout)
    if not Path(reply["spinpair"]).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"replay in {tree} imported spinpair from {reply['spinpair']}")
    return reply["results"], reply["draws"]


def differing(base: list[list], change: list[list]) -> list[int]:
    """Indices of the ops whose exit code or stdout differ."""
    if len(base) != len(change):
        raise ValueError(f"expected as many results on both sides, got {len(base)}, {len(change)}")
    return [i for i, (b, c) in enumerate(zip(base, change)) if b[:2] != c[:2]]


def differing_draws(base: list[list[str]], change: list[list[str]]) -> list[int]:
    """Indices of the draws with any call whose outcome differs."""
    if len(base) != len(change):
        raise ValueError(f"expected as many draws on both sides, got {len(base)}, {len(change)}")
    return [i for i, (b, c) in enumerate(zip(base, change)) if b != c]


def describe_draw(draw: list, base: list[str], change: list[str]) -> str:
    """The draw and the first of its calls whose outcomes part."""
    n, b, c = next((n, b, c) for n, (b, c) in enumerate(zip(base, change)) if b != c)
    wd, j, beta = draw[:3]
    return "\n".join([f"library draw omega_delta={wd!r} J={j!r} beta={beta!r}: call {n}",
                      f"    base:   {b}", f"    change: {c}"])


def describe(argv: list[str], base: list, change: list) -> str:
    """The argv, both exit codes and the first line where the two outputs part."""
    lines = [f"spinpair {' '.join(argv)}: exit {base[0]} -> {change[0]}"]
    pairs = zip(base[2].splitlines(), change[2].splitlines())
    parted = next(((n, b, c) for n, (b, c) in enumerate(pairs, 1) if b != c), None)
    if base[1] == change[1]:
        lines.append("  stdout is the same")
    elif parted is None:
        n = min(len(base[2].splitlines()), len(change[2].splitlines()))
        lines.append(f"  the first {n} lines of stdout agree; the outputs part after them")
    else:
        lines += [f"  stdout line {parted[0]}:", f"    base:   {parted[1]}",
                  f"    change: {parted[2]}"]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    args = parser.parse_args(argv)
    argvs, draws = replay_argvs(), library_draws()
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        _module(ROOT / "tools" / "pairs.py").export(args.base, base_tree)
        (base, base_draws), (change, change_draws) = (replay_in(tree, argvs, draws)
                                                      for tree in (base_tree, ROOT))
    diff, draw_diff = differing(base, change), differing_draws(base_draws, change_draws)
    print(f"{len(diff):,} of {len(argvs):,} replayed ops differ from {args.base}")
    print(f"{len(draw_diff):,} of {len(draws):,} library draws differ from {args.base}")
    for i in diff[:SHOWN]:
        print(describe(argvs[i], base[i], change[i]))
    for i in draw_diff[:SHOWN]:
        print(describe_draw(draws[i], base_draws[i], change_draws[i]))
    return 1 if diff or draw_diff else 0


if __name__ == "__main__":
    sys.exit(main())

"""Paired benchmark runs of a change against its parent commit, with a verdict per metric.

    python3 tools/pairs.py --base HEAD --out BENCH_n.json

The change is the source tree this script sits in, as it stands; the parent is
the commit --base names (HEAD while the change is uncommitted, HEAD~1 once it is
committed), exported with `git archive` into a temporary directory. The two
trees must hold the same bench/ and BENCHMARK.json, or nothing runs. For each
workload (every one of BENCHMARK.json, or those --workload names), `bench/run.py
--seed N --trace 0` runs on both trees in ten alternating pairs (a gain needs nine
of the ten won), the parent first in even pairs and the change first in odd ones.
--seed defaults to 1; another seed checks a claim on inputs it was not tuned on:

    python3 tools/pairs.py --base HEAD --seed 90217 --workload scalar --out BENCH_n_90217.json

The output file
holds every run's metrics and, for each end-to-end metric of BENCHMARK.json,
both sides' median and quartiles, the pair wins and a verdict:

    regression  the change's median is worse than the parent's by more than the
                metric's bound;
    unresolved  either side's runs spread (interquartile range over median) wider
                than the bound, and not every run of the change reads better than
                every run of the parent;
    gain        the change wins at least nine tenths of the pairs, ties counting
                for neither, and its median is better than the parent's by more
                than the distance between the parent's quartiles;
    not_met     none of these: no gain shown, and no regression.

Each workload also reports both sides' failed share of attempted ops. Each run
lasts the run_seconds of BENCHMARK.json, plus set-up; the CLI workloads finish
their last cycle of ops.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = "BENCHMARK.json"
SIDES = ("base", "change")
PAIRS = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _relative(x: float, ref: float) -> float:
    """x / |ref|, where ref = 0 gives 0 for x = 0 and an infinity of x's sign otherwise."""
    return x / abs(ref) if ref else (0.0 if x == 0 else math.copysign(math.inf, x))


def verdict(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """The summary and verdict of one metric over pairs (base[i], change[i])."""
    if len(base) != len(change) or not base:
        raise ValueError("expected one base and one change value per pair, at least one pair")
    sign = 1.0 if better == "higher" else -1.0 if better == "lower" else None
    if sign is None:
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    (bq1, bmed, bq3), (cq1, cmed, cq3) = quartiles(base), quartiles(change)
    wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0.0 for b, c in zip(base, change))
    # Relative worsening of the median, and each side's relative spread.
    worse = _relative(-sign * (cmed - bmed), bmed)
    spread = max(_relative(q3 - q1, med) for q1, med, q3 in ((bq1, bmed, bq3), (cq1, cmed, cq3)))
    separated = min(sign * c for c in change) > max(sign * b for b in base)
    if worse > bound:
        outcome = "regression"
    elif spread > bound and not separated:
        outcome = "unresolved"
    elif wins >= 0.9 * len(base) and sign * (cmed - bmed) > bq3 - bq1:
        outcome = "gain"
    else:
        outcome = "not_met"
    return {
        "base": {"q1": bq1, "median": bmed, "q3": bq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "wins": wins, "losses": losses, "ties": len(base) - wins - losses,
        "worse_frac": worse, "spread_frac": spread, "verdict": outcome,
    }


def export(rev: str, into: Path) -> str:
    """Write the files of commit rev under into; return its full hash."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                         capture_output=True, check=True).stdout
    into.mkdir()
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return commit


def same_benchmark(a: Path, b: Path) -> list[str]:
    """Paths under bench/ and BENCHMARK.json that differ between trees a and b."""
    if not filecmp.cmp(a / SPEC, b / SPEC, shallow=False):
        return [SPEC]

    def files(root: Path) -> set[str]:
        return {str(p.relative_to(root)) for p in (root / "bench").rglob("*")
                if p.is_file() and "__pycache__" not in p.parts}

    fa, fb = files(a), files(b)
    return sorted((fa ^ fb) | {f for f in fa & fb if not filecmp.cmp(a / f, b / f, shallow=False)})


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one untraced bench/run.py run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {res.returncode}: {res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / SPEC).read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="the parent commit (default HEAD)")
    parser.add_argument("--seed", type=int, default=1, help="the workload seed (default 1)")
    parser.add_argument("--workload", action="append", choices=names,
                        help="a workload to run; repeat for more (default: every one)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        commit = export(args.base, base_tree)
        differ = same_benchmark(base_tree, ROOT)
        if differ:
            print(f"error: the benchmark differs between {args.base} and the change: {differ}",
                  file=sys.stderr)
            return 1
        trees = {"base": base_tree, "change": ROOT}
        report = {
            "base": {"rev": args.base, "commit": commit},
            "change": {"tree": "the working tree at " + subprocess.run(
                ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
                text=True).stdout.strip()},
            "seed": args.seed, "seconds": seconds, "pairs": PAIRS,
            "host": {"python": platform.python_version(), "machine": platform.machine(),
                     "nproc": os.cpu_count()},
            "workloads": {},
        }
        for workload in args.workload or names:
            runs = []
            for i in range(PAIRS):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    res = run_once(trees[side], workload, args.seed, seconds)
                    runs.append({"pair": i, "side": side, "correct": res["correct"],
                                 "attempted": res["attempted"], "failed": res["failed"],
                                 "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
                    print(f"{workload} pair {i} {side}: " + json.dumps(runs[-1]["metrics"]),
                          flush=True)
            by_side = {s: [r for r in runs if r["side"] == s] for s in SIDES}  # in pair order
            metrics = {
                m["name"]: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                            **verdict(*([r["metrics"][m["name"]] for r in by_side[s]] for s in SIDES),
                                      m["better"], m["bound"])}
                for m in spec["end_to_end"]
            }
            failed = {s: sum(r["failed"] for r in by_side[s])
                      / max(1, sum(r["attempted"] for r in by_side[s])) for s in SIDES}
            report["workloads"][workload] = {
                "correct": all(r["correct"] for r in runs),
                "failed_share": {**failed, "larger": failed["change"] > failed["base"]},
                "metrics": metrics,
                "runs": runs,
            }
            for name, m in metrics.items():
                print(f"{workload:10s} {name:14s} {m['base']['median']:12.6g} -> "
                      f"{m['change']['median']:12.6g} {m['unit']:4s} wins {m['wins']}/{PAIRS}"
                      f"  {m['verdict']}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

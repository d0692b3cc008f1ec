"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py

Runs a few real CLI commands and in-process calls, then shows that the
checks accept the real outputs and that each injected fault raises the
error rate: a perturbed scan row, a perturbed JSON value, a wrong exit
code, a wrong threshold and a wrong oracle value. Exit status 0 means
every expectation held.
"""

from __future__ import annotations

import json
import sys

import reference
import workloads
from run import SRC, child_env, cli_argv, run_process
from worker import InProcess, scan_mp_rows

SEED = 11


def error_rate(results: list[tuple[dict, int, str]]) -> float:
    failed = sum(
        reference.check_cli(op, code, out, 12, scan_mp_rows(SEED, i, op.get("points", 1)))
        is not None
        for i, (op, code, out) in enumerate(results)
    )
    return failed / len(results)


def perturb_row(text: str, row: int) -> str:
    lines = text.splitlines()
    x, c = lines[row].split(",")
    lines[row] = f"{x},{float(c) + 1e-6:.12g}"
    return "\n".join(lines) + "\n"


def main() -> int:
    if not (SRC / "spinpair" / "__init__.py").is_file():
        print(f"error: no spinpair sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    env = child_env()
    scan = dict(workloads.scan_ops(SEED)[1], points=500)
    at = scan["argv"].index("--points") + 1
    scan["argv"] = scan["argv"][:at] + ["500"] + scan["argv"][at + 1:]
    scalar = workloads.scalar_ops(SEED)
    conc = next(op for op in scalar if op["kind"] == "concurrence_tau")
    invalid = next(op for op in scalar if op["kind"] == "invalid")

    results = [(op, *run_process(cli_argv(op["argv"]), env)[:2]) for op in (scan, conc, invalid)]
    checks = []

    def expect(name: str, ok: bool) -> None:
        checks.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}")

    expect("real outputs pass, error_rate 0", error_rate(results) == 0.0)

    bad = list(results)
    bad[0] = (scan, results[0][1], perturb_row(results[0][2], 250))
    expect("perturbed scan row raises error_rate", error_rate(bad) > 0.0)

    payload = json.loads(results[1][2])
    payload["populations"][0] *= 1 + 1e-6
    bad = list(results)
    bad[1] = (conc, 0, json.dumps(payload) + "\n")
    expect("perturbed JSON value raises error_rate", error_rate(bad) > 0.0)

    bad = list(results)
    bad[1] = (conc, 0, results[1][2][:-3] + "\n")
    expect("unparsable JSON raises error_rate", error_rate(bad) > 0.0)

    bad = list(results)
    bad[2] = (invalid, 0, "")
    expect("wrong exit code raises error_rate", error_rate(bad) > 0.0)

    bad = list(results)
    bad[0] = (scan, 0, "\n".join(results[0][2].splitlines()[:-1]) + "\n")
    expect("missing CSV row raises error_rate", error_rate(bad) > 0.0)

    for workload in ("threshold", "crosscheck"):
        runner = InProcess(workload, workloads.generate(workload, SEED)[:300])
        _, first, _ = runner.loop(300, None)
        expect(f"{workload}: real outputs pass", runner.check(first, SEED) == {})
        slot = next(i for i, op in enumerate(runner.ops)
                    if op["kind"] in ("tau", "dense"))
        out = first[slot]
        first[slot] = out * (1 + 1e-6) if isinstance(out, float) else (out[0] + 1e-6,)
        expect(f"{workload}: perturbed value is caught", len(runner.check(first, SEED)) == 1)

    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(main())

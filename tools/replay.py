"""Replay the benchmark's command lines on a change and on its parent, and count the ops whose
exit code or stdout differ.

    python3 tools/replay.py --base HEAD

The change is the source tree this script sits in, as it stands; the parent is the commit
--base names, exported with tools/pairs.py's export. The ops are the 1,200 scalar_ops of each
of seeds 1, 2 and 90217 and the first 45 scan_ops(1) of this tree's bench/workloads.py: 3,645
argv lists. Each tree runs all of them through cli.main in process, in a subprocess of its own
with its own src/ first on sys.path, at the default SPINPAIR_PRECISION. The first line printed
is "N of 3,645 replayed ops differ from <base>"; the argv, exit codes and first differing
output line of the first few differing ops follow. The exit status is 1 if any op differs.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALAR_SEEDS = (1, 2, 90217)
SCAN_OPS = 45
SHOWN = 3
HEAD_CHARS = 4096  # of each output, kept to show where two outputs part


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


def serve() -> None:
    """Read argv lists as JSON from stdin; write the spinpair file that ran them and their
    run_ops results as JSON to stdout."""
    results = run_ops(json.load(sys.stdin))
    json.dump({"spinpair": sys.modules["spinpair"].__file__, "results": results}, sys.stdout)


def replay_in(tree: Path, argvs: list[list[str]]) -> list[list]:
    """run_ops of argvs in a subprocess that imports spinpair from tree/src."""
    code = (f"import sys; sys.path[:0] = [{str(tree / 'src')!r}, {str(ROOT / 'tools')!r}]; "
            "import replay; replay.serve()")
    env = {k: v for k, v in os.environ.items() if k != "SPINPAIR_PRECISION"}
    res = subprocess.run([sys.executable, "-c", code], input=json.dumps(argvs), cwd=tree, env=env,
                         capture_output=True, text=True)
    if res.returncode != 0:
        raise RuntimeError(f"replay in {tree} exited {res.returncode}: {res.stderr[-2000:]}")
    reply = json.loads(res.stdout)
    if not Path(reply["spinpair"]).resolve().is_relative_to(tree.resolve()):
        raise RuntimeError(f"replay in {tree} imported spinpair from {reply['spinpair']}")
    return reply["results"]


def differing(base: list[list], change: list[list]) -> list[int]:
    """Indices of the ops whose exit code or stdout differ."""
    if len(base) != len(change):
        raise ValueError(f"expected as many results on both sides, got {len(base)}, {len(change)}")
    return [i for i, (b, c) in enumerate(zip(base, change)) if b[:2] != c[:2]]


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
    argvs = replay_argvs()
    with tempfile.TemporaryDirectory() as tmp:
        base_tree = Path(tmp) / "base"
        _module(ROOT / "tools" / "pairs.py").export(args.base, base_tree)
        base, change = (replay_in(tree, argvs) for tree in (base_tree, ROOT))
    diff = differing(base, change)
    print(f"{len(diff):,} of {len(argvs):,} replayed ops differ from {args.base}")
    for i in diff[:SHOWN]:
        print(describe(argvs[i], base[i], change[i]))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())

"""Operator mutation testing for src/spinpair, one mutant at a time.

Each mutant makes one change to one module of src/spinpair:

    <  <->  <=      >  <->  >=      ==  <->  !=
    +  <->  -       *  <->  /       (also in +=, -=, *=, /=)
    a non-zero float constant  ->  constant * (1 + 2**-20)

The change is made on the module's ast, which is written back with
ast.unparse. Mutants whose written source is the same are run once.
Each mutant runs `python -m pytest -x -q` in a temporary copy of src, tests,
tools and pyproject.toml, with a TIMEOUT; a mutant that times out counts as killed.
A mutant that every test passes has survived, and is printed as
module:line:col old -> new, with #i after the column for the i-th link of a
chained comparison. The whole pass takes tens of minutes, so it
runs outside the test suite:

    python3 tools/mutate.py [--list] [--match TEXT]

where --match picks the mutants whose label holds TEXT, thermo: for one module.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
NUDGE = 1.0 + 2.0**-20
TIMEOUT = 120.0  # seconds per mutant


def _sites(tree: ast.AST):
    """(node, field, index, new value, label) for every single change the mutant set holds."""
    for node in ast.walk(tree):
        where = f"{getattr(node, 'lineno', '?')}:{getattr(node, 'col_offset', '?')}"
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new, at = SWAPS[type(op)], f"{where}#{i}" if len(node.ops) > 1 else where
                    yield node, "ops", i, new(), f"{at} {SYMBOLS[type(op)]} -> {SYMBOLS[new]}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            yield node, "op", None, new(), f"{where} {SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}"
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            value = node.value * NUDGE
            yield node, "value", None, value, f"{where} {node.value!r} -> {value!r}"


def mutants(path: Path):
    """(label, mutated source) of each distinct mutant of one module; none that leaves it as is."""
    tree = ast.parse(path.read_text())
    seen = {ast.unparse(tree)}  # 5e-324 * (1 + 2**-20) is 5e-324
    for node, field, index, new, label in list(_sites(tree)):
        old = getattr(node, field) if index is None else getattr(node, field)[index]
        _put(node, field, index, new)
        source = ast.unparse(tree)
        _put(node, field, index, old)
        if source not in seen:
            seen.add(source)
            yield label, source


def _put(node, field, index, value):
    if index is None:
        setattr(node, field, value)
    else:
        getattr(node, field)[index] = value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true", help="print the mutants, run none")
    parser.add_argument("--match", default="", help="only mutants whose label contains this")
    args = parser.parse_args(argv)
    package = ROOT / "src" / "spinpair"
    survivors = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        # tests/test_pairs.py reads tools/pairs.py; tests/test_replay.py, bench/workloads.py.
        for name in ("src", "tests", "tools", "bench"):
            shutil.copytree(ROOT / name, Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        env = {**os.environ, "PYTHONPATH": str(Path(tmp) / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        if not args.list and subprocess.run(command, cwd=tmp, env=env,
                                            capture_output=True).returncode:
            sys.exit("the unmutated tests fail")
        for path in sorted(package.glob("*.py")):
            target = Path(tmp) / "src" / "spinpair" / path.name
            killed = count = 0
            for label, source in mutants(path):
                if args.match not in f"{path.stem}:{label}":
                    continue
                count += 1
                if args.list:
                    print(f"{path.stem}:{label}")
                    continue
                target.write_text(source)
                try:
                    run = subprocess.run(command, cwd=tmp, env=env, capture_output=True,
                                         timeout=TIMEOUT)
                    survived = run.returncode == 0
                except subprocess.TimeoutExpired:
                    survived = False
                if survived:
                    print(f"survived {path.stem}:{label}", flush=True)
                killed += not survived
            shutil.copy(path, target)
            survivors, total = survivors + count - killed, total + count
            if not args.list:
                print(f"{path.stem}: {count - killed}/{count} survived", flush=True)
    if not args.list:
        print(f"{survivors} of {total} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())

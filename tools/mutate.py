"""Operator mutation testing for src/spinpair, one mutant at a time.

Each mutant makes one change to one module of src/spinpair:

    <  <->  <=      >  <->  >=      ==  <->  !=
    +  <->  -       *  <->  /       (also in +=, -=, *=, /=)
    a non-zero float constant  ->  constant * (1 + 2**-20)

The change is made on the module's ast, which is written back with
ast.unparse. Mutants whose written source is the same are run once.
Each mutant runs `python -m pytest -x -q` in a temporary copy of src, tests, tools,
bench, pyproject.toml and README.md, with a TIMEOUT; a mutant that times out counts as killed.
A mutant that every test passes has survived, and is printed by its label,
module:function, the source of the mutated node and old -> new, e.g.

    thermo:_pairs c + c_lo: + -> -

where function is the enclosing def or class (Class.method, <module> outside any),
and a label that the module already holds, earlier in source order, gets " #n" for
its n-th occurrence. No line number enters a label, so a mutant keeps its label
when the lines above it move. The whole pass takes tens of minutes, so it
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
from collections import Counter
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


def _walk(node: ast.AST, scope: str = "<module>"):
    """(enclosing def or class, node) for node and each node below it."""
    yield scope, node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = node.name if scope == "<module>" else f"{scope}.{node.name}"
    for child in ast.iter_child_nodes(node):
        yield from _walk(child, scope)


def _sites(tree: ast.AST):
    """(node, field, index, new value, label) for every single change the mutant set holds."""
    sites = []
    for scope, node in _walk(tree):
        if isinstance(node, ast.Compare):
            changes = [("ops", i, SWAPS[type(op)]())
                       for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            changes = [("op", None, SWAPS[type(node.op)]())]
        elif isinstance(node, ast.Constant) and type(node.value) is float and node.value:
            changes = [("value", None, node.value * NUDGE)]
        else:
            continue
        for field, index, new in changes:
            old = _get(node, field, index)
            sites.append((node, field, index, new,
                          f"{scope} {ast.unparse(node)}: {_show(old)} -> {_show(new)}"))
    seen = Counter()
    for node, field, index, new, label in sorted(
            sites, key=lambda site: (site[0].lineno, site[0].col_offset, site[2] or 0)):
        seen[label] += 1
        yield node, field, index, new, label if seen[label] == 1 else f"{label} #{seen[label]}"


def _show(value) -> str:
    return SYMBOLS[type(value)] if isinstance(value, ast.AST) else repr(value)


def _get(node, field, index):
    return getattr(node, field) if index is None else getattr(node, field)[index]


def mutants(path: Path):
    """(label, mutated source) of each distinct mutant of one module; none that leaves it as is."""
    tree = ast.parse(path.read_text())
    seen = {ast.unparse(tree)}  # 5e-324 * (1 + 2**-20) is 5e-324
    for node, field, index, new, label in list(_sites(tree)):
        old = _get(node, field, index)
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
        # tests/test_pairs.py reads tools/pairs.py; tests/test_replay.py, bench/workloads.py;
        # tests/test_readme.py, README.md.
        for name in ("src", "tests", "tools", "bench"):
            shutil.copytree(ROOT / name, Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, tmp)
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

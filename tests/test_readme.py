"""README.md as a tested document, and the docstrings that hold what it leaves out.

The README's ```python block runs as it stands. Each `spinpair ...` line of its ```sh blocks,
with backslash-continued lines joined, is split on whitespace and run through cli.main in
process at the default SPINPAIR_PRECISION: a line that carries `# -> <stdout>` must print
exactly that line, and every other must be a command of test_cli.OUTPUTS and print that row's
stdout. So each example's output is pinned in one place. The README names no module-level
private name of spinpair, which may change without notice, and every function or class in
spinpair.__all__ carries a docstring of its own, where the README's details live. Every name in
spinpair.__all__ has a reader: it appears as a whole word in src/spinpair/cli.py, the README,
bench/*.py or tests/test_acceptance.py, so no public name is kept that nothing uses.
"""

import hashlib
import pkgutil
import re
from importlib import import_module
from pathlib import Path

import pytest

import spinpair
from spinpair import thermo
from spinpair.cli import main
from test_cli import OUTPUTS

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.MULTILINE | re.DOTALL)


def _examples():
    """(command, expected stdout line or None) of each spinpair line of the sh blocks."""
    lines = "".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    examples = []
    for line in lines:
        command, _, comment = line.partition("#")
        if command.startswith("spinpair "):
            expected = comment.strip()[3:] if comment.strip().startswith("-> ") else None
            examples.append((" ".join(command.split()[1:]), expected))
    return examples


def test_quick_start_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_readme_has_both_kinds_of_example():
    kinds = {expected is None for _, expected in _examples()}
    assert kinds == {True, False}


@pytest.mark.parametrize(
    "command, expected", [pytest.param(*example, id=example[0]) for example in _examples()]
)
def test_example_prints_what_the_readme_or_outputs_says(capsys, monkeypatch, command, expected):
    monkeypatch.delenv("SPINPAIR_PRECISION", raising=False)
    # As in test_cli.test_printed_outputs: no CLI route forms the levels.
    monkeypatch.setattr(thermo, "energies", None)
    code = main(command.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if expected is not None:
        assert out == expected + "\n"
        return
    rows = [row.values for row in OUTPUTS if row.values[0].split() == command.split()]
    assert rows, f"no OUTPUTS row and no '# ->' line pins: spinpair {command}"
    ((_, stdout, env),) = rows
    assert env == {}
    if stdout.startswith("sha256:"):
        out = "sha256:" + hashlib.sha256(out.encode()).hexdigest()
    assert out == stdout


def _private_names():
    modules = [spinpair] + [
        import_module(f"spinpair.{info.name}") for info in pkgutil.iter_modules(spinpair.__path__)
    ]
    return {
        name for module in modules for name in vars(module)
        if name.startswith("_") and not name.startswith("__")
    }


def test_readme_names_no_private_name():
    names = _private_names()
    assert "_gaps" in names  # the scan sees the modules
    named = sorted(name for name in names if re.search(rf"\b{re.escape(name)}\b", README))
    assert named == []


def test_public_names_have_their_own_docstrings():
    # A class's __doc__ is its own: a namedtuple subclass without one reads None.
    undocumented = [
        name for name in spinpair.__all__
        if callable(obj := getattr(spinpair, name)) and not obj.__doc__
    ]
    assert undocumented == []


def test_every_public_name_has_a_reader():
    readers = [ROOT / "src" / "spinpair" / "cli.py", ROOT / "README.md",
               *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    texts = [path.read_text() for path in readers]
    unread = [name for name in spinpair.__all__
              if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)]
    assert unread == []

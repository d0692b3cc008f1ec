"""The labels of tools/mutate.py: one per mutant of a module, and no line number in any;
no mutant runs here."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutate)


def _labels(path):
    return [label for label, _ in mutate.mutants(path)]


def test_labels_are_unique_in_each_module():
    for path in sorted((ROOT / "src" / "spinpair").glob("*.py")):
        labels = _labels(path)
        assert labels or path.name == "__init__.py"
        assert len(set(labels)) == len(labels), path.name


def test_a_line_added_above_leaves_every_label_the_same(tmp_path):
    source = ROOT / "src" / "spinpair" / "thermo.py"
    moved = tmp_path / "thermo.py"
    moved.write_text("# one line more\n" + source.read_text())
    assert _labels(moved) == _labels(source)

"""The labels of tools/mutate.py: one per mutant of a module, and no line number in any; and
the filter of its --diff on canned diffs, by changed line and by label new to the module. No
mutant runs here."""

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


_MODULE = '''def f(x):
    return x + 1.0


def g(x):
    return (x
            < 2.0)


def h(x):
    return x * 3.0
'''

# Line 2 changed, lines 6-7 added (g's comparison spans 6-7), a line deleted after 10 and
# one file deleted: only f's and g's mutants are on changed lines.
_DIFF = '''diff --git a/src/spinpair/mod.py b/src/spinpair/mod.py
index 1111111..2222222 100644
--- a/src/spinpair/mod.py
+++ b/src/spinpair/mod.py
@@ -2 +2 @@ def f(x):
-    return x + 2.0
+    return x + 1.0
@@ -5,0 +6,2 @@ def g(x):
+    return (x
+            < 2.0)
@@ -9 +10,0 @@ def h(x):
-    pass
diff --git a/src/spinpair/gone.py b/src/spinpair/gone.py
deleted file mode 100644
--- a/src/spinpair/gone.py
+++ /dev/null
@@ -1 +0,0 @@
-x = 1.0
'''


def test_diff_keeps_the_mutants_on_added_or_changed_lines(tmp_path):
    lines = mutate.changed_lines(_DIFF)
    assert lines == {"src/spinpair/mod.py": {2, 6, 7}}
    module = tmp_path / "mod.py"
    module.write_text(_MODULE)
    every = _labels(module)
    kept = [label for label, _ in mutate.mutants(module, lines["src/spinpair/mod.py"])]
    assert kept == [label for label in every if not label.startswith("h ")]
    assert [label.split()[0] for label in kept] == ["f", "f", "g", "g"]
    # A change to g's second line alone still reaches its comparison, which spans both.
    assert [label for label, _ in mutate.mutants(module, {7})] == kept[2:]
    assert list(mutate.mutants(module, set())) == []


# g renamed to g2: only its def line changes, yet every label of its body is new.
_RENAME = '''diff --git a/src/spinpair/mod.py b/src/spinpair/mod.py
index 2222222..3333333 100644
--- a/src/spinpair/mod.py
+++ b/src/spinpair/mod.py
@@ -5 +5 @@ def f(x):
-def g(x):
+def g2(x):
'''


def test_diff_keeps_the_mutants_whose_label_is_new(tmp_path):
    lines = mutate.changed_lines(_RENAME)["src/spinpair/mod.py"]
    assert lines == {5}
    module = tmp_path / "mod.py"
    module.write_text(_MODULE.replace("def g(x):", "def g2(x):"))
    assert list(mutate.mutants(module, lines)) == []  # g2's body spans no changed line
    kept = [label for label, _ in mutate.mutants(module, lines, mutate.labels(_MODULE))]
    assert kept == [label for label in _labels(module) if label.startswith("g2 ")]
    assert len(kept) == 2
    # A module that REV lacks has no known labels, so every mutant is kept.
    assert [label for label, _ in mutate.mutants(module, set(), set())] == _labels(module)

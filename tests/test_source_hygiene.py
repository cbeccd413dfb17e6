"""Static checks on the package source, by the standard ``ast`` module."""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "padicframes"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def unused_imports(tree):
    """Names bound by an import and never loaded anywhere in the module."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


def field_members(tree, class_name):
    """Public names a class body defines, by ``def`` or assignment."""
    [cls] = [node for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name == class_name]
    names = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def field_reads(tree):
    """(line, member) for every attribute read off a coefficient field,
    spelled ``field.<member>`` or ``<expr>.field.<member>``."""
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = node.value
            if (isinstance(base, ast.Name) and base.id == "field") \
                    or (isinstance(base, ast.Attribute) and base.attr == "field"):
                reads.append((node.lineno, node.attr))
    return sorted(reads)


def both_field_members():
    """The public members of ``ExactField`` and of ``FloatField``."""
    tree = ast.parse((SOURCE / "wavelets.py").read_text())
    return [field_members(tree, name) for name in ("ExactField", "FloatField")]


def test_modules_are_found():
    assert {"padic.py", "wavelets.py", "frames.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) == []


def test_unused_import_is_flagged():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(os.sep, tau)\n")
    assert unused_imports(tree) == [(2, "pi")]


def test_field_classes_define_the_same_members():
    exact, floaty = both_field_members()
    assert exact == floaty and {"zero", "one", "nsq", "check"} <= exact


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_field_reads_name_shared_members(path):
    """A member only one field defines would fail only in that field's mode."""
    exact, floaty = both_field_members()
    members = exact & floaty
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [(line, name) for line, name in field_reads(tree) if name not in members] == []


def test_stale_field_read_is_flagged():
    tree = ast.parse("field = f.field\nfield.nsq(c)\nf.field.conj(c)\n")
    assert field_reads(tree) == [(2, "nsq"), (3, "conj")]
    assert all("conj" not in members for members in both_field_members())

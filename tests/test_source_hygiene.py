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


def is_divisibility(test):
    """Whether ``test`` is ``<x> % <p> == 0``."""
    return isinstance(test, ast.Compare) and isinstance(test.left, ast.BinOp) \
        and isinstance(test.left.op, ast.Mod) \
        and [type(op) for op in test.ops] == [ast.Eq] \
        and isinstance(test.comparators[0], ast.Constant) \
        and test.comparators[0].value == 0


def p_power_splits(tree):
    """(line, kind) for every call of ``rational_norm`` and every ``while``
    loop whose condition, or one operand of an ``and``/``or`` condition, is
    ``<x> % <p> == 0`` or ``all(<x> % <p> == 0 for ...)``: norm values and
    p-power stripping belong to ``padic`` alone."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "rational_norm":
                found.append((node.lineno, "rational_norm"))
        elif isinstance(node, ast.While):
            test = node.test
            for test in test.values if isinstance(test, ast.BoolOp) else [test]:
                if isinstance(test, ast.Call) and getattr(test.func, "id", None) == "all" \
                        and len(test.args) == 1 and isinstance(test.args[0], ast.GeneratorExp):
                    test = test.args[0].elt
                if is_divisibility(test):
                    found.append((node.lineno, "while"))
    return sorted(found)


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


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "padic.py"],
                         ids=lambda path: path.name)
def test_p_power_split_stays_in_padic(path):
    """Outside ``padic`` norm questions are valuation comparisons, and
    powers of p are split off by ``padic._p_part`` only."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert p_power_splits(tree) == []


def test_p_power_split_is_flagged():
    tree = ast.parse("while k % p == 0:\n    k //= p\n"
                     "small = padic.rational_norm(q, p) <= 1\n"
                     "while d and n % p == 0:\n    n //= p\n"
                     "while n % p:\n    n += 1\n"
                     "while lo < low and all(pin % p == 0 for pin in pins):\n"
                     "    pins = [pin // p for pin in pins]\n"
                     "while all(pin % p for pin in pins):\n    pins.pop()\n")
    assert p_power_splits(tree) == [(1, "while"), (3, "rational_norm"), (4, "while"),
                                    (8, "while")]
    padic = ast.parse((SOURCE / "padic.py").read_text())
    assert {kind for _, kind in p_power_splits(padic)} == {"while"}


def p_part_uses(tree):
    """Lines that import ``_p_part`` by name or read it off a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and any(alias.name == "_p_part" for alias in node.names):
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_p_part":
            found.append(node.lineno)
    return sorted(found)


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name not in ("padic.py", "affine.py")],
                         ids=lambda path: path.name)
def test_p_part_stays_in_padic_and_affine(path):
    """The one p-power split is ``padic``'s; only the affine kernel, which
    splits translation denominators, borrows it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert p_part_uses(tree) == []


def test_p_part_use_is_flagged():
    tree = ast.parse("from .padic import rep_mod, _p_part\nfrom . import padic\n"
                     "e, r = padic._p_part(k, p)\nfrom .padic import rep_mod\n")
    assert p_part_uses(tree) == [1, 3]
    affine = ast.parse((SOURCE / "affine.py").read_text())
    assert p_part_uses(affine) != []


def digit_grid_uses(tree):
    """Lines that read ``digit_grid`` by name or off a module."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if (isinstance(node, ast.Name) and node.id == "digit_grid")
                  or (isinstance(node, ast.Attribute) and node.attr == "digit_grid"))


GRID_ORDER_MODULES = ("mra.py", "wavelets.py")


@pytest.mark.parametrize("path", [path for path in MODULES
                                  if path.name not in GRID_ORDER_MODULES],
                         ids=lambda path: path.name)
def test_digit_grid_serves_only_ordered_walks(path):
    """A walk whose order does not matter takes ``range(p**(hi - lo))``;
    ``digit_grid`` is left to the generator order of ``mra`` and the Haar
    oracle's summation order in ``wavelets``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    assert digit_grid_uses(tree) == []


def test_digit_grid_use_is_flagged():
    tree = ast.parse("nums = sorted(digit_grid(p, -1, 1))\nfrom . import padic\n"
                     "walk = padic.digit_grid\nfor n in range(p**2):\n    pass\n")
    assert digit_grid_uses(tree) == [1, 3]
    for name in GRID_ORDER_MODULES:
        assert digit_grid_uses(ast.parse((SOURCE / name).read_text())) != []

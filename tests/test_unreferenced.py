"""Every module-level function and class of the package, and every method and
property of its classes, is reached by the program.

A name counts as reached when a module of ``src/kakeya`` other than
``__init__.py``, or a ``bench/*.py`` file, refers to it outside its own
definition.  A helper that only the tests need belongs in ``tests/lemmas.py``.
Dunder methods are exempt, and so are the methods in ``CALLED_FROM_OUTSIDE``,
which a base class from outside the package calls.
"""

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(p for p in (ROOT / "src" / "kakeya").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))
DEFS = (ast.FunctionDef, ast.ClassDef)
# argparse calls ``ArgumentParser.error`` on bad arguments
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}


def references(node):
    """The names that ``node`` refers to: variables, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def members(cls):
    """The methods and properties of a class, dunders left out."""
    return [
        node for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")
    ]


def scan_module(stem, source, own=True):
    """(module-level definitions, class members, names used) of one module.

    Definitions are dotted names, and only an ``own`` (package) module has
    them.  What a definition refers to inside itself does not count as a use
    of it: a class is not reached by its own methods, bases or body.
    """
    defined, methods, used = [], [], set()
    for node in ast.parse(source).body:
        if not (own and isinstance(node, DEFS)):
            used.update(references(node))
            continue
        defined.append(f"{stem}.{node.name}")
        parts = [(node, {node.name})]
        if isinstance(node, ast.ClassDef):
            inner = members(node)
            methods.extend(f"{stem}.{node.name}.{m.name}" for m in inner)
            rest = [sub for sub in node.body if sub not in inner]
            outer = node.bases + node.keywords + node.decorator_list + rest
            parts = [(m, {m.name, node.name}) for m in inner]
            parts += [(sub, {node.name}) for sub in outer]
        for sub, names in parts:
            used.update(name for name in references(sub) if name not in names)
    return defined, methods, used


def scan():
    """``scan_module`` over the package and the bench, merged."""
    defined, methods, used = [], [], set()
    for path in SRC + BENCH:
        d, m, u = scan_module(path.stem, path.read_text(encoding="utf-8"), path in SRC)
        defined += d
        methods += m
        used |= u
    return defined, methods, used


def test_a_class_named_only_in_its_own_body_is_unreferenced():
    source = textwrap.dedent(
        """
        class Foo(Base):
            size = Foo.default

            def grown(self) -> Foo:
                return Foo(self.size + 1)
        """
    )
    defined, methods, used = scan_module("m", source)
    assert defined == ["m.Foo"] and methods == ["m.Foo.grown"]
    assert "Foo" not in used and "grown" not in used and "Base" in used


def test_every_module_level_name_is_referenced():
    defined, _, used = scan()
    assert [name for name in defined if name.rpartition(".")[2] not in used] == []


def test_every_class_member_is_referenced():
    _, methods, used = scan()
    unused = [name for name in methods if name.rpartition(".")[2] not in used]
    assert [name for name in unused if name not in CALLED_FROM_OUTSIDE] == []

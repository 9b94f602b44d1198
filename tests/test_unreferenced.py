"""Every module-level function and class of the package is reached by the program.

A name counts as reached when a module of ``src/kakeya`` other than
``__init__.py``, or a ``bench/*.py`` file, refers to it outside its own
definition.  A helper that only the tests need belongs in ``tests/lemmas.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(p for p in (ROOT / "src" / "kakeya").glob("*.py") if p.name != "__init__.py")
BENCH = sorted((ROOT / "bench").glob("*.py"))


def references(node):
    """The names that ``node`` refers to: variables, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]


def test_every_module_level_name_is_referenced():
    defined, used = [], set()
    for path in SRC + BENCH:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = path in SRC and isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if own:
                defined.append((path.stem, node.name))
            used.update(name for name in references(node) if not (own and name == node.name))
    assert [f"{module}.{name}" for module, name in defined if name not in used] == []

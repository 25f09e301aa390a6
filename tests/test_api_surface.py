"""Every name the package exports or defines is called from inside the package.

A name that ``driftml/__init__.py`` re-exports but no other module of
``src/driftml`` refers to is public API that the program itself never
runs; it should be deleted or moved next to the test that uses it. The
same holds for every top-level function and class: a helper whose last
caller went goes with it. The functions ``perfbench/tracer.py`` patches
are exempt, since the benchmark counts calls to them."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "driftml")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def parse(name):
    with open(os.path.join(SRC, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def exported_names():
    """``(module, name)`` of every ``from .module import name`` in ``__init__``."""
    return [
        (node.module, alias.asname or alias.name)
        for node in parse("__init__.py").body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def referenced(node) -> set:
    """Names loaded or read as attributes anywhere under ``node`` (string
    constants, docstrings among them, are not references)."""
    return {
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        or isinstance(sub, ast.Attribute)
    }


def defined_names(statement) -> set:
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def uses_by_module() -> dict:
    """Per module: names referenced by each top-level statement, minus the
    names that statement itself defines (so a definition does not count as
    its own use)."""
    uses = {}
    for name in sorted(os.listdir(SRC)):
        if not name.endswith(".py") or name == "__init__.py":
            continue
        module = name[:-3]
        uses[module] = set()
        for statement in parse(name).body:
            uses[module] |= referenced(statement) - defined_names(statement)
    return uses


def test_every_export_is_referenced_inside_the_package():
    uses = uses_by_module()
    everywhere = set().union(*uses.values())
    unused = [f"{module}.{name}" for module, name in exported_names() if name not in everywhere]
    assert unused == []


def traced_names() -> set:
    """The names the tracer patches: the second argument of each of its
    ``wrap(owner, "name", ...)`` calls."""
    with open(TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {
        node.args[1].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "wrap" and isinstance(node.args[1], ast.Constant)
    }


def test_every_definition_is_referenced_inside_the_package():
    everywhere = set().union(*uses_by_module().values()) | traced_names()
    unused = [
        f"{name[:-3]}.{statement.name}"
        for name in sorted(os.listdir(SRC)) if name.endswith(".py")
        for statement in parse(name).body
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and statement.name not in everywhere
    ]
    assert unused == []


def test_a_definition_alone_is_not_a_use():
    module = ast.parse(
        'def lonely(n):\n    """lonely calls itself"""\n    return lonely(n - 1)\n'
        "def caller():\n    return helper()\n"
    )
    used = set()
    for statement in module.body:
        used |= referenced(statement) - defined_names(statement)
    assert "lonely" not in used
    assert "helper" in used


# The fields of ``search.Holdout`` that encode its scoring columns; every
# other module scores a holdout through ``Holdout.columns``.
HOLDOUT_COLUMNS = {"rows", "inverse", "count", "distinct"}


def holdout_field_reads(tree) -> list:
    """Attribute reads named like a ``Holdout`` column field, minus method
    calls (``list.count``), with their line numbers."""
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in HOLDOUT_COLUMNS
        and id(node) not in calls
    )


def test_only_search_reads_the_holdout_columns():
    reads = {
        name: holdout_field_reads(parse(name))
        for name in sorted(os.listdir(SRC))
        if name.endswith(".py") and name != "search.py"
    }
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_holdout_guard_sees_a_field_read_but_not_a_method_call():
    tree = ast.parse("planes.take(holdout.rows)\nkept.count(1)\nw = holdout.count\n")
    assert holdout_field_reads(tree) == [(1, "rows"), (3, "count")]


def pointer_uses(tree) -> list:
    """Imports of ``ctypes`` and reads of a ``ctypes`` or ``ctypeslib``
    attribute (``a.ctypes.data``, ``np.ctypeslib``), with their line numbers."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names if a.name.split(".")[0] == "ctypes"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctypes":
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Attribute) and node.attr in ("ctypes", "ctypeslib"):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_only_kernels_handles_the_c_abi():
    uses = {
        name: pointer_uses(parse(name))
        for name in sorted(os.listdir(SRC))
        if name.endswith(".py") and name != "kernels.py"
    }
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_abi_guard_sees_imports_and_attribute_reads():
    tree = ast.parse("import ctypes.util\nfrom ctypes import CDLL\nx = a.ctypes.data\n"
                     "p = np.ctypeslib.ndpointer\nimport os\n")
    assert pointer_uses(tree) == [(1, "ctypes.util"), (2, "ctypes"), (3, "ctypes"),
                                  (4, "ctypeslib")]

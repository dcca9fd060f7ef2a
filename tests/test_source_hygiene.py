"""Static checks over the package source, in place of a linter.

The runtime is stdlib only, so every absolute import must name a standard
library module. And every name a module, a test or a script imports must be
used in it; `__init__.py` is exempt, because it imports to re-export. What
it imports is exactly what `rwc.__all__` lists, once each and sorted, so a
deleted name cannot leave a stale export behind. And every exported name is
named by a script, the benchmark or README.md: a name that only the
package's own modules or the tests use stays importable from its module but
is not exported, so the export list cannot grow a second form of a fact.
No module binds a mutable container at top level, so the package keeps no
process-wide state such as a memo.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import rwc

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "rwc").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_the_package_has_sources():
    assert {p.name for p in SOURCES} >= {"__init__.py", "model.py", "rewind.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    modules = []
    for node in imports(parse(path)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif node.level == 0:
            modules.append(node.module)
    foreign = [m for m in modules if m.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"] + TESTS + SCRIPTS,
                         ids=lambda p: p.name)
def test_imported_names_are_used(path):
    tree = parse(path)
    bound = []
    for node in imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            bound.append(alias.asname or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in bound if name not in used] == []


def test_all_lists_each_imported_name_once_in_order():
    init = next(p for p in SOURCES if p.name == "__init__.py")
    imported = {alias.asname or alias.name for node in imports(parse(init)) for alias in node.names}
    assert rwc.__all__ == sorted(rwc.__all__)
    assert len(set(rwc.__all__)) == len(rwc.__all__)
    assert set(rwc.__all__) == imported


def test_every_export_has_a_caller_outside_the_tests():
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in SCRIPTS + sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [name for name in rwc.__all__ if name not in used] == []


MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
MUTABLE_TYPES = {"dict", "list", "set", "bytearray"}


def is_mutable_container(node):
    if isinstance(node, MUTABLE_DISPLAYS):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in MUTABLE_TYPES)


def top_level_bindings(tree):
    """(target source, value) of each assignment in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                yield ast.unparse(target), node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            yield ast.unparse(node.target), node.value


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_top_level_mutable_container(path):
    exempt = {"__all__"} if path.name == "__init__.py" else set()
    mutable = [target for target, value in top_level_bindings(parse(path))
               if target not in exempt and is_mutable_container(value)]
    assert mutable == []

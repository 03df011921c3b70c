"""Each public name is declared once, in the module that defines it.

A name is public when it has no leading underscore; no module keeps an
``__all__`` list, and no caller takes a name through a module that only
imported it.  The test reads with ``ast`` every ``from pdcalib.<module>
import <names>`` (and ``from pdcalib import <names>``) in the tests, the
benchmark scripts and the README's ``python`` blocks, and every
``from .<module> import <names>`` in the package's own modules, and
checks that each name is bound at the top level of that module's source
by ``def``, ``class`` or an assignment (or, for the package itself, is a
submodule).  The one exception is ``cli``'s import of itself: a command
takes through ``cli`` only the hooks of its ``_DEFINED_IN`` table, which
the benchmark's trace wraps there and which ``cli`` resolves from their
defining modules on every use without keeping a copy, and every other
name it runs from the module that defines it.  The sources are found
through the imported package's ``__file__``, so an installed package is
checked as installed.
"""

import ast
import re
from pathlib import Path

import pdcalib

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(pdcalib.__file__).resolve().parent


def defined_names(source: Path) -> set[str]:
    """The names the top level of ``source`` binds by def, class or assignment, and for
    the package's ``__init__`` its submodules."""
    names = {p.stem for p in PACKAGE.glob("*.py")} if source.stem == "__init__" else set()
    for node in ast.parse(source.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def sources():
    """(where, code) of every test, benchmark script and README ``python`` block."""
    for path in sorted([*(REPO_ROOT / "tests").glob("*.py"), *(REPO_ROOT / "perfbench").glob("*.py")]):
        yield path.relative_to(REPO_ROOT).as_posix(), path.read_text(encoding="utf-8")
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S), 1):
        yield f"README.md python block {i}", block


def test_each_imported_name_is_defined_where_it_is_imported_from():
    modules = {p.stem: defined_names(p) for p in PACKAGE.glob("*.py")}
    wrong = [f"pdcalib.{m} defines __all__" for m, names in sorted(modules.items()) if "__all__" in names]
    seen = set()
    for where, code in sources():
        for node in ast.walk(ast.parse(code)):
            if not (isinstance(node, ast.ImportFrom) and node.level == 0
                    and (node.module == "pdcalib" or node.module.startswith("pdcalib."))):
                continue
            seen.add(where.split("/")[0].split(" ")[0])
            module = node.module.removeprefix("pdcalib").removeprefix(".") or "__init__"
            wrong += [f"{where}:{node.lineno}: {a.name} is not defined in {node.module}"
                      for a in node.names if a.name not in modules.get(module, ())]
    assert seen == {"tests", "perfbench", "README.md"}, seen
    assert not wrong, "\n".join(wrong)


def test_the_package_imports_each_name_from_the_module_that_defines_it():
    from pdcalib import cli
    modules = {p.stem: defined_names(p) for p in PACKAGE.glob("*.py")}
    wrong = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            module = node.module or "__init__"
            # cli imports from itself only the hooks the benchmark's trace replaces there
            own = (path.stem, module) == ("cli", "cli")
            allowed = set(cli._DEFINED_IN) if own else modules[module]
            wrong += [f"{path.name}:{node.lineno}: from .{node.module or ''} import {a.name}"
                      for a in node.names if a.name not in allowed]
    assert not wrong, "\n".join(wrong)

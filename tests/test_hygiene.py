"""Source hygiene checks over the package, its tests and the benchmark, with the
standard library only."""

from __future__ import annotations

import ast
from pathlib import Path

import faultharness

PACKAGE_DIR = Path(faultharness.__file__).parent
REPO_DIR = Path(__file__).resolve().parent.parent
SCANNED_DIRS = (PACKAGE_DIR, REPO_DIR / "tests", REPO_DIR / "bench")


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """Names a top-level import statement binds in the module namespace."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    # `import a.b` binds `a`; `from m import x as y` binds `y`
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def _declared_exports(tree: ast.Module) -> set[str]:
    """String entries of a top-level `__all__` list or tuple, if the module has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list[str]:
    """Names imported at module level that the module never references."""
    tree = ast.parse(source)
    imported = [
        (name, node.lineno)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in _bound_names(node)
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _declared_exports(tree)
    return [f"{name} (line {line})" for name, line in imported if name not in used]


def test_unused_imports_finds_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from re import compile, sub\n"
        "from .x import Exported\n"
        "__all__ = ['Exported']\n"
        "def f(p) -> compile:\n"
        "    return os.path.join(p)\n"
    )
    assert unused_imports(source) == ["j (line 3)", "sub (line 4)"]


def test_no_module_imports_a_name_it_never_uses():
    found = {
        f"{directory.name}/{path.name}": names
        for directory in SCANNED_DIRS
        for path in sorted(directory.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, f"unused top-level imports: {found}"


def dumps_with_separators(source: str) -> list[int]:
    """Lines of `json.dumps(...)` calls that pass `separators=`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "dumps"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "json"
        and any(keyword.arg == "separators" for keyword in node.keywords)
    ]


def test_dumps_with_separators_finds_only_compact_calls():
    source = (
        "import json\n"
        "a = json.dumps(x, sort_keys=True, indent=2)\n"
        "b = json.dumps(x, separators=(',', ':'))\n"
        "c = ENCODER.encode(x)\n"
        "d = json.dumps(\n    x,\n    separators=(', ', ': '),\n)\n"
    )
    assert dumps_with_separators(source) == [3, 5]


def test_compact_encodes_go_through_the_prebuilt_encoders():
    # a compact form is one module-level encoder in faultharness.encoders,
    # not a new encoder built per json.dumps call
    found = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := dumps_with_separators(path.read_text(encoding="utf-8")))
    }
    assert not found, f"json.dumps with separators= (use faultharness.encoders): {found}"

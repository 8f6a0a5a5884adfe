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


def package_imports(source: str) -> set[str]:
    """Modules of the package that a module imports, relatively or by full name."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".") for alias in node.names]
            found.update(parts[1] for parts in names if parts[0] == "faultharness" and parts[1:])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "faultharness":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # `from . import a, b` names modules
                found.update(alias.name for alias in node.names)
    return found


def test_package_imports_finds_relative_and_absolute_forms():
    source = (
        "import json\n"
        "import faultharness.bank\n"
        "from . import protocol, taxonomy\n"
        "from .episode import Turn\n"
        "from faultharness.errors import ConfigError\n"
        "from faultharness import seeds\n"
    )
    expected = {"bank", "protocol", "taxonomy", "episode", "errors", "seeds"}
    assert package_imports(source) == expected


def test_trace_view_and_grader_do_not_import_the_simulator():
    # the view of what happened on a turn, and the grader that reads it, know
    # nothing of the world that produced the turn
    def imports_of(module: str) -> set[str]:
        return package_imports((PACKAGE_DIR / f"{module}.py").read_text(encoding="utf-8"))

    assert imports_of("trace") <= {"episode", "errors", "protocol", "taxonomy"}
    assert "simulator" not in imports_of("metrics")
    # a task step is data that tasks and suite cards carry; building them
    # needs no policy, and with it no remote transport
    assert "agents" not in imports_of("tasks")
    assert "agents" not in imports_of("benchgen")


def names_imported_from(source: str, module: str) -> set[str]:
    """Names that the imports reaching the package's `module` bind; an import of
    the module itself yields the module's own name."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and module in package_imports(ast.unparse(node))
        for alias in node.names
    }


def calls_of(source: str, name: str) -> list[int]:
    """Lines that call a function or method named `name`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))
    ]


def test_names_imported_from_and_calls_of_find_every_form():
    source = (
        "import faultharness.pipeline\n"
        "from . import pipeline, seeds\n"
        "from .pipeline import CorpusSpec\n"
        "from faultharness.pipeline import build_corpus as bc\n"
        "from .simulator import run_episode\n"
        "card.sim_config(rng_seed=1)\n"
        "sim_config()\n"
        "x = card.sim_config\n"
    )
    assert names_imported_from(source, "pipeline") == {
        "faultharness.pipeline", "pipeline", "seeds", "CorpusSpec", "build_corpus"
    }
    assert calls_of(source, "sim_config") == [6, 7]


def test_cli_reaches_the_corpus_loop_and_the_card_wiring_through_one_function_each():
    # the corpus loop lives in pipeline.build_corpus and a card's policy and
    # budgets in cli.run_card; the command bodies only parse flags and write files
    cli_source = (PACKAGE_DIR / "cli.py").read_text(encoding="utf-8")
    assert names_imported_from(cli_source, "pipeline") == {
        "CorpusSpec", "RuleBasedTeacher", "RemoteTeacher", "build_corpus"
    }
    found = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
        if (lines := calls_of(path.read_text(encoding="utf-8"), "sim_config"))
    }
    assert not found, f"sim_config calls (use cli.run_card): {found}"


def caught_names(source: str) -> set[str]:
    """Names of the exception types that `except` clauses name, alone or in a tuple."""
    caught = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            caught |= {getattr(t, "attr", None) or getattr(t, "id", None) for t in types}
    return caught


def test_caught_names_finds_single_tuple_and_dotted_types():
    source = (
        "try:\n    f()\nexcept ConfigError:\n    pass\n"
        "except (errors.TransportError, ValueError) as exc:\n    pass\n"
        "except:\n    pass\n"
        "raise ProtocolError('x')\n"
    )
    assert caught_names(source) == {"ConfigError", "TransportError", "ValueError"}


def test_every_harness_exception_class_is_caught_somewhere():
    # a class no `except` names tells nothing its message does not: raise a kept one
    errors = ast.parse((PACKAGE_DIR / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    caught = set().union(*(
        caught_names(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE_DIR.rglob("*.py"))
    ))
    assert not defined - caught, f"exception classes no except clause names: {defined - caught}"

"""Import direction between the layers, read from the source (so a
function-local import counts the same as a top-level one)."""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def imports_of(package: str) -> dict[str, set[str]]:
    """``module name -> names`` imported from it anywhere in the files
    of ``repro.<package>``."""
    found: dict[str, set[str]] = {}
    for path in (ROOT / package).rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                found.setdefault(node.module, set()).update(a.name for a in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    found.setdefault(alias.name, set())
    return found


def names_from(package: str, target: str) -> set[str]:
    """Names ``repro.<package>`` imports from ``repro.<target>`` or any
    module below it; the target's own name when it is imported whole."""
    prefix = f"repro.{target}"
    names: set[str] = set()
    for module, imported in imports_of(package).items():
        if module == prefix or module.startswith(prefix + "."):
            names |= imported or {module}
        elif module == "repro" and target in imported:
            names.add(prefix)
    return names


def test_the_engine_imports_neither_dialects_nor_study():
    assert names_from("sqlengine", "dialects") == set()
    assert names_from("sqlengine", "study") == set()


def test_middleware_and_durability_do_not_import_study():
    assert names_from("middleware", "study") == set()
    assert names_from("durability", "study") == set()


def test_analysis_imports_study_only_to_run_scripts():
    assert names_from("analysis", "study") <= {"ScriptPieces", "StudyRunner", "run_script"}


def test_the_study_imports_no_private_name():
    for package in ("dialects", "sqlengine"):
        private = {name for name in names_from("study", package) if name.startswith("_")}
        assert private == set(), package


def test_the_engine_imports_none_of_the_layers_that_run_it():
    """The parsed entry ``Engine.execute`` accepts lives in the engine."""
    for layer in ("middleware", "servers", "durability"):
        assert names_from("sqlengine", layer) == set(), layer


def test_the_study_runs_products_without_the_middleware():
    assert names_from("study", "middleware") == set()

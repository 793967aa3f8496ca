"""Import direction between the layers of ``src/repro``.

The layer table lives in DESIGN.md section 3 and is read from there. A
module owns the row of the longest table entry that prefixes its name,
and may import, at top level or inside a function, only from its own
entry or a lower row; entries that share a row import neither each
other. Imports under ``if TYPE_CHECKING:`` run nothing and are exempt.
The static half reads every import statement with ``ast``; the runtime
half imports each entry in a fresh interpreter and looks at what
``sys.modules`` holds, which also catches a package ``__init__`` that
re-exports from above.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent
DESIGN = ROOT.parents[1] / "DESIGN.md"

#: The only modules whose function-local imports are allowed: the CLI
#: front ends, where lazy loading is the point.
CLI_FRONT_ENDS = {"repro.__main__", "repro.storms"}


def read_layers() -> dict[str, int]:
    """``table entry -> row`` from DESIGN.md's layer table."""
    text = DESIGN.read_text()
    section = text[text.index("### Layer table") :]
    section = section[: section.index("\n### ", 1)]
    rows = re.findall(r"^\| (\d+) \| ([^|]+) \|", section, flags=re.MULTILINE)
    return {name: int(row) for row, cell in rows for name in re.findall(r"`([\w.]+)`", cell)}


LAYERS = read_layers()


def module_paths() -> dict[str, Path]:
    paths = {}
    for path in ROOT.rglob("*.py"):
        parts = path.relative_to(ROOT.parent).with_suffix("").parts
        paths[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return paths


MODULES = module_paths()


def owner(module: str) -> str:
    """The longest table entry that is ``module`` or a package above it."""
    return max(
        (entry for entry in LAYERS if module == entry or module.startswith(entry + ".")),
        key=len,
    )


def allowed(importer: str, target: str) -> bool:
    mine, theirs = owner(importer), owner(target)
    return mine == theirs or LAYERS[theirs] < LAYERS[mine]


def runtime_imports(path: Path):
    """``(line, target module, inside a function)`` for every ``repro``
    import outside ``if TYPE_CHECKING:``; ``from package import module``
    names the module."""
    tree = ast.parse(path.read_text())
    exempt = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and "TYPE_CHECKING" in ast.unparse(block.test)
        for node in ast.walk(block)
    }
    local = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
    }
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets = [
                f"{node.module}.{alias.name}"
                if f"{node.module}.{alias.name}" in MODULES
                else node.module
                for alias in node.names
            ]
        else:
            continue
        for target in targets:
            if target == "repro" or target.startswith("repro."):
                yield node.lineno, target, id(node) in local


def test_every_module_has_a_row():
    assert set(LAYERS) <= set(MODULES), set(LAYERS) - set(MODULES)
    unplaced = [
        module
        for module in MODULES
        if owner(module) == "repro" and module not in CLI_FRONT_ENDS | {"repro"}
    ]
    assert unplaced == []


@pytest.mark.parametrize("entry", sorted(LAYERS, key=lambda entry: (LAYERS[entry], entry)))
def test_imports_point_down(entry):
    wrong = [
        f"{module}:{line} imports {target}"
        for module, path in sorted(MODULES.items())
        if owner(module) == entry
        for line, target, _ in runtime_imports(path)
        if not allowed(module, target)
    ]
    assert wrong == []


@pytest.mark.parametrize("entry", sorted(LAYERS, key=lambda entry: (LAYERS[entry], entry)))
def test_importing_loads_nothing_from_above(entry):
    search = [str(ROOT.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, search)))
    loaded = subprocess.run(
        [sys.executable, "-c", f"import sys, {entry}; print(*sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
        env=env,
    ).stdout.split()
    above = sorted(
        module
        for module in loaded
        if module.startswith("repro.") and not allowed(entry, module)
    )
    assert above == []


def test_function_local_imports_only_in_the_cli_front_ends():
    local = [
        f"{module}:{line} imports {target}"
        for module, path in sorted(MODULES.items())
        if module not in CLI_FRONT_ENDS
        for line, target, inside in runtime_imports(path)
        if inside
    ]
    assert local == []


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


def test_the_engine_imports_none_of_the_layers_that_run_it():
    """The parsed entry ``Engine.execute`` accepts lives in the engine."""
    for layer in ("middleware", "servers", "durability"):
        assert names_from("sqlengine", layer) == set(), layer


def test_the_study_imports_no_private_name():
    for package in ("dialects", "sqlengine"):
        private = {name for name in names_from("study", package) if name.startswith("_")}
        assert private == set(), package


def test_the_corpus_slices_through_public_dataflow_names():
    assert {name for name in names_from("bugs", "analysis") if name.startswith("_")} == set()


def test_the_study_runs_products_without_the_middleware():
    assert names_from("study", "middleware") == set()

"""Import direction between the layers of ``src/repro``, and what the
code reads.

The layer table lives in DESIGN.md section 3 and is read from there. A
module owns the row of the longest table entry that prefixes its name,
and may import, at top level or inside a function, only from its own
entry or a lower row; entries that share a row import neither each
other. Imports under ``if TYPE_CHECKING:`` run nothing; the upward ones
among them are listed in ``TYPE_CHECKING_UP`` and nowhere else.
The static half reads every import statement with ``ast``; the runtime
half imports each entry in a fresh interpreter and looks at what
``sys.modules`` holds, which also catches a package ``__init__`` that
re-exports from above.

The same ``ast`` pass answers more questions: which public definitions
nothing but the tests reads (the reachability test), which options
nothing but the tests sets, which attributes nothing reads at all,
which function bodies are written twice, and which imports nothing
reads (a stand-in for ruff's F401).
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
REPO = ROOT.parents[1]
DESIGN = REPO / "DESIGN.md"

#: The only modules whose function-local imports are allowed: the CLI
#: front ends, where lazy loading is the point.
CLI_FRONT_ENDS = {"repro.__main__", "repro.storms"}

#: ``(importer, target)`` for the upward imports under ``if
#: TYPE_CHECKING:``: types named in annotations whose owner sits above
#: the importer.
TYPE_CHECKING_UP: set[tuple[str, str]] = set()


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
TREES = {module: ast.parse(path.read_text()) for module, path in MODULES.items()}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def owner(module: str) -> str:
    """The longest table entry that is ``module`` or a package above it."""
    return max(
        (entry for entry in LAYERS if module == entry or module.startswith(entry + ".")),
        key=len,
    )


def allowed(importer: str, target: str) -> bool:
    mine, theirs = owner(importer), owner(target)
    return mine == theirs or LAYERS[theirs] < LAYERS[mine]


def is_type_checking(node: ast.AST) -> bool:
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def repro_imports(module: str):
    """``(line, target module, inside a function, under TYPE_CHECKING)``
    for every ``repro`` import; ``from package import module`` names
    the module."""
    tree = TREES[module]
    typing_only = {
        id(node) for block in ast.walk(tree) if is_type_checking(block) for node in ast.walk(block)
    }
    local = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, FUNCTIONS)
        for node in ast.walk(function)
    }
    for node in ast.walk(tree):
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
                yield node.lineno, target, id(node) in local, id(node) in typing_only


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
        for module in sorted(MODULES)
        if owner(module) == entry
        for line, target, _, typing_only in repro_imports(module)
        if not allowed(module, target) and not typing_only
    ]
    assert wrong == []


def test_type_checking_imports_point_up_only_where_listed():
    up = {
        (module, target)
        for module in MODULES
        for _, target, _, typing_only in repro_imports(module)
        if typing_only and not allowed(module, target)
    }
    assert up == TYPE_CHECKING_UP


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
        for module in sorted(MODULES)
        if module not in CLI_FRONT_ENDS
        for line, target, inside, _ in repro_imports(module)
        if inside
    ]
    assert local == []


def imports_of(package: str) -> dict[str, set[str]]:
    """``module name -> names`` imported from it anywhere in the files
    of ``repro.<package>``."""
    found: dict[str, set[str]] = {}
    for module, tree in TREES.items():
        if module != f"repro.{package}" and not module.startswith(f"repro.{package}."):
            continue
        for node in ast.walk(tree):
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


def engine_reach_ins() -> list[str]:
    """``module:line`` for every load of an attribute named ``engine``
    in a module whose row is above ``repro.servers``."""
    servers = LAYERS["repro.servers"]
    return [
        f"{module}:{node.lineno}"
        for module, tree in sorted(TREES.items())
        if LAYERS[owner(module)] > servers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "engine"
        and isinstance(node.ctx, ast.Load)
    ]


def test_nothing_above_the_servers_reaches_into_an_engine():
    """A replica is read and changed through ``ServerProduct`` only."""
    assert engine_reach_ins() == []


# -- what the entry points reach ---------------------------------------------

#: Public definitions no entry point reaches, kept because a DESIGN.md
#: section 4 evidence row's test needs them: name -> that row's Exp id.
ALLOW_LIST = {
    "repro.faults.effects.PartitionDropBugEffect": "H1",
    "repro.faults.effects.PlanStageBugEffect": "P2",
    "repro.faults.effects.PredicateFoldBugEffect": "H1",
    "repro.middleware.server.MiddlewareStats.detection_events": "M1",
    "repro.net.tcp.TcpNetServer.address": "NET",
    "repro.net.tcp.tcp_exchange": "NET",
    "repro.net.transport.ClientPort.request": "NET",
    "repro.reliability.availability.TimeoutPolicyModel": "W6",
    "repro.study.releases.Release.fixed_fault_ids": "R1",
    "repro.study.releases.faults_for_release": "R1",
    "repro.study.releases.release": "R1",
    "repro.study.releases.release_fault_catalogs": "R1",
    "repro.study.runner.audit_faults": "A2",
    "repro.study.runner.dead_faults": "A2",
}

ENTRY_FILES = sorted((REPO / "examples").glob("*.py")) + sorted(
    (REPO / "benchmarks" / "e2e").glob("*.py")
)
IDENTIFIER = re.compile(r"[A-Za-z_]\w*\Z")
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)


def names_read(node: ast.AST) -> set[str]:
    """Every name through which ``node`` can reach a definition:
    ``Name`` ids, ``Attribute`` attrs, imported names, and strings
    shaped like an identifier (``getattr`` dispatch, the benchmark
    tracer's patch table)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if IDENTIFIER.match(sub.value):
                names.add(sub.value)
    return names


ENTRY_TREES = [ast.parse(path.read_text()) for path in ENTRY_FILES]


def reach() -> tuple[dict[str, ast.AST], dict[str, str], set[str], list[ast.AST]]:
    """``(definitions, method -> class, live, roots)``: every top-level
    function and class under ``src/repro`` and every method, by
    qualified name; which of them the real entry points reach; and the
    root nodes themselves.

    The roots are the two CLI front ends, every file under
    ``examples/`` and ``benchmarks/e2e/``, and every module-level
    statement under ``src/repro`` that is neither a definition nor an
    import: an import, an ``__init__`` re-export or ``__all__`` is not a
    reader. A live definition makes live every definition or public
    method named by what its body reads; a live method makes its class
    live, and a live class its private and dunder methods (which a
    ``getattr`` may reach by a computed name). Names match bare,
    whatever object they belong to, which over-approximates liveness: the safe
    direction, in which a dead definition can escape but one whose name
    is read anywhere live is never convicted.
    """
    nodes: dict[str, ast.AST] = {}
    classes: dict[str, str] = {}  # method -> its class
    by_name: dict[str, list[str]] = {}
    aliases: dict[str, set[str]] = {}
    root_nodes: list[ast.AST] = list(ENTRY_TREES)
    for module, tree in TREES.items():
        if module in CLI_FRONT_ENDS:
            root_nodes.append(tree)
            continue
        for statement in tree.body:
            if isinstance(statement, DEFINITIONS):
                name = f"{module}.{statement.name}"
                nodes[name] = statement
                by_name.setdefault(statement.name, []).append(name)
                for item in statement.body if isinstance(statement, ast.ClassDef) else ():
                    if isinstance(item, FUNCTIONS):
                        method = f"{name}.{item.name}"
                        nodes[method], classes[method] = item, name
                        if not item.name.startswith("_"):
                            by_name.setdefault(item.name, []).append(method)
            elif isinstance(statement, (ast.Import, ast.ImportFrom)):
                for alias in statement.names:
                    if alias.asname:
                        aliases.setdefault(alias.asname, set()).add(alias.name)
            elif not is_type_checking(statement) and "__all__" not in names_read(statement):
                root_nodes.append(statement)

    live: set[str] = set()
    pending, seen = list(set().union(*map(names_read, root_nodes))), set()

    def mark(name: str) -> None:
        if name in live:
            return
        live.add(name)
        node = nodes[name]
        if name in classes:
            mark(classes[name])
        if not isinstance(node, ast.ClassDef):
            pending.extend(names_read(node))
            return
        for item in node.body:
            if not isinstance(item, FUNCTIONS):
                pending.extend(names_read(item))
            elif item.name.startswith("_"):
                mark(f"{name}.{item.name}")
        for part in (*node.bases, *node.keywords, *node.decorator_list):
            pending.extend(names_read(part))

    while pending:
        name = pending.pop()
        if name not in seen:
            seen.add(name)
            pending.extend(aliases.get(name, ()))
            for definition in by_name.get(name, ()):
                mark(definition)
    return nodes, classes, live, root_nodes


NODES, CLASSES, LIVE, ROOT_NODES = reach()


def unreachable() -> set[str]:
    """Public top-level functions and classes under ``src/repro``, and
    public methods of reachable classes, that nothing reaches from the
    real entry points."""
    return {
        name
        for name, node in NODES.items()
        if name not in LIVE
        and not node.name.startswith("_")
        and (name not in CLASSES or CLASSES[name] in LIVE)
    }


def design_exp_ids() -> set[str]:
    text = DESIGN.read_text()
    section = text[text.index("## 4. Experiment index") : text.index("## 5. ")]
    return set(re.findall(r"^\| (\w+) \|", section, flags=re.MULTILINE)) - {"Exp"}


def test_every_unread_public_definition_is_evidence():
    assert unreachable() == set(ALLOW_LIST)
    assert set(ALLOW_LIST.values()) <= design_exp_ids()


# -- options nobody sets -----------------------------------------------------

#: Options no live root sets, kept because a DESIGN.md section 4
#: evidence row's test flips them: option -> that row's Exp id.
OPTION_ALLOW_LIST = {
    "repro.hunt.run_hunt(triage=)": "H1",
    "repro.middleware.server.ServerConfig.allow_duplicates": "M2",
    "repro.middleware.server.ServerConfig.dual_plan": "P2",
    "repro.middleware.supervisor.SupervisorPolicy.idempotent_write_retry": "A4",
    "repro.net.session.NetPolicy.conflict_admission": "C1",
    "repro.reliability.availability.TimeoutPolicyModel.cost_median": "W6",
    "repro.reliability.availability.TimeoutPolicyModel.cost_sigma": "W6",
    "repro.reliability.availability.TimeoutPolicyModel.stall_delay": "W6",
    "repro.study.runner.StudyRunner.__init__(faults_by_server=)": "R1",
    "repro.study.runner.run_study(faults_by_server=)": "R1",
}

OPTION_CLASS = re.compile(r"\w*(Config|Policy|PolicyModel)\Z")


def is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)


def fields_of(node: ast.ClassDef):
    """``(name, defaulted)`` for every field a dataclass declares."""
    for item in node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if "ClassVar" not in ast.unparse(item.annotation):
                yield item.target.id, item.value is not None


def options() -> dict[str, str]:
    """``qualified option -> bare name``: every defaulted field of a
    ``*Config`` / ``*Policy`` / ``*PolicyModel`` dataclass, and every
    keyword-only parameter of a public function or a public class's
    constructor under ``src/repro``."""
    found = {}
    for module, tree in TREES.items():
        for statement in tree.body:
            if isinstance(statement, FUNCTIONS) and not statement.name.startswith("_"):
                for arg in statement.args.kwonlyargs:
                    found[f"{module}.{statement.name}({arg.arg}=)"] = arg.arg
            if not isinstance(statement, ast.ClassDef) or statement.name.startswith("_"):
                continue
            cls = f"{module}.{statement.name}"
            if OPTION_CLASS.match(statement.name) and is_dataclass(statement):
                for name, defaulted in fields_of(statement):
                    if defaulted:
                        found[f"{cls}.{name}"] = name
            for item in statement.body:
                if isinstance(item, FUNCTIONS) and item.name == "__init__":
                    for arg in item.args.kwonlyargs:
                        found[f"{cls}.{item.name}({arg.arg}=)"] = arg.arg
    return found


def parameters(function: ast.AST) -> set[str]:
    args = function.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return {arg.arg for arg in every if arg}


def names_set(node: ast.AST) -> set[str]:
    """Names ``node`` gives a value: keyword arguments, attribute
    stores and identifier strings (a ``runner_kwargs`` key, a
    ``setattr`` name). Forwarding a same-named parameter of the
    enclosing function, ``x=x`` or ``self.x = x``, sets nothing."""
    names = set()
    pending: list[tuple[ast.AST, set[str]]] = [(node, set())]
    while pending:
        sub, params = pending.pop()
        if isinstance(sub, (*FUNCTIONS, ast.Lambda)):
            params = parameters(sub)

        def forwards(name: str, value: ast.AST) -> bool:
            return isinstance(value, ast.Name) and value.id == name and name in params

        if isinstance(sub, ast.keyword) and sub.arg and not forwards(sub.arg, sub.value):
            names.add(sub.arg)
        elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and sub.value:
            targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
            for target in targets:
                for store in ast.walk(target):
                    if isinstance(store, ast.Attribute) and not forwards(store.attr, sub.value):
                        names.add(store.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if IDENTIFIER.match(sub.value):
                names.add(sub.value)
        pending.extend((child, params) for child in ast.iter_child_nodes(sub))
    return names


def live_nodes():
    """The root nodes, then every live definition (a live class only
    through what is not a method: its methods are definitions of their
    own)."""
    yield from ROOT_NODES
    for name in LIVE:
        node = NODES[name]
        if not isinstance(node, ast.ClassDef):
            yield node
            continue
        yield from (item for item in node.body if not isinstance(item, FUNCTIONS))
        yield from (*node.bases, *node.keywords, *node.decorator_list)


def unset_options() -> set[str]:
    """Options in scope that no live root sets; tests are no setters."""
    live_set = set().union(*map(names_set, live_nodes()))
    return {option for option, name in options().items() if name not in live_set}


def evidence_files(exp_id: str) -> set[str]:
    """The test files DESIGN.md section 4's row ``exp_id`` names."""
    row = re.search(rf"^\| {exp_id} \|.*$", DESIGN.read_text(), flags=re.MULTILINE)
    return set(re.findall(r"test_\w+\.py", row.group(0).rsplit("|", 2)[1]))


def test_every_unset_option_is_evidence():
    assert unset_options() == set(OPTION_ALLOW_LIST)
    assert set(OPTION_ALLOW_LIST.values()) <= design_exp_ids()
    options_by_name = options()
    for option, exp_id in OPTION_ALLOW_LIST.items():
        setters = set().union(
            *(
                names_set(ast.parse((REPO / "tests" / name).read_text()))
                for name in evidence_files(exp_id)
            )
        )
        assert options_by_name[option] in setters, (option, exp_id)


# -- state nobody reads ------------------------------------------------------

READER_FILES = [
    path
    for directory in ("src", "tests", "examples", "benchmarks/e2e")
    for path in sorted((REPO / directory).rglob("*.py"))
]


def attributes() -> dict[str, str]:
    """``qualified attribute -> bare name``: every dataclass field, and
    every attribute an ``__init__`` assigns on ``self``."""
    found = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = f"{module}.{node.name}"
            if is_dataclass(node):
                found.update((f"{cls}.{name}", name) for name, _ in fields_of(node))
            for item in node.body:
                if isinstance(item, FUNCTIONS) and item.name == "__init__":
                    for store in ast.walk(item):
                        if (
                            isinstance(store, ast.Attribute)
                            and isinstance(store.ctx, ast.Store)
                            and isinstance(store.value, ast.Name)
                            and store.value.id == "self"
                        ):
                            found[f"{cls}.{store.attr}"] = store.attr
    return found


def computed_name(node: ast.AST):
    """A pattern for a name built from string pieces, ``layer +
    "_hits"`` or ``f"{layer}_hits"``; ``None`` for anything else."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.escape(node.value)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left, right = computed_name(node.left), computed_name(node.right)
        return None if left is None and right is None else (left or r"\w*") + (right or r"\w*")
    if isinstance(node, ast.JoinedStr):
        return "".join(
            re.escape(part.value) if isinstance(part, ast.Constant) else r"\w*"
            for part in node.values
        )
    return None


def names_loaded(tree: ast.AST) -> tuple[set[str], list[re.Pattern]]:
    """Attribute loads, identifier strings, and patterns for the names
    ``getattr`` computes."""
    names, patterns = set(), []
    for sub in ast.walk(tree):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if IDENTIFIER.match(sub.value):
                names.add(sub.value)
        elif isinstance(sub, ast.Call) and ast.unparse(sub.func) == "getattr":
            pattern = computed_name(sub.args[1]) if len(sub.args) > 1 else None
            if pattern:
                patterns.append(re.compile(pattern + r"\Z"))
    return names, patterns


def unread_attributes() -> set[str]:
    """Attributes nothing reads, in ``src/repro``, tests, examples or
    ``benchmarks/e2e``."""
    names, patterns = set(), []
    for path in READER_FILES:
        found, computed = names_loaded(ast.parse(path.read_text()))
        names |= found
        patterns += computed
    return {
        attribute
        for attribute, name in attributes().items()
        if name not in names and not any(pattern.match(name) for pattern in patterns)
    }


def test_every_attribute_is_read():
    assert unread_attributes() == set()


# -- one owner per algorithm -------------------------------------------------


def duplicate_bodies() -> list[list[str]]:
    """Functions under ``src/repro`` whose bodies, docstring aside, hold
    three or more statements (nested ones counted) and have the same
    AST dump."""
    bodies: dict[str, list[str]] = {}
    for module, tree in TREES.items():
        for node in ast.walk(tree):
            if not isinstance(node, FUNCTIONS):
                continue
            body = node.body[1:] if ast.get_docstring(node) is not None else node.body
            statements = sum(isinstance(sub, ast.stmt) for part in body for sub in ast.walk(part))
            if statements >= 3:
                dump = ast.dump(ast.Module(body=body, type_ignores=[]))
                bodies.setdefault(dump, []).append(f"{module}.{node.name}")
    return sorted(sorted(names) for names in bodies.values() if len(names) > 1)


def test_no_function_body_is_written_twice():
    assert duplicate_bodies() == []


# -- unused imports (ruff F401) ----------------------------------------------


def annotation_strings(tree: ast.AST):
    """Names inside quoted annotations: they read an import too."""
    for node in ast.walk(tree):
        if isinstance(node, FUNCTIONS):
            args = node.args
            every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            annotations = [arg.annotation for arg in every if arg] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for sub in ast.walk(annotation):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    try:
                        parsed = ast.parse(sub.value, mode="eval")
                    except SyntaxError:
                        continue
                    yield from (name.id for name in ast.walk(parsed) if isinstance(name, ast.Name))


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(annotation_strings(tree))
    for statement in tree.body:  # names in ``__all__`` are re-exported
        if "__all__" in names_read(statement):
            used |= names_read(statement)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(REPO)}:{node.lineno} {bound}")
    return unused


def test_no_unused_imports():
    """Every import outside a package ``__init__`` (whose imports are
    re-exports) is read in its file."""
    paths = [
        path
        for directory in ("src", "tests", "examples", "benchmarks")
        for path in sorted((REPO / directory).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert [hit for path in paths for hit in unused_imports(path)] == []

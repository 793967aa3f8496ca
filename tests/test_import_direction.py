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
import textwrap
from pathlib import Path
from typing import NamedTuple, Optional

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
    "repro.durability.medium.FileMedium": "DUR",
    "repro.faults.effects.DialectRenderEffect": "D1",
    "repro.faults.effects.PartitionDropBugEffect": "H1",
    "repro.faults.effects.PlanStageBugEffect": "P2",
    "repro.faults.effects.PredicateFoldBugEffect": "H1",
    "repro.faults.effects.ScanOrderEffect": "A4",
    "repro.faults.triggers.AlwaysTrigger": "H1",
    "repro.middleware.server.MiddlewareStats.detection_events": "M1",
    "repro.net.protocol.FrameStream": "NET",
    "repro.net.tcp.TcpNetServer": "NET",
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


def dict_keys(tree: ast.AST) -> set[int]:
    """``id`` of every key of a dict literal in ``tree``: a key names
    what the dict writes."""
    return {
        id(key)
        for node in ast.walk(tree)
        if isinstance(node, ast.Dict)
        for key in node.keys
        if key is not None
    }


ENTRY_TREES = [ast.parse(path.read_text()) for path in ENTRY_FILES]


class Reach(NamedTuple):
    #: Every top-level function and class and every method, by
    #: qualified name.
    nodes: dict[str, ast.AST]
    #: method -> its class.
    classes: dict[str, str]
    #: The definitions the roots reach.
    live: set[str]
    roots: list[ast.AST]


def reach(
    trees: dict[str, ast.AST] = TREES,
    entry_trees: list[ast.AST] = ENTRY_TREES,
    front_ends: set[str] = CLI_FRONT_ENDS,
) -> Reach:
    """Which definitions of ``trees`` the real entry points reach.

    The roots are the CLI front ends (``front_ends``), every file under
    ``examples/`` and ``benchmarks/e2e/`` (``entry_trees``), and every
    module-level statement that is neither a definition nor an import:
    an import, an ``__init__`` re-export or ``__all__`` is not a
    reader. A live definition makes live every definition named by
    what its body reads. A name reaches a top-level function or class
    of that name, and a public method of that name only on a live
    class: a method name read anywhere does not make its class live,
    only the class's own name does. A live class makes live its private
    and dunder methods (which a ``getattr`` may reach by a computed
    name). Names match bare, whatever object they belong to, which
    over-approximates liveness: the safe direction, in which a dead
    definition can escape but one whose name is read anywhere live is
    never convicted. A method name alone would keep ``FileMedium``
    alive through ``append``.
    """
    nodes: dict[str, ast.AST] = {}
    classes: dict[str, str] = {}
    top: dict[str, list[str]] = {}  # bare name -> top-level definitions
    methods: dict[str, list[str]] = {}  # bare name -> public methods
    aliases: dict[str, set[str]] = {}
    root_nodes: list[ast.AST] = list(entry_trees)
    for module, tree in trees.items():
        if module in front_ends:
            root_nodes.append(tree)
            continue
        for statement in tree.body:
            if isinstance(statement, DEFINITIONS):
                name = f"{module}.{statement.name}"
                nodes[name] = statement
                top.setdefault(statement.name, []).append(name)
                for item in statement.body if isinstance(statement, ast.ClassDef) else ():
                    if isinstance(item, FUNCTIONS):
                        method = f"{name}.{item.name}"
                        nodes[method], classes[method] = item, name
                        methods.setdefault(item.name, []).append(method)
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
        if not isinstance(node, ast.ClassDef):
            pending.extend(names_read(node))
            return
        for item in node.body:
            if not isinstance(item, FUNCTIONS):
                pending.extend(names_read(item))
            elif item.name.startswith("_") or item.name in seen:
                mark(f"{name}.{item.name}")
        for part in (*node.bases, *node.keywords, *node.decorator_list):
            pending.extend(names_read(part))

    while pending:
        name = pending.pop()
        if name not in seen:
            seen.add(name)
            pending.extend(aliases.get(name, ()))
            for definition in top.get(name, ()):
                mark(definition)
            for method in methods.get(name, ()):
                if classes[method] in live:
                    mark(method)
    return Reach(nodes, classes, live, root_nodes)


REACH = reach()


def unreachable(found: Reach = REACH) -> set[str]:
    """Public top-level functions and classes, and public methods of
    reachable classes, that nothing reaches from the entry points."""
    return {
        name
        for name, node in found.nodes.items()
        if name not in found.live
        and not node.name.startswith("_")
        and (name not in found.classes or found.classes[name] in found.live)
    }


def design_exp_ids() -> set[str]:
    text = DESIGN.read_text()
    section = text[text.index("## 4. Experiment index") : text.index("## 5. ")]
    return set(re.findall(r"^\| (\w+) \|", section, flags=re.MULTILINE)) - {"Exp"}


def evidence_files(exp_id: str) -> set[str]:
    """The test files DESIGN.md section 4's row ``exp_id`` names."""
    row = re.search(rf"^\| {exp_id} \|.*$", DESIGN.read_text(), flags=re.MULTILINE)
    return set(re.findall(r"test_\w+\.py", row.group(0).rsplit("|", 2)[1]))


def evidence_trees(exp_id: str) -> list[ast.AST]:
    return [ast.parse((REPO / "tests" / name).read_text()) for name in evidence_files(exp_id)]


def test_every_unread_public_definition_is_evidence():
    """Each allow-listed definition is one its row's evidence tests
    reach, read as entry points."""
    assert unreachable() == set(ALLOW_LIST)
    assert set(ALLOW_LIST.values()) <= design_exp_ids()
    for exp_id in set(ALLOW_LIST.values()):
        used = reach(entry_trees=evidence_trees(exp_id)).live
        listed = {name for name, row in ALLOW_LIST.items() if row == exp_id}
        assert listed <= used, (exp_id, listed - used)


# -- options nobody sets -----------------------------------------------------

#: Options no live root sets, kept because a DESIGN.md section 4
#: evidence row's test flips them: option -> that row's Exp id.
OPTION_ALLOW_LIST = {
    "repro.durability.session.DurableSession.__init__(checkpoint_interval=)": "DUR",
    "repro.hunt.run_hunt(faults=)": "H1",
    "repro.hunt.run_hunt(triage=)": "H1",
    "repro.middleware.server.ServerConfig.allow_duplicates": "M2",
    "repro.middleware.server.ServerConfig.dual_plan": "P2",
    "repro.middleware.server.ServerConfig.normalize": "A1",
    "repro.middleware.server.ServerConfig.static_analysis": "A4",
    "repro.middleware.supervisor.SupervisorPolicy.idempotent_write_retry": "A4",
    "repro.net.session.NetPolicy.conflict_admission": "C1",
    "repro.net.tcp.tcp_exchange(timeout=)": "NET",
    "repro.reliability.availability.TimeoutPolicyModel.cost_median": "W6",
    "repro.reliability.availability.TimeoutPolicyModel.cost_sigma": "W6",
    "repro.reliability.availability.TimeoutPolicyModel.stall_delay": "W6",
    "repro.study.runner.StudyRunner.__init__(faults_by_server=)": "R1",
    "repro.study.runner.StudyRunner.__init__(stress_mode=)": "A2",
    "repro.study.runner.run_study(faults_by_server=)": "R1",
    "repro.study.runner.run_study(stress_mode=)": "A2",
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


def options(trees: dict[str, ast.AST] = TREES) -> dict[str, tuple[str, str]]:
    """``qualified option -> (callee, keyword)``: every defaulted field
    of a ``*Config`` / ``*Policy`` / ``*PolicyModel`` dataclass, and
    every keyword-only parameter of a public function or a public
    class's constructor. A call of ``callee`` sets it by ``keyword``."""
    found = {}
    for module, tree in trees.items():
        for statement in tree.body:
            if isinstance(statement, FUNCTIONS) and not statement.name.startswith("_"):
                for arg in statement.args.kwonlyargs:
                    found[f"{module}.{statement.name}({arg.arg}=)"] = (statement.name, arg.arg)
            if not isinstance(statement, ast.ClassDef) or statement.name.startswith("_"):
                continue
            cls = f"{module}.{statement.name}"
            if OPTION_CLASS.match(statement.name) and is_dataclass(statement):
                for name, defaulted in fields_of(statement):
                    if defaulted:
                        found[f"{cls}.{name}"] = (statement.name, name)
            for item in statement.body:
                if isinstance(item, FUNCTIONS) and item.name == "__init__":
                    for arg in item.args.kwonlyargs:
                        found[f"{cls}.{item.name}({arg.arg}=)"] = (statement.name, arg.arg)
                elif is_classmethod(item) and not item.name.startswith("_"):
                    for arg in item.args.kwonlyargs:
                        found[f"{cls}.{item.name}({arg.arg}=)"] = (item.name, arg.arg)
    return found


def is_classmethod(node: ast.AST) -> bool:
    return isinstance(node, FUNCTIONS) and any(
        ast.unparse(decorator) == "classmethod" for decorator in node.decorator_list
    )


def parameters(function: ast.AST) -> set[str]:
    args = function.args
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return {arg.arg for arg in every if arg}


def callee(call: ast.Call, owner: Optional[str] = None) -> Optional[str]:
    """The name a call reaches its definition by: ``f(...)``, ``x.f(...)``,
    and ``cls(...)`` inside a classmethod of ``owner``: ``owner``."""
    if isinstance(call.func, ast.Name):
        if owner is not None and call.func.id == "cls":
            return owner
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


class Setters(NamedTuple):
    #: ``(callee, keyword)`` of every keyword argument that is not a
    #: forwarded parameter.
    keywords: set[tuple[str, str]]
    #: Names set whatever they belong to: attribute stores on a
    #: receiver other than ``self``, and dict-literal keys (a
    #: ``runner_kwargs`` entry).
    names: set[str]
    #: ``x=x`` forwarding of an enclosing parameter: ``(the enclosing
    #: function's (callee, x), the call's (callee, x))``.
    forwards: set[tuple[tuple[str, str], tuple[str, str]]]
    #: ``**kwargs`` forwarding: ``(enclosing callee, its named
    #: parameters, the call's callee)``.
    spreads: set[tuple[str, frozenset, str]]


def setters(roots: list[tuple[ast.AST, Optional[str]]]) -> Setters:
    """What ``roots`` set; each root comes with the class it is a
    method of, if any. A function is called by its name, an
    ``__init__`` by its class's; a nested function or a lambda has a
    key no call spells, so what it forwards counts as set. ``cls(...)``
    in a classmethod calls the class that holds it."""
    found = Setters(set(), set(), set(), set())
    for root, owner_class in roots:
        keys = dict_keys(root)
        # (node, class whose body holds it, enclosing function's key and
        # parameters, that function's ``**`` name, the class ``cls``
        # names there)
        pending = [(root, owner_class, None, frozenset(), None, None)]
        while pending:
            node, cls, key, params, spread, owner = pending.pop()
            if isinstance(node, (*FUNCTIONS, ast.Lambda)):
                name = getattr(node, "name", "<lambda>")
                if key is not None or isinstance(node, ast.Lambda):
                    key = f"<local>.{name}"
                elif cls is None:
                    key = name
                else:
                    key = cls if name == "__init__" else name
                    owner = cls if is_classmethod(node) else None
                params = frozenset(parameters(node))
                spread = node.args.kwarg.arg if node.args.kwarg else None
                cls = None
            elif isinstance(node, ast.ClassDef):
                cls, key, owner = node.name, None, None
            elif isinstance(node, ast.Call) and callee(node, owner):
                target = callee(node, owner)
                for keyword in node.keywords:
                    value = keyword.value
                    if keyword.arg is None:
                        if key and isinstance(value, ast.Name) and value.id == spread:
                            found.spreads.add((key, params - {spread}, target))
                    elif key and isinstance(value, ast.Name) and value.id == keyword.arg in params:
                        found.forwards.add(((key, keyword.arg), (target, keyword.arg)))
                    else:
                        found.keywords.add((target, keyword.arg))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.names.update(
                    store.attr
                    for target in targets
                    for store in ast.walk(target)
                    if isinstance(store, ast.Attribute)
                    and isinstance(store.ctx, ast.Store)
                    and not (isinstance(store.value, ast.Name) and store.value.id == "self")
                )
            elif id(node) in keys and isinstance(node, ast.Constant):
                if isinstance(node.value, str) and IDENTIFIER.match(node.value):
                    found.names.add(node.value)
            pending.extend(
                (child, cls, key, params, spread, owner)
                for child in ast.iter_child_nodes(node)
            )
    return found


def set_options(found: Setters, option_keys: set[tuple[str, str]]) -> set[tuple[str, str]]:
    """Every ``(callee, keyword)`` ``found`` sets, forwarding followed:
    ``f(x=x)`` sets ``f``'s ``x`` when the enclosing function's ``x`` is
    set or is no option (a positional parameter every call passes);
    ``f(**kwargs)`` sets ``f``'s ``x`` for every ``x`` a call of the
    enclosing function sets that is none of its named parameters."""
    done = set(found.keywords)
    while True:
        size = len(done)
        for source, target in found.forwards:
            if source in done or source not in option_keys:
                done.add(target)
        for source, named, target in found.spreads:
            done |= {(target, name) for key, name in done if key == source and name not in named}
        if len(done) == size:
            return done


def live_roots(found: Reach = REACH) -> list[tuple[ast.AST, Optional[str]]]:
    """The root nodes, then every live definition with the class it is
    a method of (a live class only through what is not a method: its
    methods are definitions of their own)."""
    roots = [(node, None) for node in found.roots]
    for name in found.live:
        node = found.nodes[name]
        if not isinstance(node, ast.ClassDef):
            method_of = found.classes.get(name)
            roots.append((node, method_of and found.nodes[method_of].name))
            continue
        parts = [item for item in node.body if not isinstance(item, FUNCTIONS)]
        parts += [*node.bases, *node.keywords, *node.decorator_list]
        roots += [(part, node.name) for part in parts]
    return roots


OPTIONS = options()


def unset_options(found: Setters, every: dict[str, tuple[str, str]] = OPTIONS) -> set[str]:
    """Options ``found`` sets neither by keyword nor by name."""
    done = set_options(found, set(every.values()))
    return {
        option
        for option, (target, name) in every.items()
        if (target, name) not in done and name not in found.names
    }


#: What every definition under ``src/repro`` forwards, live or not: a
#: test that sets ``run_study(stress_mode=)`` sets ``StudyRunner``'s too.
SOURCE_FORWARDS = setters(
    [
        (node, REACH.nodes[REACH.classes[name]].name if name in REACH.classes else None)
        for name, node in REACH.nodes.items()
        if not isinstance(node, ast.ClassDef)
    ]
)


def test_every_unset_option_is_evidence():
    """Live roots set every option but these; tests are no setters.
    Each allow-listed option is set by its row's evidence tests."""
    assert unset_options(setters(live_roots())) == set(OPTION_ALLOW_LIST)
    assert set(OPTION_ALLOW_LIST.values()) <= design_exp_ids()
    for option, exp_id in OPTION_ALLOW_LIST.items():
        found = setters([(tree, None) for tree in evidence_trees(exp_id)])
        found = found._replace(
            forwards=found.forwards | SOURCE_FORWARDS.forwards,
            spreads=found.spreads | SOURCE_FORWARDS.spreads,
        )
        assert option not in unset_options(found), (option, exp_id)


# -- state nobody reads ------------------------------------------------------

READER_FILES = [
    path
    for directory in ("src", "tests", "examples", "benchmarks/e2e")
    for path in sorted((REPO / directory).rglob("*.py"))
]


def attributes(trees: dict[str, ast.AST] = TREES) -> dict[str, tuple[str, str]]:
    """``qualified attribute -> (class, name)``: every dataclass field,
    and every attribute an ``__init__`` assigns on ``self``."""
    found = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            cls = f"{module}.{node.name}"
            if is_dataclass(node):
                found.update((f"{cls}.{name}", (node.name, name)) for name, _ in fields_of(node))
            for item in node.body:
                if isinstance(item, FUNCTIONS) and item.name == "__init__":
                    for store in ast.walk(item):
                        if (
                            isinstance(store, ast.Attribute)
                            and isinstance(store.ctx, ast.Store)
                            and isinstance(store.value, ast.Name)
                            and store.value.id == "self"
                        ):
                            found[f"{cls}.{store.attr}"] = (node.name, store.attr)
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


class Loads(NamedTuple):
    #: Attribute loads on any receiver but ``self``, and identifier
    #: strings that are no dict-literal key.
    names: set[str]
    #: ``(class, name)`` of every ``self.name`` load in a method of ``class``.
    own: set[tuple[str, str]]
    #: Patterns for the names ``getattr`` computes.
    patterns: list[re.Pattern]
    #: ``class -> its bases``, by bare name.
    bases: dict[str, set[str]]


def loads(trees: list[ast.AST]) -> Loads:
    found = Loads(set(), set(), [], {})
    for tree in trees:
        keys = dict_keys(tree)
        pending: list[tuple[ast.AST, Optional[str]]] = [(tree, None)]
        while pending:
            node, cls = pending.pop()
            if isinstance(node, ast.ClassDef):
                cls = node.name
                found.bases.setdefault(cls, set()).update(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in node.bases
                    if isinstance(base, (ast.Name, ast.Attribute))
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if cls and isinstance(node.value, ast.Name) and node.value.id == "self":
                    found.own.add((cls, node.attr))
                else:
                    found.names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if IDENTIFIER.match(node.value) and id(node) not in keys:
                    found.names.add(node.value)
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr":
                pattern = computed_name(node.args[1]) if len(node.args) > 1 else None
                if pattern:
                    found.patterns.append(re.compile(pattern + r"\Z"))
            pending.extend((child, cls) for child in ast.iter_child_nodes(node))
    return found


def family(cls: str, bases: dict[str, set[str]], subclasses: dict[str, set[str]]) -> set[str]:
    """``cls``, its bases and its subclasses, transitively, by bare name:
    the classes whose attribute a ``self`` load in ``cls`` may read."""
    related = {cls}
    for step in (bases, subclasses):
        pending = [cls]
        while pending:
            for other in step.get(pending.pop(), ()):
                if other not in related:
                    related.add(other)
                    pending.append(other)
    return related


def unread_attributes(every: dict[str, tuple[str, str]], readers: list[ast.AST]) -> set[str]:
    """The attributes of ``every`` nothing in ``readers`` reads. A
    ``self.x`` load reads only an ``x`` of its own class, its bases and
    its subclasses; any other load, or an identifier string that is no
    dict-literal key, reads every attribute of that name."""
    found = loads(readers)
    subclasses: dict[str, set[str]] = {}
    for cls, supers in found.bases.items():
        for base in supers:
            subclasses.setdefault(base, set()).add(cls)
    own = {
        (related, name)
        for cls, name in found.own
        for related in family(cls, found.bases, subclasses)
    }
    return {
        attribute
        for attribute, (cls, name) in every.items()
        if name not in found.names
        and (cls, name) not in own
        and not any(pattern.match(name) for pattern in found.patterns)
    }


def test_every_attribute_is_read():
    """Nothing in ``src/repro``, tests, examples or ``benchmarks/e2e``
    leaves an attribute unread."""
    readers = [ast.parse(path.read_text()) for path in READER_FILES]
    assert unread_attributes(attributes(), readers) == set()


# -- the census rules on sources small enough to read -------------------------
#
# Each test fails with its rule reverted, checked on a copy of the tree:
# a method marking its class live; a ``self.x`` load, or a dict-literal
# key, reading every ``x``; a keyword, or any identifier string, setting
# every option of its name; ``x=x`` or ``**kwargs`` forwarding setting
# nothing.


def parsed(**modules: str) -> dict[str, ast.AST]:
    return {name: ast.parse(textwrap.dedent(source)) for name, source in modules.items()}


def test_reachability_needs_the_class_name():
    """A class whose only "reader" is a same-named method called on
    another class is dead, and so are its methods."""
    trees = parsed(
        toy="""
        class Wanted:
            def append(self, item): ...

        class Unwanted:
            def append(self, item): ...
        """
    )
    entry = ast.parse("from toy import Wanted\nWanted().append(1)")
    found = reach(trees, [entry], set())
    assert unreachable(found) == {"toy.Unwanted"}
    assert {"toy.Wanted", "toy.Wanted.append"} <= found.live


def test_a_self_load_and_a_dict_key_read_only_what_they_resolve_to():
    """A dataclass field whose name appears only as a dict-literal key
    is unread; ``self.x`` reads the ``x`` of its own class, its bases
    and its subclasses, not of an unrelated class."""
    trees = parsed(
        toy="""
        from dataclasses import dataclass

        @dataclass
        class Snapshot:
            kept: int
            stamped: float

        def dump(snapshot):
            return {"kept": snapshot.kept, "stamped": 0.0}

        class Timeout(Exception):
            def __init__(self, timeout):
                self.timeout = timeout

        class Client:
            def __init__(self, timeout):
                self.timeout = timeout

            def wait(self):
                return self.timeout

        class Base:
            def size(self):
                return self.width

        class Wide(Base):
            def __init__(self):
                self.width = 2
        """
    )
    unread = unread_attributes(attributes(trees), list(trees.values()))
    assert unread == {"toy.Snapshot.stamped", "toy.Timeout.timeout"}


def test_an_option_is_set_only_through_its_own_callee():
    """A keyword sets an option of the definition the call names; an
    identifier string that is no dict key sets nothing; ``x=x`` and
    ``**kwargs`` forwarding still set what they pass on."""
    trees = parsed(
        toy="""
        from dataclasses import dataclass

        @dataclass
        class ToyConfig:
            scale: str = "exact"
            normalize: bool = True
            forwarded: int = 0
            spread: int = 0
            elsewhere: int = 0

        def build(*, forwarded=0, **kwargs):
            return ToyConfig(forwarded=forwarded, **kwargs)

        def unrelated(*, elsewhere=0):
            return elsewhere

        PROFILE = {"scale": "normalize"}
        build(forwarded=1, spread=2)
        unrelated(elsewhere=3)
        """
    )
    every = options(trees)
    assert unset_options(setters([(trees["toy"], None)]), every) == {
        "toy.ToyConfig.normalize",
        "toy.ToyConfig.elsewhere",
    }


def test_a_classmethod_option_is_followed_through_cls():
    """A public classmethod's keyword-only parameter is an option, and
    ``cls(x=x)`` inside it forwards to the class's constructor."""
    trees = parsed(
        toy="""
        class Session:
            def __init__(self, *, name=None, interval=None):
                self.name, self.interval = name, interval

            @classmethod
            def resume(cls, *, name=None, interval=None):
                return cls(name=name, interval=interval)

        Session.resume(name="a")
        """
    )
    every = options(trees)
    found = setters([(trees["toy"], None)])
    assert (("resume", "interval"), ("Session", "interval")) in found.forwards
    assert unset_options(found, every) == {
        "toy.Session.resume(interval=)",
        "toy.Session.__init__(interval=)",
    }


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

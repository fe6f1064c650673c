"""The package graph of ``src/repro`` runs one way, down a declared order.

Every import of a ``repro`` module outside an ``if TYPE_CHECKING:``
block — a function-level one included — is an edge from the importing
package to the imported one. The graph must have no cycle, and every edge
must point down :data:`LAYERS`: a package imports only packages of a
lower rank, never one of its own rank or above. A new package fails
:func:`test_every_package_has_a_rank` until it is given a rank here.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).parent

#: Bottom to top. Packages in one tuple share a rank and import none of
#: each other; ``repro`` is the root package's ``__init__``.
LAYERS = (
    ("errors",),
    ("repro",),
    ("telemetry",),
    ("core",),
    ("platform",),
    ("orb",),
    ("idl", "com", "j2ee", "faults"),
    ("bridge", "workloads"),
    ("store",),
    ("collector",),
    ("apps",),
    ("analysis",),
    ("baselines", "testing_harness"),
    ("cluster",),
    ("scenarios",),
    ("cli",),
    ("__main__",),
)
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}

#: The one module whose function-level imports need no reason: one import
#: per subcommand is how the CLI keeps its start-up cheap.
_LAZY_BY_DESIGN = "cli.py"


def _package(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC).parts
    if len(parts) > 1:
        return parts[0]
    return "repro" if parts[0] == "__init__.py" else parts[0][:-3]


def _target(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The ``repro`` packages one import statement reaches."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif node.module == "repro":
        # ``from repro import telemetry`` reaches the subpackage.
        return [
            alias.name if (SRC / alias.name).is_dir()
            or (SRC / f"{alias.name}.py").is_file() else "repro"
            for alias in node.names
        ]
    else:
        modules = [node.module or ""]
    return [
        "repro" if module == "repro" else module.split(".")[1]
        for module in modules
        if module == "repro" or module.startswith("repro.")
    ]


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
        or (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")
    )


def _imports(tree: ast.AST, in_function: bool = False):
    """``(node, in_function)`` for every import outside ``TYPE_CHECKING``."""
    for child in ast.iter_child_nodes(tree):
        if _is_type_checking(child):
            for node in child.orelse:
                yield from _imports(ast.Module(body=[node]), in_function)
        elif isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, in_function
        else:
            nested = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
            yield from _imports(child, nested)


def _scan():
    """``edges``: (source, target) -> ["path:line", ...]; ``lazy``: the
    function-level repro imports as (path, line, source lines)."""
    edges: dict[tuple[str, str], list[str]] = {}
    lazy = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        package = _package(path)
        where = path.relative_to(SRC.parent)
        for node, in_function in _imports(ast.parse(source)):
            targets = _target(node)
            if targets and in_function:
                lazy.append((where, node.lineno, lines))
            for target in targets:
                if target != package:
                    edges.setdefault((package, target), []).append(
                        f"{where}:{node.lineno}"
                    )
    return edges, lazy


EDGES, LAZY_IMPORTS = _scan()
PACKAGES = {_package(path) for path in SRC.rglob("*.py")}


def test_every_package_has_a_rank():
    assert PACKAGES - set(RANK) == set(), "give each new package a rank in LAYERS"
    assert set(RANK) - PACKAGES == set(), "LAYERS names a package that is gone"


def test_package_graph_is_acyclic():
    graph: dict[str, set[str]] = {}
    for source, target in EDGES:
        graph.setdefault(source, set()).add(target)
    state: dict[str, str] = {}

    def cycle_from(node: str, path: list[str]) -> list[str] | None:
        state[node] = "open"
        for successor in sorted(graph.get(node, ())):
            if state.get(successor) == "open":
                return path[path.index(successor):] + [successor]
            if successor not in state:
                found = cycle_from(successor, path + [successor])
                if found:
                    return found
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state:
            cycle = cycle_from(start, [start])
            assert cycle is None, " -> ".join(cycle) + ": " + "; ".join(
                site
                for source, target in zip(cycle, cycle[1:])
                for site in EDGES[(source, target)]
            )


def test_every_edge_points_down():
    upward = sorted(
        f"{source} (rank {RANK[source]}) -> {target} (rank {RANK[target]}) "
        f"at {', '.join(sites)}"
        for (source, target), sites in EDGES.items()
        if source in RANK and target in RANK and RANK[target] >= RANK[source]
    )
    assert upward == []


def test_function_level_imports_say_why():
    """A function-level ``repro`` import guards something; the comment
    line right above it says what."""
    silent = [
        f"{where}:{line}"
        for where, line, lines in LAZY_IMPORTS
        if where.name != _LAZY_BY_DESIGN
        and not lines[line - 2].strip().startswith("#")
    ]
    assert silent == []


def test_no_function_level_import_outside_the_cli():
    """Only the CLI defers its ``repro`` imports: every other module
    imports what it needs at load time, so its place in :data:`LAYERS` is
    what its first lines say."""
    deferred = [
        f"{where}:{line}"
        for where, line, _lines in LAZY_IMPORTS
        if where.name != _LAZY_BY_DESIGN
    ]
    assert deferred == []

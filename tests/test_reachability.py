"""Every module, class, function and method under ``src/repro`` has a
caller outside the tests.

A module or definition that only tests reach is an extension nobody
runs: it either joins the system (a bench, example, soak or CLI path
calls it) or it leaves.  Package ``__init__`` files never count as
callers: a re-export is not a use.

*Modules.*  The scan reads ``import`` statements with :mod:`ast` from
every non-``__init__`` file in ``src/``, ``benchmarks/`` and
``examples/``, and resolves ``from repro.pkg import Name`` through the
package's own ``__init__`` re-exports to the module that defines
``Name``.

*Definitions.*  A module-level function or class, or a function or
class in a class body, is reached by a name or attribute of its name
(``f``, ``obj.f``) in one of those files.  The reference must lie
outside the definition's own body and inside reached code only:
module-level code, or definitions themselves reached, so a definition
only unreached code names is unreached too.  Names are matched, not
types: ``x.run`` reaches every ``run``.  Import lines and strings
(``__all__``, ``getattr(obj, "f")``) are not references.  A dunder
method is reached with its class.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Modules with no static caller, each with the reason it may stay; an
#: entry covers the module's definitions.
UNREACHED = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.bus.aggregator": "ROADMAP item 14: joins LocalSwitchboard's publication",
    "repro.dataplane.measurement": "ROADMAP item 14: joins the reoptimize loop",
    "repro.controller.audit": "ROADMAP item 13: leaves controller/ for the probe library",
}

#: ``module:qualname`` of definitions with no static caller, each with
#: the reason it may stay.
UNREACHED_DEFS = {
    "repro.controller.global_switchboard:GlobalSwitchboard.plan_routes": (
        "ROADMAP item 2: benchmarks/ledger/spans.py TARGETS patches it"
    ),
    "repro.controller.local_switchboard:LocalSwitchboard.install_chain_rules": (
        "ROADMAP item 2: benchmarks/ledger/spans.py TARGETS patches it"
    ),
    "repro.scale.partition:coupling_groups": (
        "ROADMAP item 2: benchmarks/ledger/spans.py TARGETS patches it"
    ),
    "repro.dataplane.flowtable:FlowTable.entries_for_chain": (
        "ROADMAP item 8: remove_chain releases a chain's flow entries through it"
    ),
}

#: ``module:qualname -> test files``: a test's one window onto state
#: the program keeps, with no caller outside the tests.
TEST_ONLY = {
    "repro.core.dp:IncrementalDpRouter.residual_vnf_capacity": (
        "tests/test_core_dp.py",
    ),
    "repro.edge.instance:EdgeInstance.classify": (
        "tests/test_edge.py", "tests/test_edge_fastpath.py",
    ),
    "repro.federation.coordinator:GlobalCoordinator.is_cross": (
        "tests/test_federation.py",
    ),
    "repro.obs.registry:MetricsRegistry.find": ("tests/test_obs.py",),
    "repro.simnet.network:SimNetwork.link_stats": (
        "tests/test_bus.py", "tests/test_properties_extended.py",
        "tests/test_simnet_faults.py", "tests/test_simnet_network.py",
    ),
    "repro.simnet.network:SimNetwork.link_is_up": ("tests/test_simnet_faults.py",),
    "repro.vnf.firewall:StatefulFirewall.is_established": ("tests/test_vnf.py",),
    "repro.vnf.ids:IntrusionDetector.is_blocked": ("tests/test_vnf_extended.py",),
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """``(module, name)`` per imported name; ``name`` is None for
    ``import module``.  The tree imports absolutely: a relative import
    is not followed, so what only it reaches shows as unreached."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                yield node.module, alias.name


def _scan():
    files = {_module_name(p): p for p in (SRC / "repro").rglob("*.py")}
    packages = {
        _module_name(p) for p in (SRC / "repro").rglob("__init__.py")
    }
    reexports = {
        pkg: {
            name: module
            for module, name in _imports(files[pkg])
            if name is not None
        }
        for pkg in packages
    }

    def resolve(module: str, name: str | None) -> str | None:
        if name is not None and f"{module}.{name}" in files:
            return f"{module}.{name}"
        if name is not None and module in packages:
            source = reexports[module].get(name)
            return resolve(source, name) if source else None
        return module if module in files else None

    reached = set()
    for caller_dir in CALLER_DIRS:
        for path in caller_dir.rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for module, name in _imports(path):
                reached.add(resolve(module, name))
    return set(files) - packages - reached


def test_every_module_has_a_caller_outside_the_tests():
    unreached = _scan()
    assert sorted(unreached - set(UNREACHED)) == [], (
        "only tests reach these modules: join them to the system or delete them"
    )


def test_allow_list_names_only_unreached_modules():
    assert sorted(set(UNREACHED) - _scan()) == [], (
        "these modules have a caller now: drop them from UNREACHED"
    )


class _Definition(NamedTuple):
    name: str
    lines: int
    #: Key of the enclosing class, or None at module level.
    owner: str | None
    is_class: bool


def _definitions_and_references():
    """``(definitions, references)``: ``definitions`` maps
    ``module:qualname`` to a :class:`_Definition` for every definition
    under ``src/repro``; ``references`` maps a tuple of enclosing
    definition keys (outermost first) to the names referenced directly
    inside them, from every non-``__init__`` caller file."""
    definitions: dict[str, _Definition] = {}
    references: dict[tuple[str, ...], set[str]] = {}

    def visit(node, module, chain, record):
        for child in ast.iter_child_nodes(node):
            owner = chain[-1] if chain else None
            if (
                module is not None
                and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and (owner is None or definitions[owner].is_class)
            ):
                qualname = f"{owner.split(':')[1]}.{child.name}" if owner else child.name
                key = f"{module}:{qualname}"
                definitions[key] = _Definition(
                    child.name,
                    child.end_lineno - child.lineno + 1,
                    owner,
                    isinstance(child, ast.ClassDef),
                )
                visit(child, module, chain + (key,), record)
                continue
            if record and isinstance(child, ast.Name):
                references.setdefault(chain, set()).add(child.id)
            elif record and isinstance(child, ast.Attribute):
                references.setdefault(chain, set()).add(child.attr)
            visit(child, module, chain, record)

    for caller_dir in CALLER_DIRS:
        for path in sorted(caller_dir.rglob("*.py")):
            module = _module_name(path) if path.is_relative_to(SRC / "repro") else None
            tree = ast.parse(path.read_text(), str(path))
            visit(tree, module, (), record=path.name != "__init__.py")
    return definitions, references


@functools.cache
def _census():
    """``(definitions, unreached, referenced)``.  The allow-listed
    definitions (``UNREACHED_DEFS``, ``TEST_ONLY`` and the members of
    ``UNREACHED`` modules) are live -- what they name is reached -- but
    land in ``referenced`` only if some live code names them."""
    definitions, references = _definitions_and_references()
    by_name: dict[str, list[str]] = {}
    for key, definition in definitions.items():
        by_name.setdefault(definition.name, []).append(key)
    live = {
        key for key in definitions
        if key in UNREACHED_DEFS
        or key in TEST_ONLY
        or key.split(":")[0] in UNREACHED
    }
    referenced: set[str] = set()
    changed = True
    while changed:
        changed = False
        for key, definition in definitions.items():
            name = definition.name
            if (
                key not in referenced
                and name.startswith("__") and name.endswith("__")
                and (definition.owner in live or definition.owner in referenced)
            ):
                referenced.add(key)
                changed = True
        for chain, names in references.items():
            if not all(c in live or c in referenced for c in chain):
                continue
            for name in names:
                for key in by_name.get(name, ()):
                    if key not in referenced and key not in chain:
                        referenced.add(key)
                        changed = True
    unreached = set(definitions) - referenced - live
    return definitions, unreached, referenced


def test_every_definition_has_a_caller_outside_the_tests():
    definitions, unreached, _ = _census()
    # Report the outermost: an unreached class carries its methods.
    outermost = sorted(k for k in unreached if definitions[k].owner not in unreached)
    lines = sum(definitions[k].lines for k in outermost)
    print(
        f"\n{len(definitions)} definitions; {len(outermost)} unreached "
        f"({lines} lines) beside {len(UNREACHED_DEFS)} allowed and "
        f"{len(TEST_ONLY)} test-only"
    )
    assert outermost == [], (
        "only tests reach these definitions: join them to the system, "
        "delete them, or (a test's window onto state) list them in TEST_ONLY"
    )


def test_definition_allow_lists_name_only_unreached_definitions():
    definitions, _, referenced = _census()
    listed = set(UNREACHED_DEFS) | set(TEST_ONLY)
    assert sorted(listed - set(definitions)) == [], "no such definition"
    assert sorted(listed & referenced) == [], (
        "these definitions have a caller now: drop them from the allow-list"
    )
    assert sorted(set(UNREACHED_DEFS) & set(TEST_ONLY)) == []
    assert all(UNREACHED_DEFS.values())


def test_each_test_only_definition_is_used_by_its_test_files():
    definitions, _, _ = _census()
    for key, files in TEST_ONLY.items():
        name = definitions[key].name
        for test_file in files:
            assert f".{name}(" in (ROOT / test_file).read_text(), (key, test_file)

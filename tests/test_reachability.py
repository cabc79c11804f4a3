"""Every module under ``src/repro`` has a caller outside the tests.

A module that only tests import is an extension nobody runs: it either
joins the system (a bench, example, soak or CLI path calls it) or it
leaves.  The scan reads ``import`` statements with :mod:`ast` from every
non-``__init__`` file in ``src/``, ``benchmarks/`` and ``examples/``,
and resolves ``from repro.pkg import Name`` through the package's own
``__init__`` re-exports to the module that defines ``Name``.  Package
``__init__`` files never count as callers: a re-export is not a use.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: Modules with no static caller, each with the reason it may stay.
UNREACHED = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.bus.aggregator": "ROADMAP item 14: joins LocalSwitchboard's publication",
    "repro.dataplane.measurement": "ROADMAP item 14: joins the reoptimize loop",
    "repro.controller.audit": "ROADMAP item 13: leaves controller/ for the probe library",
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

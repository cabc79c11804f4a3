"""Every config field has a caller outside the tests.

A field of a ``*Config`` / ``*Policy`` dataclass that no call sets is a
configuration nobody runs: it is a module constant next to the code
that reads it.  The scan reads every call of such a class with
:mod:`ast` from ``src/``, ``benchmarks/`` and ``examples/``; a field
counts as passed when it appears by keyword, by position, or as a
literal key of a splatted dict (``Cls(**{"f": v})``, ``Cls(**dict(f=v))``,
or a name bound to such a dict in the calling function).  A field only
tests set is listed in ``TEST_ONLY`` with the test file that sets it.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: ``(class, field) -> test file that sets it``: knobs whose tests
#: exercise behaviour the program keeps, with no caller outside tests.
TEST_ONLY = {
    ("RpcConfig", "timeout_s"): "tests/test_resilience_rpc.py",
    ("RpcConfig", "max_retries"): "tests/test_resilience_rpc.py",
    ("RpcConfig", "jitter"): "tests/test_resilience_rpc.py",
    ("RpcConfig", "dedup_window"): "tests/test_resilience_rpc.py",
    ("ResilienceConfig", "rpc"): "tests/test_resilience.py",
    ("FederationChaosConfig", "coordinator_crash"): "tests/test_federation_resilience.py",
    ("FederationChaosConfig", "check_interval_s"): "tests/test_federation_resilience.py",
    ("SoakConfig", "scenario"): "tests/test_chaos_runner.py",
    ("WorkloadConfig", "switchboard_share"): "tests/test_topology.py",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _config_fields() -> dict[str, tuple[str, ...]]:
    """``class -> fields in declaration order`` for every config
    dataclass under ``src/repro``."""
    classes = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith(("Config", "Policy"))
                and _is_dataclass(node)
            ):
                classes[node.name] = tuple(
                    stmt.target.id
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and "ClassVar" not in ast.unparse(stmt.annotation)
                )
    return classes


def _dict_keys(node: ast.AST) -> set[str]:
    """Literal keys of a ``{...}`` display or a ``dict(...)`` call."""
    if isinstance(node, ast.Dict):
        return {
            key.value
            for key in node.keys
            if isinstance(key, ast.Constant) and isinstance(key.value, str)
        }
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
        return {kw.arg for kw in node.keywords if kw.arg is not None}
    return set()


def _splat_keys(value: ast.AST, scope: ast.AST) -> set[str]:
    keys = _dict_keys(value)
    if isinstance(value, ast.Name):
        # A name bound in the calling function (or a test's parametrize
        # list): every literal dict in that scope may reach the call.
        for node in ast.walk(scope):
            keys |= _dict_keys(node)
    return keys


def _passed(path: Path, classes) -> set[tuple[str, str]]:
    """``(class, field)`` for every field some call in ``path`` sets."""
    tree = ast.parse(path.read_text(), str(path))
    aliases = {name: name for name in classes}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in classes:
                    aliases[alias.asname or alias.name] = alias.name
    passed = set()
    scopes = [
        node for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    for scope in scopes + [tree]:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            cls = aliases.get(called)
            if cls is None:
                continue
            fields = classes[cls]
            passed |= {(cls, f) for f in fields[: len(node.args)]}
            for kw in node.keywords:
                names = {kw.arg} if kw.arg else _splat_keys(kw.value, scope)
                passed |= {(cls, f) for f in names if f in fields}
    return passed


def _census():
    classes = _config_fields()
    everything = {(cls, f) for cls, fields in classes.items() for f in fields}
    passed = set()
    for caller_dir in CALLER_DIRS:
        for path in caller_dir.rglob("*.py"):
            passed |= _passed(path, classes)
    return classes, everything, passed


def test_every_config_field_has_a_caller_outside_the_tests():
    classes, everything, passed = _census()
    print(f"{len(everything)} fields in {len(classes)} config classes")
    unset = sorted(everything - passed - set(TEST_ONLY))
    assert unset == [], (
        "no caller sets these fields: make them module constants"
    )


def test_test_only_fields_are_set_by_their_test_and_by_nothing_else():
    classes, everything, passed = _census()
    assert sorted(set(TEST_ONLY) - everything) == [], "no such field"
    assert sorted(set(TEST_ONLY) & passed) == [], (
        "a caller outside the tests sets these: drop them from TEST_ONLY"
    )
    by_file = defaultdict(set)
    for key, test in TEST_ONLY.items():
        by_file[test].add(key)
    for test, keys in by_file.items():
        assert sorted(keys - _passed(ROOT / test, classes)) == [], test

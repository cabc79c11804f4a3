"""Every option has a caller outside the tests.

An option no call sets is a configuration nobody runs: it is a module
constant next to the code that reads it.  Two censuses read the calls
with :mod:`ast` from ``src/``, ``benchmarks/`` and ``examples/``:

*Config fields.*  A field of a ``*Config`` / ``*Policy`` dataclass
counts as passed when a call of the class names it by keyword, by
position, or as a literal key of a splatted dict (``Cls(**{"f": v})``,
``Cls(**dict(f=v))``, or a name bound to such a dict in the calling
function).

*Parameters.*  A parameter with a default of a function, method or
constructor under ``src/repro`` counts as set when a call that reaches
it passes it.  Callers are resolved, not spelled: a name goes through
its module's imports (``import ... as`` aliases and package
re-exports included); ``Cls(...)`` and ``cls(...)`` reach the first
``__init__`` in the class's bases, so a subclass constructor counts for
the one it inherits, and ``super().m(...)`` reaches the first ``m``
after the enclosing class; ``obj.m(...)`` on a receiver the scan cannot
type reaches every definition named ``m``.  A value that is the
caller's own defaulted parameter forwards it: it counts only if that
parameter is set, transitively.  A function or class referenced other
than by being called (stored in a table, passed as a callback or a
factory) has every parameter counted as set; a type test or an
``except`` clause is not such a reference.

An option only tests set is listed in ``TEST_ONLY`` with the test file
that sets it and why it stays: it is a seam that injects a fake, a
fault, a clock or a seed, or reaches a state the program itself
reaches.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "examples")

#: ``(class, field)`` or ``(module:qualname, parameter)`` -> ``(test
#: file that sets it, why it stays)``.
TEST_ONLY = {
    ("RpcConfig", "timeout_s"): (
        "tests/test_resilience_rpc.py", "a fault: a short timeout retransmits as control-link loss does",
    ),
    ("RpcConfig", "max_retries"): (
        "tests/test_resilience_rpc.py", "a fault: a small budget reaches the give-up path the lossy soaks reach",
    ),
    ("RpcConfig", "jitter"): (
        "tests/test_resilience_rpc.py", "a seed: zero jitter pins the retransmit times a test asserts",
    ),
    ("RpcConfig", "dedup_window"): (
        "tests/test_resilience_rpc.py", "reaches the full dedup window a long run reaches",
    ),
    ("ResilienceConfig", "rpc"): (
        "tests/test_resilience.py", "carries the RpcConfig faults above to an installer",
    ),
    ("FederationChaosConfig", "coordinator_crash"): (
        "tests/test_federation_resilience.py", "a fault: a soak without the coordinator crash",
    ),
    ("FederationChaosConfig", "check_interval_s"): (
        "tests/test_federation_resilience.py", "a clock: probes on a shorter period",
    ),
    ("SoakConfig", "scenario"): (
        "tests/test_chaos_runner.py", "a fault: replays an explicit scenario",
    ),
    ("WorkloadConfig", "switchboard_share"): (
        "tests/test_topology.py", "reaches the demand split the generator computes from it",
    ),
    ("repro.cli:main", "argv"): (
        "tests/test_cli.py", "a fake: the command line, in place of sys.argv",
    ),
    ("repro.chaos.runner:run_soak", "extra_probes"): (
        "tests/test_federation_resilience.py", "a fault: a planted probe the soak must report",
    ),
    ("repro.scale.farm:SolverFarm.__init__", "cache"): (
        "tests/test_plan_carry.py", "a fake: a RecordingCache, or one cache shared by two farms",
    ),
}


# -- config fields ---------------------------------------------------------


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


def _field_entries():
    classes = _config_fields()
    return {key: value for key, value in TEST_ONLY.items() if key[0] in classes}


def test_every_config_field_has_a_caller_outside_the_tests():
    classes, everything, passed = _census()
    print(f"{len(everything)} fields in {len(classes)} config classes")
    unset = sorted(everything - passed - set(TEST_ONLY))
    assert unset == [], (
        "no caller sets these fields: make them module constants"
    )


def test_test_only_fields_are_set_by_their_test_and_by_nothing_else():
    classes, everything, passed = _census()
    entries = _field_entries()
    assert sorted(set(entries) - everything) == [], "no such field"
    assert sorted(set(entries) & passed) == [], (
        "a caller outside the tests sets these: drop them from TEST_ONLY"
    )
    by_file = defaultdict(set)
    for key, (test, _reason) in entries.items():
        by_file[test].add(key)
    for test, keys in by_file.items():
        assert sorted(keys - _passed(ROOT / test, classes)) == [], test


# -- parameters --------------------------------------------------------------

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _Def(NamedTuple):
    #: Parameters a positional argument fills, a bound ``self`` dropped.
    positional: tuple[str, ...]
    defaulted: tuple[str, ...]


def _names(fn) -> set[str]:
    args = fn.args
    return {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}


def _defaulted(fn) -> tuple[str, ...]:
    args = fn.args
    positional = args.posonlyargs + args.args
    kw = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return tuple(a.arg for a in positional[len(positional) - len(args.defaults):] + kw)


@functools.cache
def _assigned(fn) -> frozenset[str]:
    return frozenset(
        node.id for node in ast.walk(fn)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
    )


@functools.cache
def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


class _Index:
    """Definitions, class bases and per-module names of a set of
    modules (``module name -> path``)."""

    def __init__(self, modules: dict[str, Path]):
        self.modules = modules
        self.defs: dict[str, _Def] = {}
        self.by_name: dict[str, list[str]] = defaultdict(list)
        #: class key -> (its module, base expressions, method -> def key)
        self.classes: dict[str, tuple[str, list[ast.expr], dict[str, str]]] = {}
        self.names: dict[str, dict[str, tuple]] = {}
        for module, path in modules.items():
            names = self.names[module] = {}
            tree = _tree(path)
            self._define(tree, module, "", None, names)
            # Imports anywhere in the module, a function's own included.
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        # ``import a.b`` binds ``a``; ``import a.b as x``, ``a.b``.
                        top = alias.name.split(".")[0]
                        target = alias.name if alias.asname else top
                        names.setdefault(alias.asname or top, ("module", target))
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    for alias in node.names:
                        names.setdefault(
                            alias.asname or alias.name, ("import", node.module, alias.name)
                        )

    def _define(self, node, module, prefix, owner, names):
        for child in ast.iter_child_nodes(node):
            key = f"{module}:{prefix}{getattr(child, 'name', '')}"
            if isinstance(child, ast.ClassDef):
                self.classes[key] = (module, child.bases, {})
                if names is not None:
                    names[child.name] = ("class", key)
                self._define(child, module, f"{prefix}{child.name}.", key, None)
            elif isinstance(child, _FUNCS):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if owner is not None and not static:
                    positional = positional[1:]
                self.defs[key] = _Def(tuple(positional), _defaulted(child))
                self.by_name[child.name].append(key)
                if owner is not None:
                    self.classes[owner][2][child.name] = key
                elif names is not None:
                    names[child.name] = ("def", key)
                self._define(child, module, f"{prefix}{child.name}.", None, None)
            else:
                self._define(child, module, prefix, owner, names)

    def _module(self, name: str, near: str) -> str | None:
        if name in self.modules:
            return name
        # A script's sibling, imported through its sys.path entry.
        sibling = f"{near.rpartition('.')[0]}.{name}"
        return sibling if sibling in self.modules else None

    def lookup(self, module: str, name: str):
        """``("def" | "class", key)``, ``("module", name)`` or None."""
        entry = self.names.get(module, {}).get(name)
        if entry is None or entry[0] in ("def", "class"):
            return entry
        if entry[0] == "module":
            found = self._module(entry[1], module)
            return ("module", found) if found else None
        _, source, imported = entry
        found = self._module(f"{source}.{imported}", module)
        if found is not None:
            return ("module", found)
        source = self._module(source, module)
        return self.lookup(source, imported) if source else None

    def resolve(self, node: ast.expr, module: str):
        """What a name or dotted attribute refers to, if the scan can
        tell: a def, a class or a module entry."""
        if isinstance(node, ast.Name):
            return self.lookup(module, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value, module)
            if base is not None and base[0] == "module":
                return self.lookup(base[1], node.attr) or (
                    ("module", f"{base[1]}.{node.attr}")
                    if f"{base[1]}.{node.attr}" in self.modules else None
                )
            if base is not None and base[0] == "class":
                found = self.method(base[1], node.attr)
                return ("def", found) if found else None
        return None

    def method(self, cls: str, name: str, after: bool = False) -> str | None:
        """The first ``name`` in the bases of ``cls`` (``after``: past
        ``cls`` itself), breadth first."""
        queue, seen = ([] if after else [cls]), set()
        if after:
            queue.extend(self._bases(cls))
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            found = self.classes[current][2].get(name)
            if found is not None:
                return found
            queue.extend(self._bases(current))
        return None

    def _bases(self, cls: str):
        module, bases, _ = self.classes[cls]
        for base in bases:
            entry = self.resolve(base, module)
            if entry is not None and entry[0] == "class":
                yield entry[1]

    def targets(self, call: ast.Call, module: str, cls, scopes) -> list[str]:
        """Keys of the definitions a call may reach."""
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "cls" and cls is not None:
                entry = ("class", cls)
            elif any(func.id in _names(fn) for fn, _ in scopes):
                return []  # a callable parameter: its referents count
            else:
                entry = self.lookup(module, func.id)
                if entry is None:
                    return list(self.by_name.get(func.id, ()))
        elif isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "super":
                found = cls and self.method(cls, func.attr, after=True)
                return [found] if found else []
            entry = self.resolve(func, module)
            if entry is None:
                base = self.resolve(value, module)
                if base is not None:
                    return []
                return list(self.by_name.get(func.attr, ()))
        else:
            return []
        if entry[0] == "class":
            entry = ("def", self.method(entry[1], "__init__"))
        return [entry[1]] if entry[0] == "def" and entry[1] else []


def _edges(index: _Index, module: str) -> list[tuple[tuple[str, str], tuple | None]]:
    """``(parameter, source)`` per argument a call in ``module`` passes:
    ``source`` is the enclosing defaulted parameter it forwards, or None
    for a value set there."""
    edges = []

    def source(value, scopes):
        if isinstance(value, ast.Name):
            for fn, key in reversed(scopes):
                if value.id in _names(fn):
                    if value.id in _defaulted(fn) and value.id not in _assigned(fn):
                        return (key, value.id)
                    return None
        return None

    def every(key):
        edges.extend(((key, name), None) for name in index.defs[key].defaulted)

    def call(node, cls, scopes):
        for key in index.targets(node, module, cls, scopes):
            positional, defaulted = index.defs[key]
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    edges.extend(((key, n), None) for n in positional[i:] if n in defaulted)
                    break
                if i < len(positional) and positional[i] in defaulted:
                    edges.append(((key, positional[i]), source(arg, scopes)))
            for kw in node.keywords:
                if kw.arg is not None:
                    if kw.arg in defaulted:
                        edges.append(((key, kw.arg), source(kw.value, scopes)))
                    continue
                keys = _dict_keys(kw.value)
                if not keys and isinstance(kw.value, ast.Name) and scopes:
                    keys = _splat_keys(kw.value, scopes[-1][0])
                for name in (keys or set(defaulted)) & set(defaulted):
                    edges.append(((key, name), None))

    def visit(node, prefix, cls, scopes, called=False):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.ClassDef):
            key = f"{module}:{prefix}{node.name}"
            for part in node.decorator_list:
                visit(part, prefix, cls, scopes)
            for stmt in node.body:
                visit(stmt, f"{prefix}{node.name}.", key, scopes)
        elif isinstance(node, _FUNCS):
            key = f"{module}:{prefix}{node.name}"
            args = node.args
            for part in node.decorator_list + args.defaults + [d for d in args.kw_defaults if d]:
                visit(part, prefix, cls, scopes)
            for stmt in node.body:
                visit(stmt, f"{prefix}{node.name}.", cls, scopes + ((node, key),))
        elif isinstance(node, ast.AnnAssign):
            for part in (node.target, node.value):
                if part is not None:
                    visit(part, prefix, cls, scopes)
        elif isinstance(node, ast.Call):
            call(node, cls, scopes)
            visit(node.func, prefix, cls, scopes, called=True)
            args = node.args
            if getattr(node.func, "id", None) in ("isinstance", "issubclass"):
                args = args[:1]  # a type test constructs nothing
            for part in args + [kw.value for kw in node.keywords]:
                visit(part, prefix, cls, scopes)
        elif isinstance(node, ast.ExceptHandler):
            for stmt in node.body:
                visit(stmt, prefix, cls, scopes)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            if not called and isinstance(node.ctx, ast.Load):
                entry = index.resolve(node, module)
                if entry is not None and entry[0] == "class":
                    entry = ("def", index.method(entry[1], "__init__"))
                if entry is None and isinstance(node, ast.Attribute):
                    for key in index.by_name.get(node.attr, ()):
                        every(key)
                elif entry is not None and entry[0] == "def" and entry[1]:
                    every(entry[1])
            if isinstance(node, ast.Attribute):
                visit(node.value, prefix, cls, scopes)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, prefix, cls, scopes)

    visit(_tree(index.modules[module]), "", None, ())
    return edges


def _set(edges) -> set[tuple[str, str]]:
    """Parameters a direct value sets, closed over forwarding."""
    forwards = defaultdict(set)
    done = set()
    for param, source in edges:
        if source is None:
            done.add(param)
        else:
            forwards[source].add(param)
    queue = list(done)
    while queue:
        for param in forwards.pop(queue.pop(), ()):
            if param not in done:
                done.add(param)
                queue.append(param)
    return done


def _module_name(path: Path, root: Path) -> str:
    parts = path.relative_to(root).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _parameter_census(modules: dict[str, Path], package: str):
    """``(defaulted, edges)``: the defaulted parameters of every
    definition in ``package`` and, per module, the edges of its calls."""
    index = _Index(modules)
    defaulted = {
        (key, name)
        for key, definition in index.defs.items()
        if key.startswith(f"{package}.") or key.startswith(f"{package}:")
        for name in definition.defaulted
    }
    return defaulted, {module: _edges(index, module) for module in modules}


@functools.cache
def _repo():
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        modules[_module_name(path, SRC)] = path
    for top in ("benchmarks", "examples", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            modules[_module_name(path, ROOT)] = path
    return _parameter_census(modules, "repro")


def _repo_set(*tests: str) -> set[tuple[str, str]]:
    """Parameters set by calls in the program, plus ``tests``."""
    _, edges = _repo()
    return _set(
        edge
        for module, found in edges.items()
        if not module.startswith("tests.") or module in tests
        for edge in found
    )


def _parameter_entries():
    return {key: value for key, value in TEST_ONLY.items() if ":" in key[0]}


def test_every_parameter_has_a_caller_outside_the_tests():
    defaulted, _ = _repo()
    print(
        f"\n{len(defaulted)} defaulted parameters; "
        f"{len(_parameter_entries())} test-only"
    )
    unset = sorted(defaulted - _repo_set() - set(TEST_ONLY))
    assert unset == [], (
        "no caller outside the tests sets these parameters: make them "
        "module constants, or (a test seam) list them in TEST_ONLY:\n"
        + "\n".join(f"  {key}({name})" for key, name in unset)
    )


def test_test_only_parameters_are_set_by_their_test_and_by_nothing_else():
    defaulted, _ = _repo()
    entries = _parameter_entries()
    assert sorted(set(entries) - defaulted) == [], "no such parameter"
    assert sorted(set(entries) & _repo_set()) == [], (
        "a caller outside the tests sets these: drop them from TEST_ONLY"
    )
    assert all(reason for _test, reason in TEST_ONLY.values())
    for key, (test, _reason) in entries.items():
        module = _module_name(ROOT / test, ROOT)
        assert key in _repo_set(module), (key, test)


_PLANTED = {
    "tools": """
def scale(x, factor=2, offset=0):
    return x * factor + offset

def grow(x, factor=3):
    return x * factor
""",
    "shapes": """
class Base:
    def __init__(self, size=1):
        self.size = size

class Mid(Base):
    def __init__(self, size=2):
        super().__init__(size=size)

class Leaf(Mid):
    def __init__(self):
        super().__init__()

class Other:
    def __init__(self, size=3):
        self.size = size

class Knob:
    def __init__(self, level=1):
        self.level = level

    @classmethod
    def make(cls):
        return cls(level=2)

class Dial(Knob):
    pass
""",
    "main": """
from planted.tools import scale as grow
from planted.shapes import Dial, Leaf, Other

def outer(limit=5):
    return inner(limit=limit)

def inner(limit=10):
    return limit

def handle(case, verbose=False):
    return case, verbose

HANDLERS = {"a": handle}

def run(kind):
    grow(1, factor=5)
    outer()
    Leaf()
    Other(size=4)
    Dial.make()
    return HANDLERS[kind]("case")
""",
}


def test_the_parameter_census_resolves_callers(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name, source in _PLANTED.items():
        (package / f"{name}.py").write_text(source)
    modules = {
        _module_name(path, tmp_path): path for path in sorted(package.glob("*.py"))
    }
    defaulted, edges = _parameter_census(modules, "planted")
    passed = _set(edge for found in edges.values() for edge in found)
    unset = {f"{key.split(':')[1]}({name})" for key, name in defaulted - passed}
    assert unset == {
        # Forwarded from a parameter nothing sets.
        "outer(limit)", "inner(limit)",
        # Reached only by a super().__init__() that passes nothing.
        "Mid.__init__(size)", "Base.__init__(size)",
        # Called only as `grow`: the alias's call sets factor alone,
        # and the real `grow` is never called.
        "scale(offset)", "grow(factor)",
    }

"""Every piece of state has a reader outside the tests.

An attribute the program writes and nothing reads is work with no
effect: a counter nobody reports, a log nobody replays, a rule set no
packet consults.  It leaves, and a test that counted through it
observes the behaviour itself (a packet's ``trace``, a recorder passed
as a VNF's ``transform``, a replica's stored version).

*Owned.*  A class under ``src/repro`` owns the attributes it assigns on
``self`` (a method's first parameter) and the fields it declares as a
dataclass.  Attributes of objects no ``src`` class defines (numpy's
``flags.writeable``) are out of scope.

*Read.*  The scan reads ``src/``, ``benchmarks/`` and ``examples/``
with :mod:`ast`.  A load of ``obj.x`` reads ``x`` unless it is written
through: an assignment, augmented assignment or ``del`` of it, a store
into a subscript of it (``obj.x[k] = v``), or a call of a mutating
method on it used as a statement (``obj.x.append(v)``).  Inside a
method, ``self.x`` reads ``x`` of the method's class, its bases and its
subclasses (resolved through ``tests/test_options.py``'s ``_Index``);
any other receiver reads every owned ``x`` by name.  A string literal
of the name (a ``getattr`` table) reads it by name, and
``fields(self)``, ``asdict(self)``, ``astuple(self)`` or ``vars(self)``
reads every attribute of the class.

An attribute only tests read is listed in ``TEST_ONLY`` with the test
file that reads it and why it stays: it is part of what its object does
for the program (a VNF's verdicts, a result's own field, a handle a
deployment exposes).  A count kept only so a test can count is not.
"""

from __future__ import annotations

import ast
import functools
from collections import defaultdict

from tests.test_options import (
    _FUNCS,
    ROOT,
    _in,
    _Index,
    _module_name,
    _repo_index,
    _tree,
)

#: ``(module:class, attribute)`` -> ``(test file that reads it, why it
#: stays)``.
TEST_ONLY = {
    ("repro.controller.reoptimize:ReoptimizationReport", "skipped"): (
        "tests/test_failures.py", "a result's own field: the chains a round left on their routes",
    ),
    ("repro.controller.reoptimize:ReoptimizationReport", "vanished"): (
        "tests/test_failures.py", "a result's own field: the chains torn down mid-round",
    ),
    ("repro.core.formulation:ChainFlow", "reused"): (
        "tests/test_program_splice.py",
        "a spliced program equals a fresh build, so this count is what tells a splice from a rebuild",
    ),
    ("repro.dataplane.e2e:E2EResult", "utilization"): (
        "tests/test_dataplane_e2e.py", "a result's own field: the instance loads the rates settle at",
    ),
    ("repro.dataplane.e2e:RouteMetrics", "bottleneck"): (
        "tests/test_dataplane_e2e.py", "a result's own field: what limits the route's rate",
    ),
    ("repro.federation.chaos:FederationDeployment", "fed_store"): (
        "tests/test_federation_resilience.py", "a handle the deployment exposes: the durable record",
    ),
    ("repro.scale.farm:FarmResult", "fallback"): (
        "tests/test_scale_farm.py", "a result's own field: the plan came from one whole-network solve",
    ),
    ("repro.vnf.ids:Alert", "source"): (
        "tests/test_vnf_extended.py", "an alert's own field: the source it accuses",
    ),
    ("repro.vnf.ids:IntrusionDetector", "alerts"): (
        "tests/test_vnf_extended.py", "a VNF's verdicts: the alerts it raised",
    ),
}

#: Methods that change the object they are called on.
_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "difference_update", "discard",
    "extend", "extendleft", "insert", "intersection_update", "move_to_end",
    "pop", "popitem", "popleft", "remove", "reverse", "setdefault", "sort",
    "symmetric_difference_update", "update",
})

#: Calls that read every field of the instance passed to them.
_WHOLE = frozenset({"asdict", "astuple", "fields", "vars"})


def _family(index: _Index) -> dict[str, frozenset[str]]:
    """Class key -> the class with its bases and subclasses, transitively."""
    bases = {cls: set(index._bases(cls)) for cls in index.classes}
    subclasses = defaultdict(set)
    for cls, found in bases.items():
        for base in found:
            subclasses[base].add(cls)

    def closure(cls, edges):
        seen, queue = set(), [cls]
        while queue:
            current = queue.pop()
            if current not in seen:
                seen.add(current)
                queue.extend(edges.get(current, ()))
        return seen

    return {
        cls: frozenset(closure(cls, bases) | closure(cls, subclasses))
        for cls in index.classes
    }


def _written(node: ast.expr, parents: dict) -> bool:
    """Whether a loaded ``node`` is only stored through: the value of a
    stored subscript, or the receiver of a mutating call statement."""
    while True:
        parent = parents.get(node)
        if isinstance(parent, ast.Subscript) and parent.value is node:
            if not isinstance(parent.ctx, ast.Load):
                return True
            node = parent
            continue
        call = parents.get(parent)
        return (
            isinstance(parent, ast.Attribute)
            and parent.attr in _MUTATORS
            and isinstance(call, ast.Call)
            and call.func is parent
            and isinstance(parents.get(call), ast.Expr)
        )


def _reads(index: _Index, module: str, family) -> tuple[set, set[str]]:
    """``(typed, named)``: the ``(class, attribute)`` pairs ``module``
    reads through ``self``, and the names it reads on any other receiver
    or as a string."""
    tree = _tree(index.modules[module])
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    typed, named = set(), set()

    def visit(node, prefix, owner, this):
        # ``this``: (the name bound to the instance, its class family).
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                for part in child.bases + child.decorator_list:
                    visit(part, prefix, None, this)
                visit(child, f"{prefix}{child.name}.", f"{module}:{prefix}{child.name}", this)
                continue
            if isinstance(child, _FUNCS):
                args = child.args.posonlyargs + child.args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                inner = (args[0].arg, family[owner]) if owner and args and not static else this
                visit(child, f"{prefix}{child.name}.", None, inner)
                continue
            if isinstance(child, ast.Attribute):
                if isinstance(child.ctx, ast.Load) and not _written(child, parents):
                    if this and getattr(child.value, "id", None) == this[0]:
                        typed.update((cls, child.attr) for cls in this[1])
                    else:
                        named.add(child.attr)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                named.add(child.value)
            elif isinstance(child, ast.Call) and this and child.args:
                func = child.func
                if (
                    getattr(func, "id", getattr(func, "attr", None)) in _WHOLE
                    and getattr(child.args[0], "id", None) == this[0]
                ):
                    typed.update(
                        (cls, name) for cls in this[1] for name in index.state.get(cls, ())
                    )
            visit(child, prefix, owner, this)

    visit(tree, "", None, None)
    return typed, named


def _state_census(index: _Index, package: str, callers) -> tuple[set, set]:
    """``(owned, read)``: every attribute a class in ``package`` owns,
    and those that code in the ``callers`` modules reads."""
    family = _family(index)
    owned = {
        (cls, name) for cls, names in index.state.items() if _in(cls, package) for name in names
    }
    read = set()
    for module in callers:
        typed, named = _reads(index, module, family)
        read |= typed | {(cls, name) for cls, name in owned if name in named}
    return owned, read


@functools.cache
def _census():
    index = _repo_index()
    callers = [module for module in index.modules if not module.startswith("tests.")]
    return _state_census(index, "repro", callers)


def test_every_attribute_has_a_reader_outside_the_tests():
    owned, read = _census()
    print(f"\n{len(owned)} attributes; {len(TEST_ONLY)} test-only")
    unread = sorted(owned - read - set(TEST_ONLY))
    assert unread == [], (
        "nothing outside the tests reads these attributes: delete them, or "
        "(part of what the object does) list them in TEST_ONLY:\n"
        + "\n".join(f"  {cls}.{name}" for cls, name in unread)
    )


def test_test_only_attributes_are_read_by_their_test_and_by_nothing_else():
    owned, read = _census()
    assert sorted(set(TEST_ONLY) - owned) == [], "no such attribute"
    assert sorted(set(TEST_ONLY) & read) == [], (
        "code outside the tests reads these: drop them from TEST_ONLY"
    )
    index = _repo_index()
    family = _family(index)
    for (cls, name), (test, reason) in TEST_ONLY.items():
        assert reason, (cls, name)
        _typed, named = _reads(index, _module_name(ROOT / test, ROOT), family)
        assert name in named, (cls, name, test)


_PLANTED = {
    "meters": '''
from dataclasses import dataclass, fields


class Meter:
    def __init__(self):
        self.count = 0
        self.log = []
        self.limit = 3

    def tick(self, item):
        self.count += 1
        self.log.append(item)


class Gauge(Meter):
    def full(self, used):
        return used >= self.limit


@dataclass
class Outcome:
    status: str


@dataclass
class Row:
    total: float = 0.0

    def cells(self):
        return [getattr(self, f.name) for f in fields(self)]


class Table:
    COLUMNS = ("width",)

    def __init__(self, width):
        self.width = width

    def describe(self):
        return {name: getattr(self, name) for name in self.COLUMNS}
''',
    "main": '''
from planted.meters import Gauge, Outcome, Row, Table


def run():
    gauge = Gauge()
    gauge.tick("a")
    Outcome(status="ok")
    return gauge.full(1), Row(total=1.0).cells(), Table(2).describe()
''',
}


def test_the_state_census_tells_reads_from_writes(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    (package / "__init__.py").write_text("")
    for name, source in _PLANTED.items():
        (package / f"{name}.py").write_text(source)
    index = _Index({
        _module_name(path, tmp_path): path for path in sorted(package.glob("*.py"))
    })
    owned, read = _state_census(index, "planted", index.modules)
    assert {f"{cls.split(':')[1]}.{name}" for cls, name in owned - read} == {
        # Only incremented, only appended to, only set by a constructor
        # keyword.
        "Meter.count", "Meter.log", "Outcome.status",
        # Not flagged: Meter.limit (read by a subclass), Table.width
        # (a getattr string), Row.total (fields(self)).
    }

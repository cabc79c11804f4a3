"""The program runs on numpy and two compiled modules of scipy.

networkx stays a test dependency: ``tests/reference/ecmp_enum.py``
enumerates shortest paths with it as the oracle of
``repro.topology.backbone.shortest_path_tables``.  Importing it would
cost every run ~12 MB of resident memory for a routine that builds two
tables at set-up.

Of scipy the solvers call two compiled functions: HiGHS
(``scipy.optimize._highspy._core``) and ``csr_matvec``
(``scipy.sparse._sparsetools``).  ``repro.core.highs`` loads those two
extension modules from their files; the ``scipy.optimize`` and
``scipy.sparse`` packages around them (~45 MB resident, half a
``repro.cli`` import's memory and two thirds of its time) are not
imported, neither at import nor by a routing or cloud-capacity solve.
Only the placement MIP (``plan_vnf_placement``) imports
``scipy.optimize.milp``, and a later package import reuses the HiGHS
module already loaded.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

IMPORT_ALL = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
"""

#: The two extension modules, and the pybind submodules HiGHS registers.
COMPILED = ("scipy.optimize._highspy._core", "scipy.sparse._sparsetools")

NETWORKX = """
print(sorted(name for name in sys.modules if name.partition(".")[0] == "networkx"))
"""

LOADED = """
print(sorted(
    name for name in sys.modules
    if name.startswith(("scipy.optimize", "scipy.sparse"))
    and not any(name == c or name.startswith(c + ".") for c in %r)
))
""" % (COMPILED,)

SOLVED = """
from repro.core.capacity import plan_cloud_capacity
from repro.core.lp import LpObjective, solve_chain_routing_lp
from repro.topology import WorkloadConfig, build_backbone, generate_workload
from repro.topology.cities import DEFAULT_CITIES

names = DEFAULT_CITIES[:6]
model = generate_workload(WorkloadConfig(
    num_chains=8, num_vnfs=6, coverage=0.6, total_traffic=2000.0,
    site_capacity=9000.0, cities=names, seed=3,
), build_backbone(names))
assert solve_chain_routing_lp(model, LpObjective.MAX_THROUGHPUT).ok
assert plan_cloud_capacity(model, 1000.0).alpha > 0
"""

REUSED = """
import sys
from repro.core import highs
assert "scipy.optimize" not in sys.modules and "scipy.sparse" not in sys.modules
import numpy as np
import scipy.optimize
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
from scipy.optimize._highspy import _core
from scipy.sparse import _sparsetools
assert _core is highs._hc and _sparsetools is highs._sparsetools
lp = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
assert lp.status == 0 and lp.fun == 1.0, lp
mip = milp(
    [-1.0, -1.0], constraints=[LinearConstraint([[2.0, 2.0]], -np.inf, 3.0)],
    integrality=[1, 1], bounds=Bounds(0, 1),
)
assert mip.status == 0 and mip.fun == -1.0, mip
print("[]")
"""


def probe(script: str) -> str:
    return subprocess.run(
        [sys.executable, "-c", script], cwd=SRC, check=True, capture_output=True, text=True
    ).stdout.strip()


def test_no_module_under_repro_imports_networkx():
    assert probe(IMPORT_ALL + NETWORKX) == "[]"


def test_no_module_under_repro_imports_the_scipy_packages():
    assert probe(IMPORT_ALL + LOADED) == "[]"


def test_a_routing_and_a_cloud_solve_load_no_scipy_package():
    assert probe(IMPORT_ALL + SOLVED + LOADED) == "[]"


def test_scipy_optimize_reuses_the_loaded_highs_and_still_solves():
    assert probe(REUSED) == "[]"

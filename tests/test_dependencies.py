"""The program runs on numpy and scipy alone.

networkx stays a test dependency: ``tests/reference/ecmp_enum.py``
enumerates shortest paths with it as the oracle of
``repro.topology.backbone.shortest_path_tables``.  Importing it would
cost every run ~12 MB of resident memory for a routine that builds two
tables at set-up.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, pkgutil, sys
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)
print(sorted(name for name in sys.modules if name.partition(".")[0] == "networkx"))
"""


def test_no_module_under_repro_imports_networkx():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=SRC, check=True, capture_output=True, text=True
    ).stdout
    assert out.strip() == "[]"

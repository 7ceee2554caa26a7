"""Importing the package loads no scipy module.

scipy is imported inside the few functions that call it (characterization,
IHM, the kinetics ODE, the plausibility fit), so a process that never
calls them — a campaign parent or worker, a serving process — does not
map it.  A fresh interpreter is needed: this test process has imported
scipy long before this test runs.
"""

import subprocess
import sys
from pathlib import Path

import repro

SUBPACKAGES = (
    "adaptation", "cli", "compute", "core", "db", "embedded", "inference",
    "ms", "nmr", "nn", "observability", "orchestration", "reliability",
    "serving", "storage", "uncertainty",
)

SRC = str(Path(repro.__file__).resolve().parent.parent)

PROBE = f"""
import importlib, sys
sys.path.insert(0, {SRC!r})
import repro
for name in {SUBPACKAGES!r}:
    importlib.import_module("repro." + name)
print("\\n".join(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_importing_every_subpackage_loads_no_scipy():
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert completed.stdout.split() == []

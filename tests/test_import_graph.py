"""numpy stays out of the import graph.

The crypto is pure Python, and loading numpy costs every interpreter
about 100 ms and 12 MiB.  A fresh interpreter imports the package, the
crypto and the scenario registry, and numpy must not come with them,
whether or not it is installed.
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

_SNIPPET = """
import sys
import repro, repro.crypto
from repro.runtime.scenario import scenario_names
scenario_names()
print("numpy" in sys.modules)
"""


def test_numpy_not_imported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SNIPPET], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"

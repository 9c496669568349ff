"""Process reuse: a run's bytes do not depend on what ran before it.

The golden suite runs every builtin scenario in one process, in sorted
order.  Here one fresh interpreter runs them all in the reverse order,
and each must still hash to its entry in ``scenario_golden.json``: no
memo or other process-wide state may carry one run's bytes into the
next.
"""

import json
import os
import pathlib
import subprocess
import sys

from .test_batched_datapath import SCENARIO_OVERRIDES
from .test_protocol_plane import GOLDEN

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_CHAIN = """
import hashlib, json, sys
from repro.runtime import run_scenario
for name, overrides in json.loads(sys.argv[1]):
    result = run_scenario(name, seed=0, overrides=overrides, use_cache=False)
    print(name, hashlib.sha256(result.canonical_bytes()).hexdigest())
"""


def test_golden_bytes_in_one_reused_process_reversed():
    order = sorted(GOLDEN, reverse=True)
    chain = json.dumps([[name, SCENARIO_OVERRIDES[name]] for name in order])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _CHAIN, chain], env=env,
                          capture_output=True, text=True, check=True)
    digests = [line.split() for line in proc.stdout.splitlines()]
    assert digests == [[name, GOLDEN[name]] for name in order]

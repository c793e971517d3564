"""What a fresh process loads: no scipy and numpy.random up front on
``import qplancherel``, and no partition list for the moment flow."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import qplancherel
print(json.dumps({
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "numpy.random": "numpy.random" in sys.modules,
}))
"""

FLOW_PROBE = """
import qplancherel
from qplancherel import diagrams
qplancherel.limit_moments(qplancherel.QParam(0.5), 40)
print(diagrams.enumerate_level.cache_info().currsize)
"""


def _run_fresh(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_import_loads_no_scipy_and_numpy_random_eagerly():
    assert json.loads(_run_fresh(PROBE)) == {"scipy": [], "numpy.random": True}


def test_flow_to_the_cap_lists_no_partitions():
    # the flow's gate groups its partition sum by part size, so an
    # order-40 flow leaves the level enumeration's cache empty
    assert int(_run_fresh(FLOW_PROBE)) == 0

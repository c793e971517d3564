"""The frozen outputs do not depend on the SIMD kernels numpy dispatches to.

numpy picks each ufunc's kernel at import from the CPU's features, and
the environment variable NPY_DISABLE_CPU_FEATURES turns its dispatch
targets off.  A child process with every dispatch target of this numpy
build off recomputes every frozen digest of the suite, and each must
equal the digest this process computes.  Run as a script, this module
prints the child's report as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qplancherel
from qplancherel.cli import EXIT_OK, main

import test_cli
import test_growth
import test_kernel
import test_qmeasure

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__


def _stdout_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def frozen_digests() -> dict[str, str]:
    """Every frozen digest of the suite, keyed by what it pins."""
    digests = {
        "transition_weights": test_kernel.frozen_weights_digest(),
        "grow_trajectory": test_kernel.frozen_trajectories_digest(),
    }
    for q in test_qmeasure.FROZEN_LEVEL_WEIGHTS:
        key = f"_level_weights 21..40 q={q}"
        digests[key] = test_qmeasure.frozen_level_weights_digest(q)
    for *case, _ in test_growth.FROZEN_OUTPUTS:
        key = "simulate_rescaled" + "".join(f" {v}" for v in case)
        digests[key] = test_growth.frozen_output_digest(*case)
    for command, cases in test_cli.FROZEN_STDOUT.items():
        for flags, _ in cases:
            argv = [command, *flags.split()]
            digests[" ".join(argv)] = _stdout_digest(argv)
    return digests


@pytest.mark.skipif(not __cpu_dispatch__, reason="numpy dispatches no SIMD target")
def test_digests_do_not_depend_on_simd_dispatch():
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(__cpu_dispatch__)
    # numpy may warn about a disabled target this CPU lacks; an inherited
    # PYTHONWARNINGS=error would make that warning fatal in the child
    env.pop("PYTHONWARNINGS", None)
    package_root = str(Path(qplancherel.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
    child = subprocess.Popen(
        [sys.executable, __file__],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # the child runs on the other core meanwhile
        here = frozen_digests()
        out, err = child.communicate(timeout=600)
    finally:
        child.kill()
    assert child.returncode == 0, err[-2000:]
    report = json.loads(out)
    assert report["dispatched"] == []
    assert report["digests"] == here


if __name__ == "__main__":
    dispatched = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    print(json.dumps({"dispatched": dispatched, "digests": frozen_digests()}))

"""perfbench's wrappers bind package names by attribute.

``perfbench/spans.py`` and ``perfbench/sweep_child.py`` patch public entry
points (and a few compatibility names, such as the stand-ins of
:mod:`repro.reversible.exact_pebbling`) when a workload starts.  A name
removed from the package makes every workload fail at start-up; this test
installs both sets of wrappers in a fresh interpreter, so the patches do
not leak into the test session.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import random
import sys

sys.path.insert(0, sys.argv[1])
import spans
import sweep_child

spans.install_layers(spans.Tracer())
sweep_child.Probe(random.Random(0), None).install()
from repro.reversible.exact_pebbling import DEFAULT_TIME_BUDGET
"""


def test_perfbench_wrappers_install():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "perfbench")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr

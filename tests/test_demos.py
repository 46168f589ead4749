"""The public usage examples: the quick demos run to completion.

03 (about half a minute) and 04 (which writes into demos/pipeline_out) are
left to be run by hand."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["01_potential_identity.py",
                                  "02_dynamics_and_equivalence.py"])
def test_demo_exits_cleanly(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]

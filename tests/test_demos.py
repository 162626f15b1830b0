import glob
import os
import subprocess
import sys

import pytest

import tetindex

SRC = os.path.dirname(os.path.dirname(tetindex.__file__))
DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(SRC), "demos", "0*.py")))


def test_demos_found():
    assert len(DEMOS) >= 4, DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    # each demo runs as documented, in a fresh interpreter with only the
    # package's sources on the path, and prints what it shows
    proc = subprocess.run([sys.executable, demo], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), check=False, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

"""Each narrative demo runs to completion as a script and prints its pinned bytes."""

import hashlib
import os
import subprocess
import sys
from glob import glob

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob(os.path.join(ROOT, "demos", "0*.py")))

# sha256 of each demo's stdout; a change to what a demo prints must update it here.
DEMO_DIGESTS = {
    "01_spiral_families.py":
        "750f27e6ae4b229595c6e75fdd6f7e26631cf25adba5301aa1ea1623b91d2969",
    "02_determinant_identities.py":
        "acf4a5afd1d3f208c15f5aced3328350a2570f56aec88ce491813a143ff2d885",
    "03_wedge_elimination.py":
        "e0c9a2925b0245db938972b2c242e4b2f9315c4276d1fa0c3e3b577dc186b7a3",
    "04_sequences.py":
        "1b1ab15ee4dab91b8021d5f7fc57c164262208fbba020997a0386131f3b9622e",
    "05_functional_equations.py":
        "857dc2bd9bb0789177de7be28be5729391d1a2e4af6339534254889ab50aae79",
}


def test_demos_found():
    assert len(DEMOS) == 5
    assert sorted(map(os.path.basename, DEMOS)) == sorted(DEMO_DIGESTS)


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, path], capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[os.path.basename(path)]

"""Each experiment script in scripts/ runs to completion at a small size, so an
API change that breaks one fails here.  scripts/output_digest.py runs eleven
full configs and is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args", [
    ["heat_baseline.py", "--paths", "20"],
    ["fractional_semilinear.py", "--paths", "50"],
    ["null_study.py", "--workload", "heat", "--seeds", "0", "1"],
], ids=lambda args: args[0])
def test_script_runs(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

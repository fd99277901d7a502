"""The selftest subcommand keeps its exit-code contract under ``python -O``.

``-O`` strips ``assert`` statements, so these run the command in a fresh
optimised interpreter: a healthy build must pass all checks, and a build with
a broken oracle must fail with exit code 1.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_optimised(args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-O", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_selftest_passes_under_optimised_python():
    proc = _run_optimised(["-m", "eprlink.cli", "selftest"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8/8 selftest checks passed" in proc.stdout


def test_selftest_fails_under_optimised_python_when_an_oracle_is_wrong():
    sabotage = (
        "import sys\n"
        "import eprlink.adversaries as adv\n"
        "adv.intercept_resend_detection = lambda n: 0.0\n"
        "from eprlink.cli import main\n"
        "sys.exit(main(['selftest']))\n"
    )
    proc = _run_optimised(["-c", sabotage])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL - detection oracle values" in proc.stdout
    assert "7/8 selftest checks passed" in proc.stdout

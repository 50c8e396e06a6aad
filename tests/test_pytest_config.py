"""The test suite runs as the README says, with the bare ``pytest`` command."""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# ``python -m pytest`` puts the working directory on sys.path and the
# ``pytest`` script does not; drop it here so the run sees what the script sees
BARE_PYTEST = ("import sys, pytest; sys.path[:] = [p for p in sys.path if p not in ('', '.')]; "
               "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', 'tests/test_f2.py']))")


def test_bare_pytest_finds_the_package_and_the_tests():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-c", BARE_PYTEST], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]

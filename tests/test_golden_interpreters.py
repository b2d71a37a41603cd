"""The failure golden holds on the oldest and the newest supported CPython.

``requires-python`` is ``>=3.10``, and failing output once differed between
3.10 and 3.12 (an interpreter's error text reached stdout).  This test runs
``test_failure_golden.py --check`` over the full corpus under CPython 3.10
and under the newest CPython >= 3.10 installed with pyenv (in
``$PYENV_ROOT/versions``, by default ``~/.pyenv/versions``), with a
non-default ``PYTHONHASHSEED``.  The two run concurrently: each takes about
3.5 s, and running every installed version would cost tier-1 too much.  The
test skips, naming the interpreter, when either is missing.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
OLDEST = (3, 10)
HASH_SEED = "12345"


def installed_cpythons() -> dict[tuple[int, ...], Path]:
    """Each pyenv CPython >= 3.10 by version, as its interpreter path."""
    versions = Path(os.environ.get("PYENV_ROOT", "~/.pyenv")).expanduser() / "versions"
    found = {}
    for home in versions.glob("3.*"):
        match = re.fullmatch(r"3\.(\d+)\.(\d+)", home.name)
        python = home / "bin" / "python"
        if match and (3, int(match[1])) >= OLDEST and python.exists():
            found[(3, int(match[1]), int(match[2]))] = python
    return found


def test_failure_golden_holds_on_the_oldest_and_newest_cpython():
    found = installed_cpythons()
    oldest = [v for v in found if v[:2] == OLDEST]
    if not oldest:
        pytest.skip("CPython 3.10 is not installed with pyenv")
    newest = max(found)
    if newest[:2] == OLDEST:
        pytest.skip("no CPython newer than 3.10 is installed with pyenv")
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": HASH_SEED}
    runs = {
        version: subprocess.Popen(
            [str(found[version]), str(TESTS / "test_failure_golden.py"), "--check"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for version in (min(oldest), newest)
    }
    results = {}
    try:
        for version, run in runs.items():
            output, _ = run.communicate(timeout=50)
            results[".".join(map(str, version))] = (run.returncode, output)
    finally:
        for run in runs.values():
            run.kill()
            run.communicate()
    assert all(code == 0 for code, _ in results.values()), results

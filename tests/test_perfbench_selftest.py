"""The benchmark's self-tests, run as part of the program's tests.

`perfbench/selftest.py` wraps the library's public and module bindings
(for instance `esakiakit.lemma.quotient`) and checks that every one it
names exists and is restored. Running it here makes a library edit that
breaks such a binding fail the test suite, not only a benchmark run. It
takes about 2 s and removes its own work directory.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=240)
    assert done.returncode == 0, done.stdout + done.stderr

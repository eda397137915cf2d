import os
import subprocess
import sys

import pytest


@pytest.fixture
def run_optimized():
    """Run a script under `python -O` against this ecdescent; return its stdout words.

    The checks that must survive `-O` are exercised this way: a test
    doctors a function inside the script and expects the raise anyway.
    """

    def run(script: str) -> list[str]:
        import ecdescent

        src = os.path.dirname(os.path.dirname(ecdescent.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 0, out.stderr
        return out.stdout.split()

    return run

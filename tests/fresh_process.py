"""Run Python in a new process, so that nothing earlier in the test run
can change what it computes or loads."""

import os
import subprocess
import sys
from pathlib import Path

import reczeros


def fresh_python(*args: str) -> str:
    """stdout of a new interpreter that imports this reczeros checkout."""
    env = dict(os.environ, PYTHONPATH=str(Path(reczeros.__file__).parents[1]))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout

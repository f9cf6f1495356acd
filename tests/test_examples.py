"""Every script under ``examples/`` runs to completion with its defaults.

Each runs in a fresh interpreter, with its working directory and
``REPRO_CACHE_DIR`` under the test's temporary directory so that no run
reads or writes the store of the environment the tests run in.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_EXAMPLES = sorted((_ROOT / "examples").glob("*.py"))


def test_examples_are_found():
    assert len(_EXAMPLES) >= 8


@pytest.mark.parametrize("script", _EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    run = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr

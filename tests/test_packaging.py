"""The library runs on its declared runtime dependency (numpy) alone."""

from __future__ import annotations

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def test_library_imports_without_networkx():
    """``sys.modules[name] = None`` makes ``import name`` raise, as if the
    package were not installed."""
    code = ('import sys; sys.modules["networkx"] = None; '
            'import repro.api, repro.serve, repro.experiments, '
            'repro.baselines')
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr

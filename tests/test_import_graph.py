"""What importing the evaluate and serve entry points loads.

Each test runs a fresh interpreter, since this process has long since
imported everything the suite touches.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro


def fresh_modules(statement: str) -> set[str]:
    """``sys.modules`` of a new interpreter after ``statement``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c",
         f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return set(out.stdout.split())


def test_scipy_optimize_stays_out_of_the_import_graph():
    """Gain crossings are polynomial roots, so no root finder loads."""
    loaded = fresh_modules("import repro, repro.runtime, repro.service")
    assert "repro.service" in loaded
    assert "scipy.optimize" not in loaded

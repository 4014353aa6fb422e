"""Suite-wide configuration.

Hypothesis runs derandomized so the suite is reproducible run to run
(fp-tolerance assertions on random algebra would otherwise flake at the
ULP level once in a few thousand examples).  Native kernels built by the
suite go to a per-session kernel store, never the user's.
"""

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(scope="session", autouse=True)
def _session_native_store(tmp_path_factory):
    """Kernels built by the suite go to a per-session directory, so no
    test (``repro doctor --fix`` sweeps the kernel store) touches the
    user's ``REPRO_NATIVE_CACHE``.  Subprocesses inherit it."""
    previous = os.environ.get("REPRO_NATIVE_CACHE")
    os.environ["REPRO_NATIVE_CACHE"] = str(tmp_path_factory.mktemp("native"))
    yield
    if previous is None:
        del os.environ["REPRO_NATIVE_CACHE"]
    else:
        os.environ["REPRO_NATIVE_CACHE"] = previous

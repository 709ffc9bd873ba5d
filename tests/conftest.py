"""Test-session set-up: the package path for CLI subprocesses and a fixed hypothesis profile.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; the
subprocesses (``test_cli.run_cli``, c10) inherit ``PYTHONPATH`` instead.
The ``tier1`` hypothesis profile draws the same examples on every run, a
fixed number of them, with no deadline and no example database, so property
tests stay deterministic and inside the suite's time.  Another profile can be
chosen with ``--hypothesis-profile``.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("tier1")

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    entries = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in entries:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *entries])

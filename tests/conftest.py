"""Make the package under ``src/`` importable by the CLI subprocesses the tests start.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; the
subprocesses (``test_cli.run_cli``, c10) inherit ``PYTHONPATH`` instead.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    entries = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in entries:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *entries])

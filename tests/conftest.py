"""Test-session set-up: the package path for CLI subprocesses, a fixed hypothesis profile and the digit limit.

``pythonpath`` in ``pyproject.toml`` covers the test process itself; the
subprocesses (``test_cli.run_cli``, c10) inherit ``PYTHONPATH`` instead.
The ``tier1`` hypothesis profile draws the same examples on every run, a
fixed number of them, with no deadline and no example database, so property
tests stay deterministic and inside the suite's time.  Another profile can be
chosen with ``--hypothesis-profile``.
"""

import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, max_examples=100, deadline=None, database=None)
settings.load_profile("tier1")

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    entries = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    if SRC not in entries:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *entries])


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on int-to-str conversion (4300 digits) for one test; restored after."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)

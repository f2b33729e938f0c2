"""The CLI tests run ``python -m lowmach.cli`` in child processes; they import
lowmach from ``src``, as this process does through ``pythonpath`` in
pyproject.toml, whether or not the package is installed.

The lattices most tests run on are fixtures here; the reference forms and
random test data are in ``oracles.py``."""

import os

import pytest

from lowmach.lattice import LatticeSpec

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def lat8():
    return LatticeSpec.square(2, 8)


@pytest.fixture
def lat16():
    return LatticeSpec.square(2, 16)

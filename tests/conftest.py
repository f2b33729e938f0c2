"""The CLI tests run ``python -m lowmach.cli`` in child processes; they import
lowmach from ``src``, as this process does through ``pythonpath`` in
pyproject.toml, whether or not the package is installed."""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

"""Ensure the in-tree package is importable even without installation.

The offline execution environment lacks the ``wheel`` package, which breaks
``pip install -e .`` (PEP 517 editable builds need bdist_wheel). Installation
works via ``python setup.py develop``; this conftest additionally puts
``src/`` on ``sys.path`` so the test and benchmark suites run from a plain
checkout.

Tier-1 is a gate, so every Hypothesis test draws the same examples on
every run (``derandomize``). The random search still exists: CI's
non-blocking ``property-search`` job runs ``tests/property`` with
``--hypothesis-profile=default`` over a matrix of seeds.
"""

import sys
from pathlib import Path

from hypothesis import settings

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")

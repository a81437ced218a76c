"""The declared floors (Python >= 3.10, numpy >= 2.0), checked offline.

Only one interpreter runs here, so the 3.10 floor is checked at the grammar
level: every module must parse as Python 3.10.  That catches syntax newer
than the floor (`except*`, PEP 695 type parameters, ...), not library calls.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hfsense").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))


def test_modules_found():
    assert (ROOT / "src" / "hfsense" / "sim.py") in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))

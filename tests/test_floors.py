"""The declared floors (Python >= 3.10, numpy >= 2.0), checked offline.

Only one interpreter runs here, so the floors are checked on the source.
The grammar: every module must parse as Python 3.10, which catches syntax
newer than the floor (`except*`, PEP 695 type parameters, ...).  The
library: no module may name a standard-library module, function or
builtin that Python 3.11 added, or a numpy function that numpy 2.1 or
later added; the lists name the ones likely to tempt array or numeric
code, not every addition.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "hfsense").glob("*.py")) \
    + sorted((ROOT / "tests").glob("*.py"))

# modules and builtins new in Python 3.11
NEW_MODULES = {"tomllib", "wsgiref.types"}
NEW_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
# (module, name) pairs past the floors: Python 3.11, numpy 2.1 and 2.2
NEW_NAMES = {
    ("math", "cbrt"), ("math", "exp2"),
    ("operator", "call"), ("hashlib", "file_digest"),
    ("contextlib", "chdir"), ("enum", "StrEnum"), ("datetime", "UTC"),
    ("typing", "Self"), ("typing", "LiteralString"), ("typing", "Never"),
    ("typing", "assert_never"), ("typing", "reveal_type"),
    ("asyncio", "TaskGroup"), ("asyncio", "timeout"),
    ("numpy", "cumulative_sum"), ("numpy", "cumulative_prod"),
    ("numpy", "unstack"), ("numpy", "matvec"), ("numpy", "vecmat"),
}


def names_past_the_floors(source: str) -> list[str]:
    """The names in `source` that the floors do not have, as
    "module.name" (or the module or builtin alone), sorted."""
    tree = ast.parse(source)
    # local name -> the module it is bound to
    alias = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in NEW_MODULES:
                    found.append(a.name)
                alias[a.asname or a.name.partition(".")[0]] = \
                    a.name if a.asname else a.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module in NEW_MODULES:
                found.append(node.module)
            found += [f"{node.module}.{a.name}" for a in node.names
                      if (node.module, a.name) in NEW_NAMES]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and (alias.get(node.value.id), node.attr) in NEW_NAMES):
            found.append(f"{alias[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in NEW_BUILTINS:
            found.append(node.id)
    return sorted(found)


def test_modules_found():
    assert (ROOT / "src" / "hfsense" / "sim.py") in MODULES


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_names_nothing_past_the_floors(path):
    assert names_past_the_floors(path.read_text()) == []


def test_names_past_the_floors_are_found():
    """Each kind of use the check reads: an import, a from-import, an
    attribute of an aliased module, a builtin; names that the floors have
    pass."""
    source = "\n".join([
        "import math, tomllib",
        "import numpy as np",
        "from typing import Self, Optional",
        "x = np.cumulative_sum(a) + np.cumsum(a) + math.cbrt(2.0)",
        "y = math.sqrt(2.0)",
        "raise ExceptionGroup('e', [])",
    ])
    assert names_past_the_floors(source) == [
        "ExceptionGroup", "math.cbrt", "numpy.cumulative_sum", "tomllib",
        "typing.Self"]

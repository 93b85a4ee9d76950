"""A static scan of the package: no check may rest on an assert, a float or
an inexact numeric library.  ``python -O`` strips asserts, so a check made
by one would pass there unchecked."""

import ast
from pathlib import Path

import pytest

import qsteiner

MODULES = sorted(Path(qsteiner.__file__).parent.glob("*.py"))
INEXACT_MODULES = {"numpy", "scipy", "decimal"}
# the math functions that take and return integers; the others return floats
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def inexact_uses(source: str) -> list[str]:
    """``line: what`` for each assert statement, float or complex literal,
    float(...) call, numpy/scipy/decimal import and non-integer math name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, ast.Assert):
            what = "assert statement"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            what = "float() call"
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
            if any(name.split(".")[0] in INEXACT_MODULES for name in names):
                what = f"import {', '.join(names)}"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            top = node.module.split(".")[0]
            names = {alias.name for alias in node.names}
            if top in INEXACT_MODULES or top == "math" and names - INTEGER_MATH:
                what = f"from {node.module} import {', '.join(sorted(names))}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in INTEGER_MATH):
            what = f"math.{node.attr}"
        if what is not None:
            found.append(f"{node.lineno}: {what}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_uses_assert_or_inexact_arithmetic(path):
    assert inexact_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source", [
    "assert x",
    "x = 0.5",
    "x = 1e3",
    "x = 2j",
    "x = float(y)",
    "import numpy as np",
    "import scipy.linalg",
    "def f():\n    import decimal",
    "from numpy.linalg import matrix_rank",
    "from decimal import Decimal",
    "from math import comb, sqrt",
    "import math\nx = math.log(y)",
])
def test_the_scan_flags_each_inexact_use(source):
    assert len(inexact_uses(source)) == 1, source


def test_the_scan_passes_exact_code():
    assert inexact_uses("from math import comb, lcm, prod\nimport math\n"
                        "from fractions import Fraction\nx = Fraction(1, 2) + math.isqrt(9)\n"
                        "y = int('3')\nz = 'float(1.5)'\n") == []

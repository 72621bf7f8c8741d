"""No float enters the program: a syntactic guard over every module of the
package, the exact kernels and the CLI, document and SVG layers alike."""

import ast
from pathlib import Path

import pytest

import demyanov

ALLOWED_MATH = {"gcd", "lcm"}


def float_uses(source: str) -> list[str]:
    """Float literals, float(...) calls and math names other than gcd/lcm.

    float as a bare name, as in isinstance(value, float), is allowed.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {line}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append(f"line {line}: float(...) call")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {line}: math.{a.name}" for a in node.names if a.name not in ALLOWED_MATH
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in ALLOWED_MATH
        ):
            found.append(f"line {line}: math.{node.attr}")
    return found


# Every source file of the package by module name, read and never imported.
MODULES = {
    f"demyanov.{path.stem}".removesuffix(".__init__"): path
    for path in Path(demyanov.__file__).parent.glob("*.py")
}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_exact_kernels_use_no_float(module):
    assert float_uses(MODULES[module].read_text(encoding="utf-8")) == []


def test_float_guard_flags_each_kind_of_float_use():
    source = (
        "import math\n"
        "from math import gcd, sqrt\n"
        "a = 0.5\n"
        "b = float(a)\n"
        "c = math.floor(a) + math.gcd(4, 6)\n"
        "d = isinstance(a, float)\n"
    )
    assert float_uses(source) == [
        "line 2: math.sqrt",
        "line 3: float literal 0.5",
        "line 4: float(...) call",
        "line 5: math.floor",
    ]

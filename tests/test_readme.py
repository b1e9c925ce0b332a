"""The README's library example runs and prints what its comments say."""

import ast
import re
from pathlib import Path

from unipic import NValue

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    """The fenced python block of the README section "## Library"."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S)[1]


def test_readme_library_example():
    # run the block statement by statement, keeping the value of each bare
    # expression: those are the lines whose comments give the result
    ns, values = {}, []
    for stmt in ast.parse(_library_block()).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README.md", "eval"), ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    assert str(ns["G"]) == "y^2 = x + t*x^2"
    assert values == ["Z/2Z", "Z/2Z", NValue("upper_bound", 2), True, "0", (0, True)]

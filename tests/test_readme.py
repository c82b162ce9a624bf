"""README.md's Library example runs, and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_values():
    """The value of each expression statement in the python block under
    the ``## Library`` heading, keyed by its source text."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values[ast.unparse(node.value)] = eval(
                compile(ast.Expression(node.value), "README.md", "eval"), namespace
            )
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def test_library_example():
    values = _library_values()
    assert values["ball_table(5)[1]"] == 17
    assert values["sphere_packing_bounds(ball_table(5), 3)"] == (2, 7)
    assert values["solve_ilp(params).objective_value"] == 5
    assert values["solve_ilp(params, SearchBudget(max_nodes=10)).status"] == "bound_only"
    assert " cover_a1_l0: 6 x_1_1 + 3 x_2_1 + x_3_1 <= 12\n" in values["export_lp(params)"]
    assert len(values["max_code_search(params).code.words"]) == 4

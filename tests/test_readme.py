"""README's ``python`` blocks run, and each literal comment is its line's value.

The blocks run in order in one namespace, with the ``ordered_samples`` that
the streaming block iterates given here. An expression line's comment is
checked when its text before any ``;`` is a Python literal: the ``repr`` of
the line's value must equal the literal's.
"""

import ast
import re
from pathlib import Path

import pytest

from monocal import Sample

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
ORDERED_SAMPLES = [Sample(float(i), target) for i, target in enumerate((1.0, 3.0, 2.0, 5.0))]


def literal_comments():
    """``(block, line, expression, literal)`` for each expression line with a literal comment."""
    found = []
    for block, text in enumerate(BLOCKS):
        lines = text.splitlines()
        for statement in ast.parse(text).body:
            if not isinstance(statement, ast.Expr):
                continue
            # AST column offsets count UTF-8 bytes.
            line = lines[statement.end_lineno - 1].encode()
            comment = line[statement.end_col_offset:].decode().strip()
            if comment[:1] != "#":
                continue
            literal = comment[1:].partition(";")[0].strip()
            try:
                ast.literal_eval(literal)
            except (SyntaxError, ValueError):
                continue
            found.append((block, statement.lineno, ast.get_source_segment(text, statement),
                          literal))
    return found


@pytest.fixture(scope="module")
def values():
    """Each expression line's value, keyed by ``(block, line)``, from running every block."""
    namespace = {"ordered_samples": ORDERED_SAMPLES}
    got = {}
    for block, text in enumerate(BLOCKS):
        for statement in ast.parse(text).body:
            if isinstance(statement, ast.Expr):
                code = compile(ast.Expression(statement.value), README.name, "eval")
                got[block, statement.lineno] = eval(code, namespace)
            else:
                exec(compile(ast.Module([statement], []), README.name, "exec"), namespace)
    return got


def test_every_python_block_runs(values):
    assert len(BLOCKS) == 4
    assert literal_comments()


ITEM_15 = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 15: a one-sample block keeps its int target, 69")


@pytest.mark.parametrize("block, line, literal", [
    pytest.param(block, line, literal, id=expression,
                 marks=ITEM_15 if expression == "staircase.values" else ())
    for block, line, expression, literal in literal_comments()
])
def test_a_literal_comment_is_its_lines_value(values, block, line, literal):
    assert repr(values[block, line]) == repr(ast.literal_eval(literal))

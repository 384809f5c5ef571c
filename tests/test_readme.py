"""The README's library quick start runs and prints what its comments say."""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_block() -> str:
    """The README's one fenced python block."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def expected_lines(source: str) -> list[str]:
    """The comment on the last line of each print call, in source order."""
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    calls = sorted(
        node.end_lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    )
    return [comments.get(line) for line in calls]


def test_expected_lines_reads_the_comment_on_each_print():
    source = "x = 1  # not a print\nprint(x,\n      2)  # 1 2\nprint(x)\n"
    assert expected_lines(source) == ["1 2", None]


def test_the_quick_start_prints_its_comments():
    source = python_block()
    expected = expected_lines(source)
    assert expected and None not in expected, "every print in the quick start needs its output"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    assert out.getvalue().splitlines() == expected

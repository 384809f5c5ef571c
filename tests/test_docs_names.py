"""Every `module.name` the docs cite names a top-level definition of that module.

A backquoted span in `docs/decisions.md` or `README.md` that starts with
`module.name`, where `module` is a module of the package, must name a
function, class or assignment at the top level of that module, so a
definition that is renamed or deleted cannot stay cited.  File names such
as `rational.py` are allowed, and so are the logger and tracer names in
`NOT_DEFINITIONS`.
"""

import ast
import re
from pathlib import Path

import minmaxlab

PACKAGE = Path(minmaxlab.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
DOCS = (ROOT / "docs" / "decisions.md", ROOT / "README.md")
# logger and tracer names under minmaxlab, not definitions
NOT_DEFINITIONS = {"oracle.enum", "oracle.refine"}


def cited_names(text: str, modules) -> list[tuple[str, str]]:
    """(module, name) of every backquoted span that starts with module.name."""
    cited = []
    for span in re.findall(r"`([^`\n]+)`", text):
        m = re.match(r"(\w+)\.(\w+)", span)
        if m and m[1] in modules and m[2] != "py" and m[0] not in NOT_DEFINITIONS:
            cited.append((m[1], m[2]))
    return cited


def top_level_names(source: str) -> set[str]:
    """The functions, classes and assigned names at the top level of a module."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_the_reader_sees_definitions_and_skips_files_and_loggers():
    text = ("`games.oriented`, `checks.within(measured, bound)`, `cli.py`, "
            "`oracle.refine.us_per_iter`, `np.dot`, `minmaxlab.oracle.enum` and `x.y`")
    assert cited_names(text, {"games", "checks", "cli", "oracle"}) == [
        ("games", "oriented"), ("checks", "within")]
    source = "import math\nA, (B, C) = 1, (2, 3)\nD: int = 4\ndef f():\n    g = 1\nclass K:\n    pass\n"
    assert top_level_names(source) == {"A", "B", "C", "D", "f", "K"}


def test_every_cited_name_is_defined_in_its_module():
    defined = {p.stem: top_level_names(p.read_text(encoding="utf-8"))
               for p in PACKAGE.glob("*.py")}
    missing = {}
    for doc in DOCS:
        cited = cited_names(doc.read_text(encoding="utf-8"), defined)
        gone = sorted({f"{m}.{n}" for m, n in cited if n not in defined[m]})
        if gone:
            missing[doc.name] = gone
    assert missing == {}, f"the docs cite names their modules do not define: {missing}"

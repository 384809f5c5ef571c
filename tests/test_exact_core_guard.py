"""One exact integer core.

Exact decisions in the package run on integers over a common denominator
(`rational.scale_to_integers`, `rational.solve_linear`).  The Fraction
products `mat_vec` and `vec_dot` stay in `rational.py` only as the
independent reference that tests and the benchmark's verifier check the
core against; no other package module may call them, and `rational.py`
defines no other `mat_*` helper.  Exact contractions of a tensor with
players' points run in one place, `oracle._deviations`: no other module
calls `np.tensordot`.
"""

import ast
from pathlib import Path

import minmaxlab

PACKAGE = Path(minmaxlab.__file__).parent
REFERENCE = {"mat_vec", "vec_dot"}


def reference_calls(source: str) -> list[int]:
    """Line numbers of every call to mat_vec or vec_dot, bare or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in REFERENCE:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_guard_sees_bare_and_attribute_calls():
    assert reference_calls("p = mat_vec(m, x)\n") == [1]
    assert reference_calls("v = rational.vec_dot(x, y)\n") == [1]
    assert reference_calls("v = vec_dot(x,\n  mat_vec(m, x))\n") == [1, 2]
    assert reference_calls("from .rational import mat_vec\nf = mat_vec\n") == []


def test_no_module_outside_rational_calls_the_fraction_reference():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "rational.py":
            continue
        lines = reference_calls(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}, f"mat_vec / vec_dot called outside rational.py: {found}"


def matrix_helpers(source: str) -> list[str]:
    """Module-level names called mat_*, bound by a def or an assignment."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return sorted(name for name in names if name.startswith("mat_"))


def test_the_helper_guard_sees_module_level_definitions():
    assert matrix_helpers("def mat_add(a, b):\n    pass\n") == ["mat_add"]
    assert matrix_helpers("mat_min = lambda m: min(map(min, m))\n") == ["mat_min"]
    assert matrix_helpers("def f():\n    def mat_add(a, b):\n        pass\n") == []
    assert matrix_helpers("def transpose(m):\n    pass\n") == []


def test_rational_defines_no_fraction_tuple_algebra():
    # exact block algebra runs on integer or object arrays; the only
    # mat_* function left is the Fraction reference product
    source = (PACKAGE / "rational.py").read_text(encoding="utf-8")
    assert matrix_helpers(source) == ["mat_vec"]


def tensordot_calls(source: str) -> list[int]:
    """Line numbers of every call to tensordot, bare or as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name == "tensordot":
                lines.append(node.lineno)
    return sorted(lines)


def test_the_contraction_guard_sees_bare_and_attribute_calls():
    assert tensordot_calls("t = np.tensordot(t, x, axes=(0, 0))\n") == [1]
    assert tensordot_calls("from numpy import tensordot\nt = tensordot(a, b)\n") == [2]
    assert tensordot_calls("t = numpy.tensordot(\n  np.tensordot(a, b), c)\n") == [1, 2]
    assert tensordot_calls("t = np.einsum('i,i', a, b)\nf = np.tensordot\n") == []


def test_only_the_oracle_contracts_with_tensordot():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = tensordot_calls(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert set(found) == {"oracle.py"}, f"np.tensordot called outside oracle.py: {found}"
    assert len(found["oracle.py"]) == 1, "oracle.py contracts in more than one place"

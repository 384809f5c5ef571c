"""One exact integer core.

Exact decisions in the package run on integers over a common denominator
(`rational.scale_to_integers`, `rational.solve_linear`).  The Fraction
products `mat_vec` and `vec_dot` stay in `rational.py` only as the
independent reference that tests and the benchmark's verifier check the
core against; no other package module may call them, and `rational.py`
defines no other `mat_*` helper.  Exact contractions of a tensor with
players' points run in one place, `oracle._deviations`: no other module
calls `np.tensordot`.  Payoff data has one exact form, a read-only,
C-ordered object array of Fraction: no module defines or imports the
nested-tuple helpers it replaced, and every builder stores that form.
There is one two-player game type, the NormalFormGame: `BimatrixGame` is its
constructor from two matrices, so no module but games.py tests for it or
reads its views.  No verdict rests on sampling: no module reads `np.random`
or imports `random`.  The exact core picks its carrier and builds its
Fractions in one place: no module but rational.py writes a carrier limit
(2^63 or 2^53) or defines a dict subclass with `__missing__`.
"""

import ast
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import minmaxlab
from minmaxlab import analytic, cliques, fileio, gadgets
from minmaxlab.cliques import Graph, ParameterRegime
from minmaxlab.games import BimatrixGame, NormalFormGame, PolymatrixGame, to_normal_form
from minmaxlab.minmax import QuadraticMinMaxProblem

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


def random_reads(source: str) -> list[int]:
    """Line numbers that import `random` or `numpy.random` (or a name of
    either), or read the attribute `np.random` or `numpy.random`."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "random":
            names = ["numpy.random"] if getattr(node.value, "id", None) in ("np", "numpy") else []
        else:
            continue
        if any(n.split(".")[0] == "random" or n.startswith("numpy.random") for n in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_the_random_guard_sees_imports_and_attribute_reads():
    assert random_reads("rng = np.random.default_rng(0)\n") == [1]
    assert random_reads("import random\nx = numpy.random.rand()\n") == [1, 2]
    assert random_reads("from numpy import random\nfrom numpy.random import default_rng\n") == [1, 2]
    assert random_reads("from random import choice\nimport numpy.random as npr\n") == [1, 2]
    assert random_reads("import numpy as np\nx = game.random\nfrom . import games\n") == []


def test_no_module_reads_a_random_generator():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = random_reads(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}, f"a module reads np.random or imports random: {found}"


CARRIER_LIMITS = {63, 53}  # the exponents of int64's and float64's integer limits


def carrier_limits(source: str) -> list[int]:
    """Line numbers of every 2**63, 2**53, 1 << 63 or 1 << 53 written in code."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.BinOp):
            continue
        base, power = (getattr(side, "value", None) for side in (node.left, node.right))
        if (isinstance(node.op, ast.Pow) and base == 2 or isinstance(node.op, ast.LShift)
                and base == 1) and power in CARRIER_LIMITS:
            lines.append(node.lineno)
    return sorted(lines)


def test_the_limit_guard_sees_each_spelling_in_code_only():
    assert carrier_limits("if bound < 2**63:\n    pass\n") == [1]
    assert carrier_limits("a = 2 ** 53\nb = 1 << 63\nc = 1<<53\n") == [1, 2, 3]
    assert carrier_limits("ok = h2 * (n + 1) < 2 ** 63 - 1\n") == [1]
    assert carrier_limits('"""int64 below 2**63"""\n# 2**53\nx = "2**63"\n') == []
    assert carrier_limits("a = 2**18\nb = 3**63\nc = 1 << 8\nd = 2**n\n") == []


def test_no_module_but_rational_writes_a_carrier_limit():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = carrier_limits(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert set(found) == {"rational.py"}, f"carrier limits outside rational.py: {found}"


def fraction_caches(source: str) -> list[tuple[int, str]]:
    """(line, name) of every class that derives from a dict and defines
    `__missing__`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        bases = [getattr(b, "id", None) or getattr(b, "attr", "") for b in node.bases]
        methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
        if any(b.lower().endswith("dict") for b in bases) and "__missing__" in methods:
            found.append((node.lineno, node.name))
    return sorted(found)


def test_the_cache_guard_sees_dict_subclasses_with_missing():
    missing = "    def __missing__(self, key):\n        return key\n"
    assert fraction_caches("class T(dict):\n" + missing) == [(1, "T")]
    assert fraction_caches("class T(collections.defaultdict):\n" + missing) == [(1, "T")]
    nested = "def f():\n    class T(dict):\n        def __missing__(self, key):\n            pass\n"
    assert fraction_caches(nested) == [(2, "T")]
    assert fraction_caches("class T(dict):\n    pass\n") == []
    assert fraction_caches("class T:\n" + missing) == []


def test_no_module_but_rational_defines_a_fraction_cache():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = fraction_caches(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    names = {path: [name for _, name in lines] for path, lines in found.items()}
    assert names == {"rational.py": ["FractionTable"]}, f"dict caches with __missing__: {found}"


RETIRED_FORM = {"FMat", "shape", "to_float_matrix", "_matrix_obj"}


def retired_form_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every retired tuple-form helper a module imports,
    or defines at module level by a def, a class or an assignment."""
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, (a.asname or a.name).split(".")[-1]) for a in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return sorted((line, name) for line, name in found if name in RETIRED_FORM)


def test_the_form_guard_sees_imports_and_module_level_definitions():
    assert retired_form_names("from .rational import FMat, fmat\n") == [(1, "FMat")]
    assert retired_form_names("def f():\n    from .rational import shape\n") == [(2, "shape")]
    assert retired_form_names("FMat = tuple[FVec, ...]\n") == [(1, "FMat")]
    assert retired_form_names("def _matrix_obj(m):\n    pass\n") == [(1, "_matrix_obj")]
    assert retired_form_names("to_float_matrix: object = None\n") == [(1, "to_float_matrix")]
    assert retired_form_names("n = a.shape[0]\nshape = 1 if n else 2\n") == [(2, "shape")]
    assert retired_form_names("def f(a):\n    shape = a.shape\n") == []


def test_no_module_keeps_the_nested_tuple_form():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        names = retired_form_names(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}, f"retired tuple-form helpers in src/: {found}"


BIMATRIX_VIEWS = {"row_payoff", "col_payoff", "row_float", "col_float"}


def bimatrix_forks(source: str) -> list[tuple[int, str]]:
    """(line, name) of every use of BimatrixGame other than a call, an import
    or an annotation (an isinstance test, a type comparison, a match
    pattern), and of every read of one of its views, as an attribute or a
    string."""
    tree = ast.parse(source)
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            allowed.add(id(node.func))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            annotations = [a.annotation for a in args] + [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        allowed.update(id(n) for a in annotations if a is not None for n in ast.walk(a))
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name == "BimatrixGame" and id(node) not in allowed:
            found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr in BIMATRIX_VIEWS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Constant) and node.value in BIMATRIX_VIEWS:
            found.append((node.lineno, node.value))
    return sorted(found)


def test_the_bimatrix_guard_sees_tests_and_views_but_not_construction():
    assert bimatrix_forks("if isinstance(g, BimatrixGame):\n    pass\n") == [(1, "BimatrixGame")]
    assert bimatrix_forks("ok = isinstance(g, (games.BimatrixGame, X))\n") == [
        (1, "BimatrixGame")
    ]
    assert bimatrix_forks("ok = type(g) is BimatrixGame\n") == [(1, "BimatrixGame")]
    assert bimatrix_forks("match g:\n    case BimatrixGame():\n        pass\n") == [
        (2, "BimatrixGame")
    ]
    assert bimatrix_forks("m = g.row_payoff\nf = g.col_float.dot(x)\n") == [
        (1, "row_payoff"), (2, "col_float")
    ]
    assert bimatrix_forks("m = getattr(g, 'row_float')\n") == [(1, "row_float")]
    assert bimatrix_forks(
        "from .games import BimatrixGame\n"
        "def f(g: BimatrixGame) -> BimatrixGame:\n"
        "    return games.BimatrixGame(g.payoffs[0], g.payoffs[1])\n"
        "x: BimatrixGame = BimatrixGame(a, a)\n"
    ) == []


def test_no_module_but_games_forks_on_bimatrix_games():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "games.py":
            continue
        names = bimatrix_forks(path.read_text(encoding="utf-8"))
        if names:
            found[path.name] = names
    assert found == {}, f"bimatrix tests or views outside games.py: {found}"


FIG1 = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
REGIME = ParameterRegime(n=5, k=4, delta=Fraction(1, 2), epsilon=Fraction(1, 10**9))
R = [["1/2", "-1/4", 0], ["1/4", "1/2", "-1"], [0, "1/3", "1/2"]]
A = [[-2, -1], [-1, -3]]
GOLDEN_GAMES = {  # case -> the game file it writes
    case: doc["artifact"]
    for case, doc in json.loads(
        (Path(__file__).parent / "data" / "cli_golden.json").read_text(encoding="utf-8")
    )["cases"].items()
    if isinstance(doc.get("artifact"), dict) and "payoff" in doc["artifact"]
}


def exact_payoffs(obj) -> list[np.ndarray]:
    """Every exact payoff attribute of a built object."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, BimatrixGame):
        return [obj.row_payoff, obj.col_payoff]
    if isinstance(obj, PolymatrixGame):
        return list(obj.pair_matrices.values())
    if isinstance(obj, NormalFormGame):
        return list(obj.payoffs)
    if isinstance(obj, QuadraticMinMaxProblem):
        return [obj.qx, obj.qy, obj.m]
    if isinstance(obj, gadgets.TeamGadgetInstance):
        return [obj.a] + exact_payoffs(obj.game)
    if isinstance(obj, gadgets.Team3v3Instance):
        return [obj.r, obj.a, obj.c] + exact_payoffs(obj.game)
    raise TypeError(f"no exact payoffs known for {type(obj).__name__}")


BUILDERS = {
    "payoff_from_graph": lambda: cliques.payoff_from_graph(FIG1),
    "payoff_from_graph_delta": lambda: cliques.payoff_from_graph_delta(FIG1, Fraction(1, 3)),
    "unique_ne_game": lambda: cliques.unique_ne_game(FIG1, 4),
    "robust_unique_ne_game": lambda: cliques.robust_unique_ne_game(FIG1, REGIME),
    "team_gadget": lambda: gadgets.team_gadget(A, Fraction(1, 20)),
    "team3v3_gadget": lambda: gadgets.team3v3_gadget(R, Fraction(1, 20)),
    "quadratic_gadget": lambda: gadgets.quadratic_gadget(R),
    "coupled_gadget": lambda: gadgets.coupled_gadget(R, 0.25),
    "nonsym_instance": lambda: cliques.nonsym_instance(FIG1, REGIME),
    "irrational_game": analytic.irrational_game,
    "to_normal_form": lambda: to_normal_form(gadgets.team_gadget(A, Fraction(1, 20)).game),
}


def assert_one_exact_form(obj):
    for a in exact_payoffs(obj):
        assert isinstance(a, np.ndarray) and a.dtype == object
        assert a.flags.c_contiguous and not a.flags.writeable
        assert all(type(x) is Fraction for x in a.flat)


@pytest.mark.parametrize("builder", BUILDERS)
def test_every_builder_stores_the_one_exact_form(builder):
    assert_one_exact_form(BUILDERS[builder]())


@pytest.mark.parametrize("case", GOLDEN_GAMES)
def test_every_golden_game_file_loads_into_the_one_exact_form(case, tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(GOLDEN_GAMES[case]), encoding="utf-8")
    assert_one_exact_form(fileio.load_game(str(path)))

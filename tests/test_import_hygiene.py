"""sympy builds its first expression with ``Add.flatten``, which imports
``sympy.tensor.tensor`` and ``sympy.combinatorics`` (16 modules, about 50 ms).
The package ``sympy.tensor`` itself comes with ``import sympy``.  tdyn's
cyclotomic identification, linear roots and root enclosures build no
expression, also for the non-real roots of polynomials that sympy rescales
(x^2 - 30x + 625 in ``classify`` of the equal-modulus pair, x^2 + 2x + 4 in
``growth`` of the torus [[0, -4], [1, -2]]), so the CLI commands below must
leave both modules unimported, in a fresh process.

sympy itself sits only behind tdyn's fallbacks: ``import tdyn.cli`` and the
fixed corpus of the benchmark import neither sympy nor mpmath, and each
fallback imports sympy when it runs and gives the results it always gave.

No linter is installed, so an ``ast`` walk checks that every name a module
of the package imports is used there or exported in its ``__all__``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import contextlib, io, sys
import tdyn.cli
LAZY = ("sympy.tensor.tensor", "sympy.combinatorics")
print([m for m in LAZY if m in sys.modules])
argvs = [
    ["entropy", "--builtin", "torus_matrix:1,-2,1,1"],
    ["classify", "--builtin", "torus_matrix:1,-2,1,1"],
    ["classify", "--builtin", "s_integer:3/2,2"],
    ["classify", "--builtin", "heisenberg:2,1,1,3"],
    ["classify", "--input", sys.argv[1]],
    ["growth", "--builtin", "torus_matrix:0,-4,1,-2"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [tdyn.cli.main(argv) for argv in argvs]
print(codes)
print([m for m in LAZY if m in sys.modules])
"""

# phi = [[0, -25], [1, 6]] and psi = 5 I: phi's eigenvalues 3 +- 4i have
# modulus 5, and classify isolates the roots of x^2 - 30x + 625 = 25 q(x/5)
EQUAL_MODULUS = {"name": "equal_modulus", "sections": [{
    "rank": 2,
    "phi": [["0", "-25"], ["1", "6"]],
    "psi": [["5", "0"], ["0", "5"]],
}]}


def test_cli_commands_build_no_sympy_expression(tmp_path):
    system = tmp_path / "equal_modulus.json"
    system.write_text(json.dumps(EQUAL_MODULUS))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(system)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "[0, 0, 0, 0, 0, 0]", "[]"]


REDUCIBLE_SCRIPT = """
import sys
from tdyn.enclosures import poly_root_enclosures
from tdyn.exact_linalg import IntPolynomial
LAZY = ("sympy.tensor.tensor", "sympy.combinatorics")
# (x^2 + 4)(x^2 - 4x + 8): two factors with non-real roots, ordered as
# sympy's ordered() orders them
roots = poly_root_enclosures(IntPolynomial.of([32, -16, 12, -4, 1]))
print(len(roots), sum(r.disk is not None for r in roots))
print([m for m in LAZY if m in sys.modules])
"""


def test_the_factors_of_a_reducible_polynomial_are_ordered_without_an_expression():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", REDUCIBLE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["4 4", "[]"]


def _unused_imports(path: Path) -> list:
    """The names that the module at path imports (from __future__ aside)
    but neither references nor lists in its __all__."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    # an attribute chain a.b.c references its base, the Name a
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_every_import_of_a_module_is_used_or_exported():
    modules = sorted(p for p in (SRC / "tdyn").glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 12
    unused = {p.name: names for p in modules if (names := _unused_imports(p))}
    assert unused == {}


# ---------------------------------------------------------------- sympy only behind the fallbacks

ROOT = SRC.parent
RANK4 = "torus_matrix:0,0,0,-1,1,0,0,2,0,1,0,-3,0,0,1,4"
RANK5 = "torus_matrix:0,0,0,0,-1,1,0,0,0,1,0,1,0,0,-1,0,0,1,0,2,0,0,0,1,3"


def _companion_key(r: int) -> str:
    """The companion torus of x^r - x - 1."""
    m = [[int(i == j + 1) for j in range(r)] for i in range(r)]
    m[0][-1] = m[1][-1] = 1
    return "torus_matrix:" + ",".join(str(x) for row in m for x in row)


def _corpus_argvs() -> list:
    """The fixed corpus of the benchmark: every command on four systems,
    the spectral commands on the rank-4 and rank-5 tori, and the zeta,
    tameness and realization of the companion tori of rank 2-7."""
    from tdyn.cli import COMMANDS
    pair = str(ROOT / "perfbench" / "inputs" / "commuting_pair.json")
    argvs = [[command, *source] + (["--prime", "2"] if command == "padic" else [])
             for source in (["--builtin", "torus_matrix:2,1,1,1"],
                            ["--builtin", "heisenberg:2,1,1,3"],
                            ["--builtin", "s_integer:3/2,2"], ["--input", pair])
             for command in COMMANDS]
    argvs += [[command, "--builtin", key] for key in (RANK4, RANK5)
              for command in ("growth", "entropy", "classify")]
    argvs += [[command, "--builtin", _companion_key(r)] for r in range(2, 8)
              for command in ("zeta", "tame", "realize")]
    return [argv + ["--format", "json"] for argv in argvs]


CORPUS_SCRIPT = """
import contextlib, io, json, sys
import tdyn.cli
HEAVY = ("sympy", "mpmath")
print([m for m in HEAVY if m in sys.modules])
failed = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if tdyn.cli.main(argv):
            failed.append(argv[0])
    if any(m in sys.modules for m in HEAVY):
        print("imported by", argv)
        break
print(failed)
print([m for m in HEAVY if m in sys.modules])
"""


def _fresh(script: str, *args: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split("\n")


def test_the_cli_and_the_fixed_corpus_import_neither_sympy_nor_mpmath():
    out = _fresh(CORPUS_SCRIPT, json.dumps(_corpus_argvs()))
    # Nielsen numbers and the entropy identity need finitely generated
    # sections, and the entropy identity psi = identity: typed errors
    assert out[:3] == ["[]", "['nseq', 'entropy', 'entropy']", "[]"]


FALLBACKS = {
    # (x^2 - x - 1)(x^4 - x - 1) times -2: no mod-p certificate, Zassenhaus
    "factor_int": (
        "from tdyn.exact_linalg import IntPolynomial\n"
        "from tdyn.polyalg import factor_int\n"
        "result = factor_int(IntPolynomial.of([-2, -4, 0, 2, 2, 2, -2]))",
        "(-2, [(IntPolynomial(coeffs=(-1, -1, 1)), 1), "
        "(IntPolynomial(coeffs=(-1, -1, 0, 0, 1)), 1)])"),
    # (x^2 + 1)^2 (x - 2): a repeated root, so CRootOf throughout
    "crootof": (
        "from tdyn.enclosures import poly_root_enclosures\n"
        "from tdyn.exact_linalg import IntPolynomial\n"
        "roots = poly_root_enclosures(IntPolynomial.of([-2, 1, -4, 2, -2, 1]))\n"
        "result = [(r.index, r.is_real, r.box(16)[2:]) for r in roots]",
        "[(0, True, (Fraction(0, 1), Fraction(0, 1))), "
        "(1, False, (Fraction(-262147, 262144), Fraction(-262139, 262144))), "
        "(2, False, (Fraction(-524295, 524288), Fraction(-524279, 524288))), "
        "(3, False, (Fraction(262139, 262144), Fraction(262147, 262144))), "
        "(4, False, (Fraction(524279, 524288), Fraction(524295, 524288)))]"),
    "smith_normal_form": (
        "from tdyn.exact_linalg import BigIntMatrix\n"
        "from tdyn.polyalg import smith_normal_form\n"
        "s = smith_normal_form(BigIntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]))\n"
        "result = (s.diagonal(), s.U.row_lists(), s.V.row_lists())",
        "([2, 6, 12], [[1, 0, 0], [2, -1, -1], [3, -4, -3]], "
        "[[1, -2, 2], [0, 1, -2], [0, 0, 1]])"),
    # 2^89 - 1, above the deterministic Miller-Rabin bound: sympy's isprime
    "isprime": (
        "import contextlib, io, json\n"
        "from tdyn.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['padic', '--builtin', 'torus_matrix:2,1,1,1', '--prime',\n"
        "                 '618970019642690137449562111', '--format', 'json'])\n"
        "result = (code, json.loads(out.getvalue())['growth_factor'])",
        "(0, {'prime': 618970019642690137449562111, 'exponent': '0', 'value': 1.0})"),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_the_fallbacks_import_sympy_when_they_run(name):
    code, expected = FALLBACKS[name]
    script = ("import sys\nbefore = 'sympy' in sys.modules\n" + code
              + "\nprint(before, 'sympy' in sys.modules)\nprint(repr(result))")
    assert _fresh(script)[:2] == ["False True", expected]

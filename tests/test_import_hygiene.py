"""sympy builds its first expression with ``Add.flatten``, which imports
``sympy.tensor.tensor`` and ``sympy.combinatorics`` (16 modules, about 50 ms).
The package ``sympy.tensor`` itself comes with ``import sympy``.  tdyn's
cyclotomic identification, linear roots and root enclosures build no
expression, also for the non-real roots of polynomials that sympy rescales
(x^2 - 30x + 625 in ``classify`` of the equal-modulus pair, x^2 + 2x + 4 in
``growth`` of the torus [[0, -4], [1, -2]]), so the CLI commands below must
leave both modules unimported, in a fresh process.

No linter is installed, so an ``ast`` walk checks that every name a module
of the package imports is used there or exported in its ``__all__``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

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

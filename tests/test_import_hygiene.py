"""sympy builds its first expression with ``Add.flatten``, which imports
``sympy.tensor.tensor`` and ``sympy.combinatorics`` (16 modules, about 50 ms).
The package ``sympy.tensor`` itself comes with ``import sympy``.  tdyn's
cyclotomic identification and linear roots build no expression, so the CLI
commands below must leave both modules unimported, in a fresh process."""

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
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [tdyn.cli.main(argv) for argv in argvs]
print(codes)
print([m for m in LAZY if m in sys.modules])
"""


def test_cli_commands_build_no_sympy_expression():
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["[]", "[0, 0, 0, 0]", "[]"]

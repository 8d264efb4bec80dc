"""Op lists of the three workloads: a fixed corpus plus systems drawn from a seed.

An op is what one timed sample covers.  In the two cold workloads it is one
CLI command run in a process that has done nothing but ``import tdyn.cli``;
in ``session_warm`` it is all eleven commands on one system, in CLI order, in
one such process.

The seed only chooses which extra systems run.  It never changes how many
there are per rank or which commands they get, so every seed gives the same
op count and command mix.  Extras are filtered with sympy, never with tdyn,
and are built so that every command on them exits 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import sympy

WORKLOADS = ("spectral_cold", "sequences_cold", "session_warm")

# Session commands, in the order the CLI lists them.
SESSION_COMMANDS = ("validate", "tame", "rseq", "nseq", "zeta", "realize",
                    "congruence", "growth", "entropy", "classify", "padic")

INPUTS = "perfbench/inputs"
RANK4 = "torus_matrix:0,0,0,-1,1,0,0,2,0,1,0,-3,0,0,1,4"
RANK5 = "torus_matrix:0,0,0,0,-1,1,0,0,0,1,0,1,0,0,-1,0,0,1,0,2,0,0,0,1,3"

_X = sympy.Symbol("x")


@dataclass(frozen=True)
class System:
    """A system as the CLI addresses it, plus what the oracles need to know."""

    name: str
    source: tuple           # ("--builtin", key) or ("--input", path)
    psi_identity: bool = False
    integer_sections: tuple = ()   # integer (phi, psi) row lists, for the SNF oracle
    tame: bool = False             # known tame from the sympy filter (seeded only)
    prime: int = 2                 # prime passed to ``padic``


@dataclass(frozen=True)
class Op:
    id: str
    system: System
    argvs: tuple            # one argv per command
    seeded: bool


def companion_key(coeffs) -> str:
    """Catalog key of the companion torus of the monic polynomial with the
    given ascending coefficients (ones on the subdiagonal, -coeffs in the
    last column, as tdyn.exact_linalg.companion_matrix lays it out)."""
    d = len(coeffs) - 1
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -coeffs[i]
    return "torus_matrix:" + ",".join(str(v) for row in rows for v in row)


def _torus(name, key, rows=None):
    sections = () if rows is None else ((rows, _identity(len(rows))),)
    return System(name=name, source=("--builtin", key), psi_identity=True,
                  integer_sections=sections)


def _identity(d):
    return [[int(i == j) for j in range(d)] for i in range(d)]


def _argv(command, system, n=None):
    argv = [command, *system.source, "--format", "json"]
    if n is not None:
        argv += ["--n", str(n)]
    if command == "padic":
        argv += ["--prime", str(system.prime)]
    return tuple(argv)


def _cold_ops(systems_commands, seeded):
    ops = []
    for system, commands, n in systems_commands:
        for command in commands:
            ops.append(Op(id=f"{command}:{system.name}", system=system,
                          argvs=(_argv(command, system, n),), seeded=seeded))
    return ops


# ---------------------------------------------------------------- filters

def _no_cyclotomic_factor(poly: sympy.Poly) -> bool:
    """True when no root of the polynomial is a root of unity."""
    _, factors = poly.factor_list()
    return not any(f.is_cyclotomic for f, _ in factors)


def _matrix_charpoly(rows) -> sympy.Poly:
    return sympy.Matrix(rows).charpoly(_X)


def _rank2_companion(rng, complex_roots: bool):
    """x^2 + b x + c, irreducible, no root of unity among its roots; complex
    or real-irrational roots as asked."""
    while True:
        b = rng.randint(-4, 4)
        c = rng.randint(-4, 5)
        disc = b * b - 4 * c
        if c == 0 or (disc < 0) != complex_roots:
            continue
        poly = sympy.Poly([1, b, c], _X)
        if poly.is_irreducible and _no_cyclotomic_factor(poly):
            return [c, b, 1]


def _random_companion(rng, rank):
    """Monic irreducible integer polynomial of the given degree, constant
    term +-1 or +-2, with no root of unity among its roots."""
    while True:
        coeffs = ([rng.choice([-2, -1, 1, 2])]
                  + [rng.randint(-2, 2) for _ in range(rank - 1)] + [1])
        poly = sympy.Poly(list(reversed(coeffs)), _X)
        if poly.is_irreducible and _no_cyclotomic_factor(poly):
            return coeffs


def _random_tame_matrix(rng, min_abs_det):
    """2x2 integer matrix whose eigenvalues are no roots of unity (so
    det(A^n - I) never vanishes) and with |det| >= min_abs_det."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if abs(det) < min_abs_det:
            continue
        if _no_cyclotomic_factor(_matrix_charpoly(rows)):
            return rows, det


def _flat(rows):
    return ",".join(str(v) for row in rows for v in row)


def _seeded_rank2_tori(rng):
    """A companion torus with real irrational and one with non-real
    eigenvalues."""
    out = []
    for label, complex_roots in (("real", False), ("complex", True)):
        coeffs = _rank2_companion(rng, complex_roots)
        rows = [[0, -coeffs[0]], [1, -coeffs[1]]]
        out.append(System(name=f"seed_{label}_{_flat(rows)}",
                          source=("--builtin", companion_key(coeffs)),
                          psi_identity=True, tame=True,
                          integer_sections=((rows, _identity(2)),)))
    return out


# ---------------------------------------------------------------- workloads

def spectral_cold(rng):
    pair = System(name="commuting_pair",
                  source=("--input", f"{INPUTS}/commuting_pair.json"))
    gci = ("growth", "classify", "entropy")
    fixed = [
        (_torus("cat", "torus_matrix:2,1,1,1", [[2, 1], [1, 1]]), gci, None),
        (_torus("rot2", "torus_matrix:1,-2,1,1", [[1, -2], [1, 1]]), gci, None),
        (_torus("rank4", RANK4), gci, None),
        (_torus("rank5", RANK5), ("growth", "entropy"), None),
        (pair, ("growth", "classify"), None),
        # cheap rational and p-adic paths, so that the median op is not the
        # edge of the cheap group
        (System(name="sint32", source=("--builtin", "s_integer:3/2,2")),
         ("growth", "classify"), None),
        (System(name="heis2113", source=("--builtin", "heisenberg:2,1,1,3")),
         ("growth", "classify"), None),
    ]
    extras = [(system, gci, None) for system in _seeded_rank2_tori(rng)]
    return _cold_ops(fixed, False) + _cold_ops(extras, True)


def sequences_cold(rng):
    fixed = []
    for r in range(2, 8):
        # x^r - x - 1 (irreducible for every r, by Selmer)
        key = companion_key([-1, -1] + [0] * (r - 2) + [1])
        commands = ("zeta", "tame", "realize") if r <= 6 else ("zeta", "tame")
        fixed.append((_torus(f"selmer{r}", key), commands, None))
    sequences = ("rseq", "nseq", "congruence")
    fixed += [
        (_torus("cat", "torus_matrix:2,1,1,1"), sequences, 300),
        (System(name="heis2113", source=("--builtin", "heisenberg:2,1,1,3")),
         sequences, 300),
        (System(name="sint32", source=("--builtin", "s_integer:3/2,2")),
         ("rseq", "congruence"), 400),
        (System(name="zpair3m2", source=("--builtin", "z_pair:3,-2")), sequences, 400),
    ]
    extras = []
    rows, _ = _random_tame_matrix(rng, 1)
    extras.append((System(name=f"seed_torus_{_flat(rows)}",
                          source=("--builtin", "torus_matrix:" + _flat(rows)),
                          psi_identity=True, tame=True,
                          integer_sections=((rows, _identity(2)),)),
                   sequences, 300))
    rows, det = _random_tame_matrix(rng, 2)
    extras.append((System(name=f"seed_heis_{_flat(rows)}",
                          source=("--builtin", "heisenberg:" + _flat(rows)),
                          tame=True,
                          integer_sections=((rows, _identity(2)),
                                            ([[det]], [[1]]))),
                   sequences, 300))
    for rank in (3, 4):
        coeffs = _random_companion(rng, rank)
        extras.append((System(name=f"seed_comp{rank}_{'_'.join(map(str, coeffs))}",
                              source=("--builtin", companion_key(coeffs)),
                              psi_identity=True, tame=True),
                       ("zeta", "tame"), None))
    return _cold_ops(fixed, False) + _cold_ops(extras, True)


def session_warm(rng):
    def builtin(name, key, **kw):
        return System(name=name, source=("--builtin", key), **kw)

    def from_file(name, **kw):
        return System(name=name, source=("--input", f"{INPUTS}/{name}.json"), **kw)

    fixed = [
        builtin("ztimes2", "z_times_d:2", psi_identity=True),
        builtin("cat", "torus_matrix:2,1,1,1", psi_identity=True),
        builtin("rot2", "torus_matrix:1,-2,1,1", psi_identity=True),
        builtin("rank4", RANK4, psi_identity=True),
        builtin("heis2113", "heisenberg:2,1,1,3"),
        # typed errors: non-tame (exit 2), S-integer nseq/entropy (exit 1),
        # non-commuting padic (exit 3), equal paired moduli in growth (exit 4)
        builtin("heis2111", "heisenberg:2,1,1,1"),
        builtin("zpair2m2", "z_pair:2,-2"),
        builtin("sint32", "s_integer:3/2,2", psi_identity=True),
        from_file("commuting_pair"),
        from_file("noncommuting_pair"),
        from_file("equal_modulus", prime=5),
    ]
    # the non-real one only: a second cheap seeded session would sit at the
    # op_tail_s position and move it from seed to seed
    extras = _seeded_rank2_tori(rng)[1:]

    def session(system, seeded):
        return Op(id=f"session:{system.name}", system=system, seeded=seeded,
                  argvs=tuple(_argv(c, system) for c in SESSION_COMMANDS))

    return [session(s, False) for s in fixed] + [session(s, True) for s in extras]


def build(workload: str, seed: int) -> list:
    """The op list of one pass of the workload for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    return {"spectral_cold": spectral_cold, "sequences_cold": sequences_cold,
            "session_warm": session_warm}[workload](rng)

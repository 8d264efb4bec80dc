"""The commands that once fell off a performance cliff, each run in a fresh
process under its own timeout and checked by the md5 of its stdout or by a
predicate on its JSON.

Run from anywhere, with the python that has sympy:

    python3 tests/fresh_process_cliffs.py

Each row runs ``python -m tdyn.cli <argv> --format json`` with
PYTHONHASHSEED=0 and this checkout's ``src`` first on PYTHONPATH, prints its
wall time, and the script exits 1 if any row times out, exits with another
code than its check expects (0 unless the check is a ``refusal``) or fails
its check, which reads stdout, or stderr for a refusal.  The name does not
start with ``test_``, so pytest does not collect it.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from math import isqrt
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def companion(r: int) -> list:
    """The companion matrix of x^r - x - 1, as rows of ints."""
    m = [[int(i == j + 1) for j in range(r)] for i in range(r)]
    m[0][-1] = m[1][-1] = 1
    return m


def torus_key(r: int) -> str:
    return "torus_matrix:" + ",".join(str(x) for row in companion(r) for x in row)


def _strs(rows) -> list:
    return [[str(x) for x in row] for row in rows]


def phi_squared_plus_one(r: int) -> dict:
    m = companion(r)
    psi = [[sum(m[i][k] * m[k][j] for k in range(r)) + (i == j) for j in range(r)]
           for i in range(r)]
    return {"name": f"c{r}-phi2+1", "sections": [{"rank": r, "phi": _strs(m), "psi": _strs(psi)}]}


def psi_two(r: int) -> dict:
    psi = [[2 * (i == j) for j in range(r)] for i in range(r)]
    return {"name": f"c{r}-psi-2",
            "sections": [{"rank": r, "phi": _strs(companion(r)), "psi": _strs(psi)}]}


def by_three(r: int) -> dict:
    return {"name": f"c{r}-by-3",
            "sections": [{"rank": r, "phi": _strs(companion(r))}, {"rank": 1, "phi": [["3"]]}]}


def over_z_half(r: int) -> dict:
    return {"name": f"c{r}-z-half",
            "sections": [{"rank": r, "phi": _strs(companion(r)), "primes": [2]}]}


def halved(r: int) -> dict:
    return {"name": f"c{r}-half", "sections": [
        {"rank": r, "phi": [[f"{x}/2" for x in row] for row in companion(r)], "primes": [2]}]}


def beside_both_singular(r: int) -> dict:
    """The companion of x^r - x - 1 beside phi = diag(1, 0), psi = diag(0, 1),
    a commuting pair with both sides singular and so no commuting form."""
    return {"name": f"c{r}-beside-both-singular", "sections": [
        {"rank": r, "phi": _strs(companion(r))},
        {"rank": 2, "phi": [["1", "0"], ["0", "0"]], "psi": [["0", "0"], ["0", "1"]]}]}


def semiprime() -> int:
    from sympy import nextprime
    return nextprime(10 ** 29) * nextprime(3 * 10 ** 29)


def md5(expected: str):
    return lambda out: hashlib.md5(out.encode()).hexdigest() == expected


def field(name: str, value):
    return lambda out: json.loads(out)[name] == value


def refusal(code: int, message: str):
    """A row that must exit with code and print exactly message on stderr."""
    def check(err: str) -> bool:
        return err == message
    check.exit_code = code
    return check


def periodic_single(out: str) -> bool:
    r = json.loads(out)
    c = r["classification"]
    return r["count"] == 1 and c["kind"] == "periodic" and c["period"] == 1


def classified(out: str) -> bool:
    r = json.loads(out)
    return r["count"] >= 1 and r["classification"]["kind"] in ("periodic", "interval")


N = semiprime()

# (command and --builtin key or descriptor, extra argv, timeout in s, check);
# a dict descriptor is written to a file and passed as --input
ROWS = [
    # the zeta of x^10 - x - 1 took more than 400 s before the larger
    # Berlekamp-Massey primes and the S_d certificate, about 4 s after,
    # and about 1.4 s read off the exterior powers with no recurrence
    ("zeta", torus_key(10), [], 120, field("roundtrip_verified", True)),
    # classify on x^6 - x - 1 took 165 s when it factored the degree-400
    # product polynomial of the wedge^3 term, about 1-2 s with square-free
    # parts on a coprime base, and about 0.2 s now that its top |r|^2
    # separates before any product polynomial is built
    ("classify", torus_key(6), [], 60, periodic_single),
    # classify built the product polynomial of every term: x^7 - x - 1 ran
    # past 400 s and x^6 - x - 1 with psi = phi^2 + I past 300 s, in CRootOf
    # on coprime-base elements the root engine did not certify, and
    # x^6 - x - 1 with psi = 2I took 4-6 s, mostly in Yun; the top |r|^2 of
    # each, and of x^8 - x - 1, separates on the terms' own enclosures.
    # The psi = 2I md5 is that of the product-polynomial route, and the
    # x^7 - x - 1 one that of an independent continued-fraction route
    ("classify", torus_key(7), [], 20, md5("c1bb6353c4f164c3bbb5d50c16b66498")),
    ("classify", torus_key(8), [], 20, classified),
    ("classify", phi_squared_plus_one(6), [], 20, classified),
    ("classify", psi_two(6), [], 20, md5("68bc1199ffe9c91066fbe08ba4c1da7a")),
    # the realization of x^9 - x - 1 took 11.7 s when its trace check took
    # char_poly of the whole 255 x 255 matrices, and 2.1-2.4 s block by block
    # through the powers of each companion block; that of x^10 - x - 1 took
    # 8-12 s so.  The Hessenberg recurrence reads each block's
    # characteristic polynomial off its entries with no matrix power, and
    # x^10 - x - 1 takes about 1-2 s; its md5 is that of the powers route
    ("realize", torus_key(9), [], 20, field("trace_check_passed", True)),
    ("realize", torus_key(10), [], 20, md5("c5ceb39c24d5f5370dd12ede9e0a167d")),
    # systems whose sections all have psi = c I read their zeta off the
    # exterior powers with no recurrence: the class-2 system (the companion
    # of x^6 - x - 1 over multiplication by 3) took about 1.3 s through the
    # 2^127 - 1 lift, and x^7 - x - 1 with psi = 2I about 112 s through the
    # Fraction loop; each now takes well under a second in-process
    ("zeta", by_three(6), [], 20, field("roundtrip_verified", True)),
    ("zeta", psi_two(7), [], 20, field("roundtrip_verified", True)),
    # a commuting pair with psi = phi^2 + I reads its zeta and its long
    # sequences off the exterior powers of psi^-1 phi: zeta on the companion
    # of x^7 - x - 1 took about 50 s through the Fraction Berlekamp-Massey
    # loop, and rseq --n 3000 on that of x^6 - x - 1 about 7 s through the
    # Bareiss loop; the md5s are those of the outputs of either route
    ("zeta", phi_squared_plus_one(7), [], 20, md5("bd9cde2b53bdfa395557ba00b2ae3dce")),
    ("rseq", phi_squared_plus_one(6), ["--n", "3000"], 20,
     md5("5caf1f355eece1e9e6b71c58f2e28b19")),
    # an S-integer section with no p-adic unit ratio reads its zeta off the
    # exterior powers, scaled by the S-adic part kappa read off the Newton
    # polygon: zeta on the companion of x^7 - x - 1 halved, over Z[1/2],
    # took about 97 s through Berlekamp-Massey and now well under a second;
    # its R_n are those of x^7 - x - 1 with psi = 2I, so the md5 is theirs
    ("zeta", halved(7), [], 20, md5("66b7968990ec9d3335b2c1451b4cb67f")),
    # the eigenvalues of the companion of x^6 - x - 1 are units, so with
    # psi = I over Z[1/2] each ratio is a 2-adic unit and the section has
    # no zeta scale: Berlekamp-Massey, one Fraction loop, refuses the
    # 132-term window in about 0.4 s
    ("zeta", over_z_half(6), [], 20,
     refusal(1, "error: no recurrence of admissible order fits the 132-term window\n")),
    # one section with no commuting form sent the whole system to
    # Berlekamp-Massey: beside the companion of x^7 - x - 1 the window has
    # 1,028 integer terms and an order-126 recurrence, which the Fraction
    # loop fit in about 1.1 s in-process and the command in about 3.4 s;
    # the zeta is now the fold of the torus's exterior powers with that
    # section's own Berlekamp-Massey sum (R_n = 1), and the command takes
    # about 0.2 s.  The md5 is that of either route.  Beside x^8 - x - 1
    # (2,052 terms, order 254) the whole-window route ran past 900 s; the
    # fold's command takes about 0.3 s, and its zeta and exponential sum
    # are those of zeta on the x^8 - x - 1 torus alone
    ("zeta", beside_both_singular(7), [], 30, md5("e2a48176b56ecfdbe5e9338f352a4115")),
    ("zeta", beside_both_singular(8), [], 20, md5("ed091cb08659ed4bae107019e4226f3e")),
    # validate factored every denominator, which took longer than any
    # timeout on a 59-digit semiprime; it now divides out the primes of S
    ("validate", f"s_integer:1/{N},2", [], 20, field(
        "violations", [f"denominator {N} outside prime support in section 1 (phi)"])),
]


def main() -> int:
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for command, system, extra, timeout, check in ROWS:
            if isinstance(system, dict):
                path = Path(tmp) / f"{system['name']}.json"
                path.write_text(json.dumps(system))
                source, label = ["--input", str(path)], system["name"]
            else:
                name, _, args = system.partition(":")
                label = system
                if name == "torus_matrix":
                    label = f"{name} rank {isqrt(args.count(',') + 1)}"
                source = ["--builtin", system]
            argv = [command, *source, *extra, "--format", "json"]
            start = time.perf_counter()
            try:
                run = subprocess.run([sys.executable, "-m", "tdyn.cli", *argv], env=env,
                                     capture_output=True, text=True, timeout=timeout)
                code = getattr(check, "exit_code", 0)
                ok = run.returncode == code and check(run.stderr if code else run.stdout)
            except subprocess.TimeoutExpired:
                ok = False
            seconds = time.perf_counter() - start
            failed += not ok
            print(f"{'ok' if ok else 'FAIL':4} {seconds:7.2f} s  (limit {timeout:3} s)  "
                  f"{command} {label} {' '.join(extra)}".rstrip(), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

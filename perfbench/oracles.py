"""Output checks, run in the harness outside the timed region.

Fixed-corpus ops are compared byte for byte with the golden files (exit
code and stdout).  Seeded systems have no golden output; every command on
them must exit 0, their outputs must pass what they certify about themselves
(``trace_check_passed``, ``all_passed``, ``roundtrip_verified``, an entropy
``identity_gap`` of at most 1e-9), and they are checked against independent
routes: sequence values against the Smith-normal-form route, tameness
against sympy's cyclotomic test, and, for tori with psi = identity, the
``growth`` value against the ``lambda_bounds`` that ``classify`` certifies.
"""

from __future__ import annotations

import json
from fractions import Fraction

IDENTITY_GAP_MAX = 1e-9
# growth.numeric is a float; the certified lambda bounds are exact rationals
FLOAT_REL_TOL = 1e-12


def _snf_sequence(system, n_terms: int) -> list:
    """R_1 .. R_n as the product of the section cokernel orders from the Smith
    normal form, None where a section's value is infinite."""
    from tdyn.group_model import section
    from tdyn.reidemeister import is_infinite, section_coincidence_number_snf
    sections = [section(len(phi), phi, psi) for phi, psi in system.integer_sections]
    out = []
    for n in range(1, n_terms + 1):
        total = 1
        for sec in sections:
            v = section_coincidence_number_snf(sec, n)
            if is_infinite(v):
                total = None
                break
            total *= v
        out.append(total)
    return out


class Checker:
    def __init__(self, golden: dict):
        self.golden = golden
        self._snf_cache = {}

    def check(self, op, reply: dict, cold: bool) -> list:
        """Problems with one op's reply (empty when it is correct)."""
        if reply.get("timeout"):
            return ["timeout"]
        if reply.get("skipped"):
            return ["skipped: run deadline"]
        if reply.get("crashed"):
            return ["op process died without a result"]
        problems = []
        if cold and not reply["cold_ok"]:
            problems.append("sympy CRootOf caches not empty at op start")
        expected = self.golden.get(op.id) if not op.seeded else None
        if not op.seeded and expected is None:
            problems.append("no golden output recorded")
        for i, (argv, res) in enumerate(zip(op.argvs, reply["results"])):
            command = argv[0]
            if res["traceback"]:
                problems.append(f"{command}: traceback\n{res['traceback']}")
                continue
            if res["rc"] not in (0, 1, 2, 3, 4):
                problems.append(f"{command}: exit code {res['rc']} outside 0-4")
                continue
            if expected is not None:
                want = expected[i]
                if res["rc"] != want["rc"]:
                    problems.append(f"{command}: exit {res['rc']}, golden {want['rc']}")
                elif res["out"] != want["out"]:
                    problems.append(f"{command}: output differs from golden")
            elif op.seeded and res["rc"] != 0:
                problems.append(f"{command}: exit {res['rc']}: {res['err'].strip()}")
            if op.seeded and res["rc"] == 0:
                problems += self._check_payload(op, command, json.loads(res["out"]))
        return problems

    def _check_payload(self, op, command, doc) -> list:
        if command == "realize" and doc["trace_check_passed"] is not True:
            return ["realize: trace check failed"]
        if command == "congruence" and doc["all_passed"] is not True:
            return ["congruence: not all congruences passed"]
        if command == "zeta" and doc["roundtrip_verified"] is not True:
            return ["zeta: roundtrip not verified"]
        if command == "entropy" and not doc["identity_gap"] <= IDENTITY_GAP_MAX:
            return [f"entropy: identity gap {doc['identity_gap']} > {IDENTITY_GAP_MAX}"]
        system = op.system
        if command == "tame" and doc["tame"] is not system.tame:
            return [f"tame: reported {doc['tame']}, sympy says {system.tame}"]
        if command in ("rseq", "nseq") and system.integer_sections:
            key = (system.name, len(doc["sequence"]))
            if key not in self._snf_cache:
                self._snf_cache[key] = _snf_sequence(system, len(doc["sequence"]))
            infinite = "0" if command == "nseq" else "infinity"
            want = [infinite if v is None else str(v) for v in self._snf_cache[key]]
            if doc["sequence"] != want:
                return [f"{command}: values differ from the SNF route"]
        return []


def growth_within_lambda(outputs: dict) -> list:
    """For one psi = identity torus: the growth value must lie within the
    lambda bounds classify certifies.  ``outputs`` maps command -> JSON doc."""
    if "growth" not in outputs or "classify" not in outputs:
        return []
    numeric = outputs["growth"]["growth"]["numeric"]
    lo, hi = (Fraction(b) for b in outputs["classify"]["lambda_bounds"])
    slack = abs(numeric) * FLOAT_REL_TOL
    if not (float(lo) - slack <= numeric <= float(hi) + slack):
        return [f"growth {numeric} outside classify lambda bounds [{float(lo)}, {float(hi)}]"]
    return []

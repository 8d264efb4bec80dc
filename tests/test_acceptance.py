"""Acceptance suite: one test per criterion, exact values and pinned
 tolerances, printing one PASS line each (run with -s to see them)."""

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from tdyn.asymptotics import (
    classify_limit_points,
    dominant_spectrum,
    limit_points_sample,
)
from tdyn.cli import main as cli_main
from tdyn.congruence import dold_check_realization, euler_check, gauss_check
from tdyn.errors import TdynError
from tdyn.exact_linalg import BigIntMatrix, IntPolynomial, det_exact
from tdyn.group_model import (
    NilpotentSystem,
    s_integer,
    section,
    torus_matrix,
    z_pair,
    z_times_d,
)
from tdyn.growth import entropy_dual_torus, growth_rate, verify_entropy_identity
from tdyn.padic import newton_polygon, ord_p
from tdyn.polyalg import smith_normal_form
from tdyn.reidemeister import coincidence_sequence, nielsen_sequence
from tdyn.zeta import ExponentialSum, expand, realize_bouquet, zeta_from_sequence


def _cli_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv + ["--format", "json"])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


# --------------------------------------------------------------------------

def test_criterion_01_sequences_and_growth_of_multiplication_maps():
    start = time.monotonic()
    for d in (2, 3, -2):
        doc = _cli_json(["rseq", "--builtin", f"z_times_d:{d}", "--n", "20"])
        assert [int(s) for s in doc["sequence"]] == \
            [abs(d ** n - 1) for n in range(1, 21)]
        gdoc = _cli_json(["growth", "--builtin", f"z_times_d:{d}", "--n", "20"])
        assert gdoc["growth"]["exact"] == str(abs(d))
        assert gdoc["growth"]["numeric"] == abs(d)  # gap exactly 0
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(1, f"|d^n - 1| sequences and growth |d| for d in (2,3,-2) "
               f"({elapsed:.2f}s)")


def test_criterion_02_zeta_and_congruences_of_the_2_1_pair():
    start = time.monotonic()
    doc = _cli_json(["zeta", "--builtin", "z_pair:2,1"])
    assert doc["zeta"] == {"num": ["1", "-1"], "den": ["1", "-2"]}
    cdoc = _cli_json(["congruence", "--builtin", "z_pair:2,1", "--n", "60"])
    assert cdoc["all_passed"] is True
    assert all(r["residue"] == "0" for r in cdoc["congruences"])
    assert len(cdoc["congruences"]) == 60
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(2, f"zeta (1-z)/(1-2z) and 60 exact zero residues ({elapsed:.2f}s)")


def _random_tame_systems(count=50, seed=20240607):
    """Random single-section systems (d <= 2, entries in [-4,4]) that are
    tame with certified distinct eigenvalue moduli."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        d = rng.randint(1, 2)
        phi = [[rng.randint(-4, 4) for _ in range(d)] for _ in range(d)]
        if rng.random() < 0.5:
            psi = None
        else:
            c = rng.randint(-4, 4)
            psi = [[c if i == j else 0 for j in range(d)] for i in range(d)]
        sys_ = NilpotentSystem(name=f"rand{len(found)}",
                               sections=(section(d, phi, psi),))
        try:
            growth_rate(sys_, N=4)  # certifies tameness + distinct moduli
        except TdynError:
            continue
        found.append(sys_)
    return found


def _window(system):
    order_bound = 1
    for sec in system.sections:
        order_bound *= 2 ** sec.rank
    return 2 * order_bound + 4


SYSTEMS_CACHE = {}


def _criterion3_data():
    if "data" not in SYSTEMS_CACHE:
        systems = _random_tame_systems()
        data = []
        for sys_ in systems:
            N = max(40, _window(sys_))
            seq = coincidence_sequence(sys_, N)
            rf, es = zeta_from_sequence(seq)
            data.append((sys_, seq, rf, es))
        SYSTEMS_CACHE["data"] = data
    return SYSTEMS_CACHE["data"]


def test_criterion_03_zeta_roundtrip_on_random_tame_systems():
    start = time.monotonic()
    data = _criterion3_data()
    assert len(data) == 50
    for sys_, seq, rf, es in data:
        n = len(seq.values)
        assert n >= _window(sys_)
        assert expand(rf, n) == list(seq.values)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, f"50 random tame systems: exact zeta roundtrip ({elapsed:.2f}s)")


def test_criterion_04_bouquet_realization_traces():
    for sys_, seq, rf, es in _criterion3_data():
        br = realize_bouquet(es)
        check_n = 2 * (br.a_even.rows + br.a_odd.rows) + 5
        long_seq = coincidence_sequence(sys_, max(check_n, len(seq.values)))
        assert br.lefschetz_values(check_n) == list(long_seq.values[:check_n])
    _report(4, "trace identity tr(A_e^n) - tr(A_o^n) = R_n on all 50 systems")


def test_criterion_05_gauss_and_euler_congruences():
    prime_powers = [(p, r) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
                    for r in range(1, 6) if p ** r <= 40]
    for sys_, seq, rf, es in _criterion3_data():
        if len(seq.values) < 40:
            seq = coincidence_sequence(sys_, 40)
        for n in range(1, 41):
            assert gauss_check(seq, n).residue == 0
        for p, r in prime_powers:
            assert euler_check(seq, p, r).residue == 0
    _report(5, "Gauss residues 0 for n <= 40 and Euler residues 0 at all "
               "prime powers <= 40, all 50 systems")


def test_criterion_06_dold_congruence_property():
    rng = random.Random(777)
    for _ in range(200):
        de = rng.randint(1, 3)
        do = rng.randint(1, 3)
        a_e = BigIntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(de)] for _ in range(de)])
        a_o = BigIntMatrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(do)] for _ in range(do)])
        from tdyn.zeta import BouquetRealization
        br = BouquetRealization(a_even=a_e, a_odd=a_o)
        for n in range(1, 31):
            assert dold_check_realization(br, n).residue == 0
    _report(6, "Dold residue 0 for 200 random matrix pairs, n <= 30")


def test_criterion_07_snf_determinant_cross_check():
    def det_cofactor(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        return sum((-1) ** j * rows[0][j]
                   * det_cofactor([r[:j] + r[j + 1:] for r in rows[1:]])
                   for j in range(n) if rows[0][j])

    rng = random.Random(4242)
    for _ in range(300):
        d = rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)]
        A = BigIntMatrix.from_rows(rows)
        sf = smith_normal_form(A)
        prod = 1
        for x in sf.diagonal():
            prod *= x
        bareiss = det_exact(A)
        assert abs(prod) == abs(bareiss) == abs(det_cofactor(rows))
        assert abs(det_exact(sf.U)) == 1
        assert abs(det_exact(sf.V)) == 1
        assert sf.U.mul(A).mul(sf.V) == sf.D
    _report(7, "SNF diagonal product = Bareiss det = cofactor det, U/V "
               "unimodular, 300 matrices")


def test_criterion_08_adelic_product_formula():
    import sympy
    rng = random.Random(55)
    for _ in range(500):
        num = rng.randint(-10 ** 6, 10 ** 6)
        den = rng.randint(1, 10 ** 6)
        if num == 0:
            num = 1
        q = Fraction(num, den)
        primes = set(sympy.factorint(abs(q.numerator)).keys()) | \
            set(sympy.factorint(q.denominator).keys())
        total = abs(q)
        for p in primes:
            total *= Fraction(p) ** (-ord_p(q, p))
        assert total == 1
    _report(8, "adelic |q| * prod |q|_p = 1 exactly for 500 random rationals")


def test_criterion_09_newton_polygon_bookkeeping_and_rational_roots():
    rng = random.Random(99)
    for _ in range(100):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-50, 50) for _ in range(deg)] + [rng.randint(1, 50)]
        f = IntPolynomial.of(coeffs)
        for p in (2, 3, 5):
            zeros = 0
            while f.coeffs[zeros] == 0:
                zeros += 1
            rise = sum(-s * length for s, length in newton_polygon(f, p).segments)
            assert rise == ord_p(f.coeffs[zeros], p) - ord_p(f.leading, p)
    from tdyn.padic import root_valuations
    for _ in range(60):
        deg = rng.randint(1, 5)
        roots = []
        poly = IntPolynomial.of([1])
        for _ in range(deg):
            r = Fraction(rng.choice([n for n in range(-9, 10) if n]),
                         rng.randint(1, 9))
            roots.append(r)
            poly = poly * IntPolynomial.of([-r.numerator, r.denominator])
        for p in (2, 3, 5):
            assert sorted(root_valuations(poly, p)) == \
                sorted(Fraction(ord_p(r, p)) for r in roots)
    _report(9, "polygon rise bookkeeping (100 polynomials x p in 2,3,5) and "
               "per-root valuations for rational-root polynomials")


def test_criterion_10_entropy_identity():
    for m in range(2, 11):
        assert verify_entropy_identity(z_times_d(m), N=12) <= 1e-9
    cat = torus_matrix([[2, 1], [1, 1]])
    gap = verify_entropy_identity(cat, N=12)
    assert gap <= 1e-9
    golden_log = math.log((3 + math.sqrt(5)) / 2)
    rep = growth_rate(cat, N=40)
    assert abs(math.log(rep.numeric) - golden_log) <= 1e-9
    assert abs(entropy_dual_torus([[2, 1], [1, 1]]) - golden_log) <= 1e-9
    assert rep.agreement <= 5e-2  # empirical R_40^(1/40) vs closed form
    _report(10, "entropy identity gaps <= 1e-9 for m = 2..10 and the cat map; "
                "both sides equal log((3+sqrt 5)/2); empirical within 5e-2")


def test_criterion_11_asymptotics_trichotomy():
    start = time.monotonic()
    seq = coincidence_sequence(z_times_d(2), 40)
    _, es = zeta_from_sequence(seq)
    ds = dominant_spectrum(es)
    cls = classify_limit_points(ds)
    assert cls.kind == "periodic" and cls.period == 1
    samples = limit_points_sample(seq, ds, 40)
    assert samples[-1] == pytest.approx(1.0, abs=1e-9)

    nseq = nielsen_sequence(z_pair(2, -2), 40)
    _, nes = zeta_from_sequence(nseq)
    nds = dominant_spectrum(nes)
    ncls = classify_limit_points(nds)
    assert ncls.kind == "periodic" and ncls.period == 2
    nsamples = limit_points_sample(nseq, nds, 40)
    evens = sorted(set(round(s, 6) for s in nsamples[1::2]))
    odds = sorted(set(round(s, 6) for s in nsamples[0::2]))
    assert evens == [0.0]
    assert odds[-1] == pytest.approx(2.0, abs=1e-6)

    # dominant roots 2 +- i: irrational angle, interval case
    ives = ExponentialSum(terms=((IntPolynomial.of([5, -4, 1]), 1),))
    ids_ = dominant_spectrum(ives)
    icls = classify_limit_points(ids_)
    assert icls.kind == "interval"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(11, f"Periodic(1), Periodic(2) with limits (0,2), and the 2+-i "
                f"interval case ({elapsed:.2f}s)")


def test_criterion_12_s_integer_model():
    sys_ = s_integer(Fraction(1, 2), [2])
    seq = coincidence_sequence(sys_, 20)
    assert list(seq.values) == [2 ** n - 1 for n in range(1, 21)]
    # direct adelic oracle: |1/2^n - 1| * |1/2^n - 1|_2
    for n in range(1, 21):
        q = Fraction(1, 2) ** n - 1
        assert seq.values[n - 1] == abs(q) * Fraction(2) ** (-ord_p(q, 2))
    rep = growth_rate(sys_, N=20)
    assert rep.exact_value == 2
    assert rep.archimedean == 1.0
    assert rep.padic == 2.0
    _report(12, "Z[1/2] with x/2: sequence 2^n - 1 exactly, growth 2 = "
                "(archimedean 1) x (2-adic 2)")

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tdyn import asymptotics, cli, errors, growth, polyalg, zeta
from tdyn.cli import COMMANDS, RunConfig, _build_parser, main
from tdyn.exact_linalg import IntPolynomial, companion_matrix
from tdyn.group_model import system_from_json


def run_capture(argv):
    import contextlib
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_capture(argv + ["--format", "json"])
    assert code == 0, err
    return json.loads(out)


def test_rseq_table_output():
    code, out, err = run_capture(["rseq", "--builtin", "z_times_d:2", "--n", "5"])
    assert code == 0
    assert out.strip() == "1 3 7 15 31"


def test_rseq_infinite_entries():
    code, out, _ = run_capture(["rseq", "--builtin", "z_times_d:1", "--n", "3"])
    assert code == 0
    assert out.strip() == "infinity infinity infinity"


def test_zeta_json():
    doc = run_json(["zeta", "--builtin", "z_pair:2,1"])
    assert doc["zeta"] == {"num": ["1", "-1"], "den": ["1", "-2"]}
    assert doc["roundtrip_verified"] is True


def test_congruence_all_pass():
    doc = run_json(["congruence", "--builtin", "z_times_d:2", "--n", "12"])
    assert doc["all_passed"] is True
    assert len(doc["congruences"]) == 12


def test_congruence_explicit_moduli():
    doc = run_json(["congruence", "--builtin", "z_pair:2,1", "--n", "10",
                    "--moduli", "6"])
    assert doc["congruences"][0]["combination"] == "54"


def test_growth_json():
    doc = run_json(["growth", "--builtin", "z_times_d:3", "--n", "12"])
    assert doc["growth"]["exact"] == "3"
    assert doc["growth"]["numeric"] == pytest.approx(3.0)


def test_entropy_json():
    doc = run_json(["entropy", "--builtin", "torus_matrix:2,1,1,1", "--n", "12"])
    assert doc["identity_gap"] <= 1e-9


@pytest.mark.parametrize("key, sections", [("torus_matrix:2,1,1,1", 1),
                                           ("heisenberg:2,0,0,3", 2)])
def test_entropy_computes_each_section_entropy_once(monkeypatch, key, sections):
    calls = []
    original = growth.entropy_dual_torus

    def counted(A):
        calls.append(A)
        return original(A)
    monkeypatch.setattr(growth, "entropy_dual_torus", counted)
    doc = run_json(["entropy", "--builtin", key, "--n", "12"])
    assert len(calls) == sections
    assert doc["entropy_sum"] == pytest.approx(sum(doc["section_entropies"]))
    assert doc["identity_gap"] <= 1e-9


def test_jordan_commuting_pair_is_tame_but_has_no_certified_pairing(tmp_path):
    # phi and psi commute, but (x - 2)^2 and (x - 3)^2 are not square-free
    path = tmp_path / "jordan.json"
    path.write_text(json.dumps({"name": "jordan", "sections": [
        {"rank": 2, "phi": [["2", "1"], ["0", "2"]],
         "psi": [["3", "1"], ["0", "3"]], "primes": [2]}]}))
    doc = run_json(["tame", "--input", str(path)])
    assert doc["tame"] is True
    assert run_capture(["growth", "--input", str(path)])[0] == 3
    assert run_capture(["padic", "--input", str(path), "--prime", "2"])[0] == 3


def test_a_zero_of_a_pair_that_does_not_commute_needs_no_root_of_unity(tmp_path):
    # det(phi - psi) = 0, but no eigenvalue ratio (about 0.382, 0.127,
    # 2.618, 0.873) is a root of unity: the lemma behind checked_up_to holds
    # for simultaneously triangularizable pairs only, and iterating finds
    # this zero at n = 1
    path = tmp_path / "noncommuting.json"
    path.write_text(json.dumps({"name": "noncommuting", "sections": [
        {"rank": 2, "phi": [["1", "1"], ["1", "2"]], "psi": [["1", "1"], ["0", "3"]]}]}))
    assert run_json(["tame", "--input", str(path)]) == {
        "command": "tame", "tame": False, "witness_n": 1, "witness_section": 1,
        "checked_up_to": 24}
    assert run_json(["rseq", "--input", str(path), "--n", "6"])["sequence"] == [
        "infinity", "1", "16", "165", "1452", "11968"]


def test_classify_json():
    doc = run_json(["classify", "--builtin", "z_times_d:2", "--n", "12"])
    assert doc["classification"]["kind"] == "periodic"
    assert doc["classification"]["period"] == 1
    assert doc["lambda"] == pytest.approx(2.0)


def test_classify_nielsen():
    doc = run_json(["classify", "--builtin", "z_pair:2,-2", "--n", "12",
                    "--nielsen"])
    assert doc["classification"]["period"] == 2


def test_padic_json():
    doc = run_json(["padic", "--builtin", "s_integer:1/2,2", "--prime", "2"])
    assert doc["growth_factor"]["exponent"] == "1"
    assert doc["newton_polygon_phi"] == [{"slope": "1", "length": 1}]


def test_realize_json():
    doc = run_json(["realize", "--builtin", "z_pair:2,1"])
    assert doc["realization"]["A_e"] == [["2"]]
    assert doc["realization"]["A_o"] == [["1"]]
    assert doc["trace_check_passed"] is True


def test_tame_and_validate():
    doc = run_json(["tame", "--builtin", "z_pair:2,-2"])
    assert doc["tame"] is False and doc["witness_n"] == 2
    doc = run_json(["validate", "--builtin", "heisenberg:2,1,1,1"])
    assert doc["ok"] is True


def test_exit_code_non_tame():
    code, _, err = run_capture(["growth", "--builtin", "z_times_d:1"])
    assert code == 2
    assert "tame" in err
    # zeta needs finite values: infinite entries are a tameness failure too
    code, _, _ = run_capture(["zeta", "--builtin", "z_times_d:1"])
    assert code == 2


def test_realize_nielsen_on_non_tame_system():
    doc = run_json(["realize", "--builtin", "torus_matrix:0,-1,1,0",
                    "--nielsen"])
    assert doc["trace_check_passed"] is True
    code, _, _ = run_capture(["realize", "--builtin", "torus_matrix:0,-1,1,0"])
    assert code == 2  # without --nielsen the sequence has infinite entries


def test_exit_code_unsupported_pairing():
    import tempfile, os
    doc = {"name": "nc", "sections": [{
        "rank": 2, "phi": [["1", "1"], ["0", "2"]],
        "psi": [["3", "0"], ["1", "5"]]}]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        code, _, err = run_capture(["growth", "--input", path])
        assert code == 3
    finally:
        os.unlink(path)


def test_exit_code_hypothesis_violation():
    import tempfile, os
    doc = {"name": "equal-moduli", "sections": [{
        "rank": 2, "phi": [["3", "-4"], ["1", "0"]],
        "psi": [["2", "0"], ["0", "2"]]}]}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump(doc, fh)
        path = fh.name
    try:
        code, _, err = run_capture(["growth", "--input", path])
        assert code == 4
    finally:
        os.unlink(path)


def test_growth_names_the_equal_modulus_it_cannot_separate():
    # phi has the roots 3 +- 4i, of modulus 5 = |psi|: the scalar side's
    # violation message, pinned word for word
    path = str(Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
               / "equal_modulus.json")
    assert run_capture(["growth", "--input", path]) == (
        4, "", "error: an eigenvalue modulus of (25, -6, 1) is indistinguishable "
               "from |5|\n")


def test_exit_code_input_errors():
    code, _, _ = run_capture(["rseq", "--builtin", "nope:1"])
    assert code == 1
    code, _, _ = run_capture(["rseq", "--builtin", "z_times_d:2",
                              "--input", "also.json"])
    assert code == 1
    code, _, _ = run_capture(["rseq"])
    assert code == 1
    code, _, _ = run_capture(["nonsense-command"])
    assert code == 1


def test_json_input_file(tmp_path):
    doc = {"name": "file-system", "sections": [
        {"rank": 1, "phi": [["3"]]}]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_capture(["rseq", "--input", str(path), "--n", "3"])
    assert code == 0
    assert out.strip() == "2 8 26"


@pytest.mark.parametrize("sections, names", [
    ([1], "section 1"),
    ([{"rank": "abc", "phi": [["2"]]}], "section 1 rank"),
    ([{"rank": 1.5, "phi": [["2"]]}], "section 1 rank"),
    ([{"rank": 1, "phi": [["2"]], "primes": ["x"]}], "section 1 primes"),
    ([{"rank": 1, "phi": [["2"]], "primes": 2}], "section 1 primes"),
    ([{"rank": 1, "phi": [["2"]], "primes": [True]}], "section 1 primes"),
    ([{"rank": 1, "phi": [2]}], "section 1 phi"),
])
def test_malformed_descriptor_is_an_input_error(tmp_path, sections, names):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"sections": sections}))
    code, out, err = run_capture(["validate", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and names in err


@pytest.mark.parametrize("content", [
    b"\xff\xfe\x00",  # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,  # deeper than the decoder recurses
    b'{"sections": [{"rank": ' + b"1" * 5000 + b', "phi": [["1"]]}]}',
])
def test_undecodable_input_file_is_an_input_error(tmp_path, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run_capture(["validate", "--input", str(path)])
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: bad JSON in {path}: ")


def test_a_large_rank_without_psi_builds_no_identity(tmp_path):
    # psi defaults to the identity of phi's size, so a rank of 10**12 is a
    # size mismatch, not a 10**24-entry identity matrix
    path = tmp_path / "big_rank.json"
    path.write_text(json.dumps({"sections": [{"rank": 10 ** 12, "phi": [["2"]]}]}))
    doc = run_json(["validate", "--input", str(path)])
    expected = f"expected {10 ** 12}x{10 ** 12}"
    assert doc["violations"] == [
        f"size mismatch in section 1: phi is 1x1, {expected}",
        f"size mismatch in section 1: psi is 1x1, {expected}"]
    code, _, err = run_capture(["tame", "--input", str(path)])
    assert code == 1 and "size mismatch" in err


RANK5_TORUS = ("torus_matrix:0,0,0,0,-1,1,0,0,0,1,0,1,0,0,-1,"
               "0,0,1,0,2,0,0,0,1,3")


def test_classify_rank5_torus():
    # bounded only if the |root|^2 candidates isolate real roots alone: the
    # complex roots of the degree-100 product polynomial take minutes
    doc = run_json(["classify", "--builtin", RANK5_TORUS])
    assert doc["count"] == 1
    assert doc["classification"]["kind"] == "periodic"
    lo, hi = (float(Fraction(b)) for b in doc["lambda_bounds"])
    numeric = run_json(["growth", "--builtin", RANK5_TORUS])["growth"]["numeric"]
    slack = numeric * 1e-12  # numeric is a float, the bounds are exact
    assert lo - slack <= numeric <= hi + slack


RANK4_TORUS = "torus_matrix:0,0,0,-1,1,0,0,2,0,1,0,-3,0,0,1,4"


def test_growth_and_entropy_stay_off_sympys_poly_layer(monkeypatch):
    # the characteristic polynomials are irreducible modulo a small prime,
    # square-free modulo one, and rescaled in integers: no Poly is built and
    # neither Zassenhaus, preprocess_roots nor nextprime runs
    import sympy
    import sympy.polys.factortools
    import sympy.polys.polyroots
    calls = []

    def counting(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *a, **k: calls.append(name) or real(*a, **k))
    new = sympy.Poly.__new__
    monkeypatch.setattr(sympy.Poly, "__new__",
                        lambda cls, *a, **k: calls.append("Poly") or new(cls, *a, **k))
    counting(sympy.polys.factortools, "dup_factor_list")
    counting(sympy.polys.polyroots, "preprocess_roots")
    counting(sympy, "nextprime")
    pair = str(Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
               / "commuting_pair.json")
    for source in (["--builtin", "torus_matrix:2,1,1,1"], ["--builtin", RANK4_TORUS],
                   ["--builtin", RANK5_TORUS], ["--input", pair]):
        assert run_capture(["growth", *source])[0] == 0
        # entropy is defined for psi = identity; the pair's is an exit 1
        assert run_capture(["entropy", *source])[0] == (1 if source[0] == "--input" else 0)
    assert calls == []
    # the counters see the routes they guard
    sympy.nextprime(2)
    polyalg.factor_int(IntPolynomial.of([1, 0, 0, 0, 1]))
    sympy.polys.polyroots.preprocess_roots(polyalg.to_sympy(IntPolynomial.of([1, 1])))
    assert calls == ["nextprime", "dup_factor_list", "Poly", "preprocess_roots"]


def _selmer_torus(r):
    """Companion torus of x^r - x - 1 (irreducible, no root of unity)."""
    rows = [[0] * r for _ in range(r)]
    for i in range(1, r):
        rows[i][i - 1] = 1
    rows[0][r - 1] = rows[1][r - 1] = 1
    return "torus_matrix:" + ",".join(str(v) for row in rows for v in row)


def test_tame_rank7_torus():
    # the full range of 420 iterates on integer matrices
    doc = run_json(["tame", "--builtin", _selmer_torus(7)])
    assert doc["tame"] is True and doc["witness_n"] is None
    assert doc["checked_up_to"] == 420


def test_realize_rank6_torus():
    doc = run_json(["realize", "--builtin", _selmer_torus(6)])
    assert doc["trace_check_passed"] is True


def test_json_output_reparses_exactly():
    doc = run_json(["rseq", "--builtin", "z_times_d:2", "--n", "64"])
    values = [int(s) for s in doc["sequence"]]
    assert values == [2 ** n - 1 for n in range(1, 65)]
    zdoc = run_json(["zeta", "--builtin", "z_times_d:2"])
    num = [int(s) for s in zdoc["zeta"]["num"]]
    den = [int(s) for s in zdoc["zeta"]["den"]]
    assert (num, den) == ([1, -1], [1, -2])


_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
                 | st.integers(4301, 4400).flatmap(
                     lambda d: st.sampled_from([10 ** d - 1, 1 - 10 ** d]))
                 # every code point: control characters, non-ASCII text and lone surrogates
                 | st.text(st.characters(blacklist_categories=()), max_size=8))
_json_values = st.recursive(
    _json_scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.lists(st.text(max_size=4), max_size=4)
                      | st.dictionaries(st.text(st.characters(blacklist_categories=()),
                                                max_size=4), children, max_size=4)),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_text_is_json_dumps_with_indent_2(value):
    with cli._full_int_strings():  # ints past the int-to-str digit limit
        assert cli._json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    {"a": [1, Fraction(1, 2)]},  # json.dumps raises on the value too
    {"a": {1: "b"}},  # json.dumps would write the key as "1"
    {("a",): 1},
])
def test_json_text_refuses_other_values_and_keys(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_a_closed_stdout_exits_1_with_nothing_on_stderr(tmp_path):
    # the reader takes one byte of a 218 kB answer and closes the pipe
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(Path(cli.__file__).resolve().parents[1]),
                    os.environ.get("PYTHONPATH")) if p))
    err_path = tmp_path / "stderr"
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "tdyn.cli", "rseq", "--builtin", "torus_matrix:2,1,1,1",
             "--n", "1000", "--format", "json"],
            stdout=subprocess.PIPE, stderr=err, env=env)
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
    assert err_path.read_bytes() == b""


def test_run_config_validation():
    with pytest.raises(Exception):
        RunConfig(command="rseq", n=0)
    with pytest.raises(Exception):
        RunConfig(command="bogus")
    # --precision is gone: certified refinement walks its own precision ladder
    assert run_capture(["rseq", "--builtin", "z_times_d:2",
                        "--precision", "128"])[0] == 1


# the exit codes documented in tdyn.errors and tdyn.cli, one per class
DOCUMENTED_EXIT_CODES = {
    errors.TdynError: 1, errors.InputError: 1, errors.NoRecurrenceError: 1,
    errors.NotSquareFreeError: 1, errors.NonIntegerResidueError: 1,
    errors.NotTameError: 2, errors.RootOfUnityError: 2,
    errors.InfiniteValueError: 2, errors.UnsupportedPairingError: 3,
    errors.PrecisionError: 4, errors.HypothesisViolatedError: 4,
}


def test_every_error_class_carries_its_documented_exit_code():
    classes = {errors.TdynError, *errors.TdynError.__subclasses__()}
    assert classes == set(DOCUMENTED_EXIT_CODES)
    for cls, code in DOCUMENTED_EXIT_CODES.items():
        assert cls.exit_code == code, cls.__name__


@pytest.mark.parametrize("cls", list(DOCUMENTED_EXIT_CODES))
def test_run_returns_the_exit_code_of_the_error_raised(monkeypatch, cls):
    def failing(config, system):
        raise cls("boom")
    monkeypatch.setitem(cli._HANDLERS, "tame", failing)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(RunConfig(command="tame", builtin="z_times_d:2"), out, err)
    assert (code, out.getvalue(), err.getvalue()) == (
        DOCUMENTED_EXIT_CODES[cls], "", "error: boom\n")


def test_main_passes_the_parsed_arguments_as_the_run_config(monkeypatch):
    configs = []
    monkeypatch.setattr(cli, "run", lambda config: configs.append(config) or 0)
    assert main(["congruence", "--builtin", "z_times_d:2", "--moduli", "3", "5"]) == 0
    assert main(["rseq", "--input", "sys.json", "--n", "7"]) == 0
    congruence, rseq = configs
    assert congruence.moduli == (3, 5) and congruence.nielsen is False
    assert rseq == RunConfig(command="rseq", input_path="sys.json", n=7)
    assert (rseq.prime, rseq.section, rseq.moduli, rseq.nielsen) == (None, 1, (), False)
    # a RunConfig error exits with its class's code
    assert run_capture(["rseq", "--builtin", "z_times_d:2", "--n", "0"]) == (
        1, "", "error: --n must be >= 1\n")


def test_padic_builds_each_characteristic_polynomial_once(char_poly_calls):
    doc = run_json(["padic", "--builtin", "torus_matrix:2,1,1,1", "--prime", "2"])
    assert doc["growth_factor"]["exponent"] == "0"
    assert len(char_poly_calls) == 2


def test_padic_of_a_commuting_pair_passes_its_polynomials_to_the_joint_blocks(
        char_poly_calls):
    # the Newton polygons and the joint blocks read the section's one
    # char phi and char psi; the only other char_poly is psi's on the one
    # joint block
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "commuting_pair.json"
    sec = system_from_json(path.read_text()).sections[0]
    doc = run_json(["padic", "--input", str(path), "--prime", "2"])
    assert doc["growth_factor"]["exponent"] == "0"
    assert [m for m in char_poly_calls if m == sec.phi] == [sec.phi]
    assert [m for m in char_poly_calls if m == sec.psi] == [sec.psi]
    assert len(char_poly_calls) == 3


def test_only_validate_runs_on_an_invalid_system():
    from tdyn.group_model import builtin_example, validate
    key = "s_integer:1/2"  # a denominator 2 outside the empty prime support
    problems = validate(builtin_example(key))
    assert problems and run_json(["validate", "--builtin", key])["violations"] == problems
    for command in COMMANDS[1:]:
        argv = [command, "--builtin", key] + (["--prime", "2"] if command == "padic" else [])
        assert run_capture(argv) == (1, "", f"error: {'; '.join(problems)}\n"), command


def test_stdout_stderr_separation():
    code, out, err = run_capture(["growth", "--builtin", "z_times_d:1"])
    assert out == ""
    assert err != ""


def test_zeta_rank7_torus():
    # one term per exterior power W_1 .. W_6, of degree 7, 21, 35, 35, 21
    # and 7, each with exponent +-1; W_0 = W_7 = x - 1 cancel
    doc = run_json(["zeta", "--builtin", _selmer_torus(7)])
    assert doc["window"] == 260
    degrees = [len(t["poly"]) - 1 for t in doc["exponential_sum"]]
    assert degrees == [7, 7, 21, 21, 35, 35]


def test_realize_computes_the_sequence_once(monkeypatch):
    from tdyn import reidemeister
    calls = []
    original = reidemeister.coincidence_sequence

    def counting(system, n):
        calls.append(n)
        return original(system, n)

    monkeypatch.setattr(reidemeister, "coincidence_sequence", counting)
    doc = run_json(["realize", "--builtin", _selmer_torus(3)])
    assert doc["trace_check_up_to"] == 17 and doc["trace_check_passed"] is True
    assert calls == [40]


C6 = ("torus_matrix:0,0,0,0,0,1,1,0,0,0,0,1,0,1,0,0,0,0,0,0,1,0,0,0,0,0,0,1,"
      "0,0,0,0,0,0,1,0")  # companion torus of x^6 - x - 1


def test_growth_on_the_rank_6_torus_is_pinned():
    (term,) = run_json(["growth", "--builtin", C6])["growth"]["closed_form_log_terms"]
    assert term["lo"] == ("134463094821188958423103123357437350621631950499958155285/"
                          "98079714615416886934934209737619787751599303819750539264")
    assert term["hi"] == ("8605638068556093340338565491903937228313708532900170931789/"
                          "6277101735386680763835789423207666416102355444464034512896")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_values_beyond_the_int_str_digit_limit_print_in_full(fmt):
    import sys
    limit = sys.get_int_max_str_digits()
    code, out, err = run_capture(["rseq", "--builtin", "heisenberg:2,1,1,3",
                                  "--n", "3200", "--format", fmt])
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    last = out.split()[-1] if fmt == "table" else json.loads(out)["sequence"][-1]
    assert len(last) > 4300
    sys.set_int_max_str_digits(0)
    try:
        assert str(int(last)) == last
    finally:
        sys.set_int_max_str_digits(limit)


def test_n_above_the_cap_is_an_input_error():
    from tdyn.cli import MAX_N
    assert MAX_N == 10_000
    code, out, err = run_capture(["rseq", "--builtin", "z_times_d:2",
                                  "--n", str(MAX_N + 1)])
    assert code == 1 and out == ""
    assert "10000" in err and "MAX_N" in err
    code, out, _ = run_capture(["rseq", "--builtin", "z_times_d:2", "--n", str(MAX_N)])
    assert code == 0 and len(out.split()) == MAX_N


def test_classify_samples_terms_beyond_the_float_range():
    # R_n of this torus passes 1.8e308 near n = 737
    doc = run_json(["classify", "--builtin", "torus_matrix:2,1,1,1", "--n", "800"])
    assert len(doc["samples"]) == 800
    assert abs(doc["samples"][-1] - 1) < 1e-9


# a plain argv of each command, as the benchmark corpus spells them
PLAIN_ARGVS = [
    ["validate", "--builtin", "z_times_d:2", "--format", "json"],
    ["tame", "--builtin", "z_pair:2,-2"],
    ["rseq", "--builtin", "z_times_d:2", "--n", "5"],
    ["nseq", "--builtin", "z_pair:2,1", "--n=5", "--format=json"],
    ["zeta", "--builtin", "z_pair:2,1", "--format", "json"],
    ["realize", "--nielsen", "--builtin", "z_pair:2,1"],
    ["congruence", "--builtin", "z_times_d:2", "--n", "12", "--moduli", "3", "5"],
    ["growth", "--builtin", "z_times_d:3", "--n", "12"],
    ["entropy", "--builtin", "torus_matrix:2,1,1,1", "--n", "12"],
    ["classify", "--builtin", "z_pair:2,-2", "--nielsen", "--format", "json"],
    ["padic", "--builtin", "s_integer:1/2,2", "--prime", "2", "--section", "1"],
]


def full_parser_capture(monkeypatch, argv):
    """run_capture(argv) with every argv on the full parser."""
    def not_plain(argv):
        raise ValueError("the plain route is off")
    with monkeypatch.context() as m:
        m.setattr(cli, "_plain_fields", not_plain)
        return run_capture(argv)


def test_a_plain_argv_builds_no_parser(monkeypatch):
    assert [argv[0] for argv in PLAIN_ARGVS] == list(COMMANDS)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    _build_parser.cache_clear()
    with monkeypatch.context() as m:
        m.setattr(argparse.ArgumentParser, "__init__", counting)
        plain = [run_capture(argv) for argv in PLAIN_ARGVS]
    assert built == [] and _build_parser.cache_info().misses == 0
    assert all(code == 0 for code, _, _ in plain), plain
    assert plain == [full_parser_capture(monkeypatch, argv) for argv in PLAIN_ARGVS]


def _subparsers(parser):
    (action,) = [a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("name", COMMANDS)
def test_command_parser_help_is_the_full_parsers(name):
    help_ = _subparsers(_build_parser())[name].format_help()
    assert help_.startswith(f"usage: tdyn {name} [-h]")
    assert run_capture([name, "-h"]) == (0, help_, "")


@pytest.mark.parametrize("spellings", [
    [["rseq", "--builtin", "z_times_d:2", "--format", "json"],
     ["rseq", "--builtin", "z_times_d:2", "--form", "json"],
     ["rseq", "--bui", "z_times_d:2", "--format=json"]],
    [["rseq", "--builtin", "z_times_d:2", "--n", "5"],
     ["rseq", "--builtin", "z_times_d:2", "--n", "3", "--n", "5"],
     ["rseq", "--builtin", "z_times_d:2", "--n=5"],
     ["rseq", "--builtin=z_times_d:2", "--n", "05"]],
    [["congruence", "--builtin", "z_pair:2,1", "--moduli", "6", "--nielsen"],
     ["congruence", "--builtin", "z_pair:2,1", "--moduli=6", "--nie"],
     ["congruence", "--builtin", "z_pair:2,1", "--moduli", "4", "--moduli", "6",
      "--nielsen"]],
])
def test_every_spelling_of_a_command_gives_its_output(spellings):
    outputs = [run_capture(argv) for argv in spellings]
    assert outputs[0][0] == 0 and outputs[0][1]
    assert outputs == [outputs[0]] * len(spellings)


# the flags of every command, abbreviations, and values that the plain route
# must refuse or read as argparse reads them
FLAGS = sorted(cli._OPTIONS) + ["--form", "--nie", "--mod", "--b", "--in", "--he"]
VALUES = ["3", "0", "10001", "-3", "x", "", "json", "xml", "table", "--", "-h",
          "z_times_d:2", "=", "a=b", " 7", "+2", "1_0"]


def _likely_values(flag):
    kw = cli._OPTIONS[flag].kw
    if "action" in kw:
        return []
    if "choices" in kw:
        return list(kw["choices"])
    return ["3", "12", " 7", "0"] if "type" in kw else ["z_times_d:2", "", "a=b"]


@st.composite
def argvs(draw):
    """Mostly a command and some of its own flags with fitting values, each
    part replaced by any of FLAGS and VALUES at times."""
    argv = [draw(st.sampled_from(list(COMMANDS) * 4 + ["bogus", "-h"]))]
    own = [f for f, o in cli._OPTIONS.items() if argv[0] in o.commands] or FLAGS
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(own if draw(st.integers(0, 5)) else FLAGS))
        likely = _likely_values(flag) if flag in cli._OPTIONS else []
        values = draw(st.lists(st.sampled_from(VALUES), max_size=2)
                      if not likely or not draw(st.integers(0, 5))
                      else st.lists(st.sampled_from(likely), min_size=1, max_size=1))
        if values and draw(st.integers(0, 3)) == 0:
            argv += [f"{flag}={values[0]}", *values[1:]]
        else:
            argv += [flag, *values]
        if not draw(st.integers(0, 5)):
            argv.append(draw(st.sampled_from(VALUES)))
    return argv


def _config_or_error(fields):
    try:
        return RunConfig(**fields)
    except errors.InputError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(argvs())
def test_the_plain_route_reads_argv_as_the_full_parser_does(argv):
    try:
        fields = cli._plain_fields(argv)
    except ValueError:
        return  # not plain: the full parser alone parses it
    assert (_config_or_error(fields)
            == _config_or_error(vars(_build_parser().parse_args(argv))))


@pytest.mark.parametrize("argv", [
    ["padic", "--builtin", "z_times_d:2"],
    ["rseq", "--builtin", "z_times_d:2", "--n", "x"],
    ["rseq", "--builtin", "z_times_d:2", "--format", "xml"],
    ["rseq", "--builtin", "z_times_d:2", "--bogus"],
    ["padic", "--bogus"],
    ["rseq", "--builtin", "z_times_d:2", "stray"],
    ["congruence", "--builtin", "z_times_d:2", "--moduli"],
    ["tame", "-h"],
    ["rseq", "--he"],
    ["-h"],
    [],
    ["bogus"],
    ["--n", "3", "rseq"],
    ["rseq", "--builtin", "z_times_d:2", "--n=x"],
    ["zeta", "--builtin", "z_times_d:2", "--nielsen=1"],
    ["congruence", "--builtin", "z_times_d:2", "--moduli", "2", "-3"],
    ["rseq", "--builtin=-x"],
    ["rseq", "--builtin", "z_times_d:2", "--n=3", "4"],
])
def test_malformed_argv_gives_the_full_parsers_output(monkeypatch, argv):
    code, out, err = run_capture(argv)
    assert code != 0 or out.startswith("usage: tdyn")
    assert (code, out, err) == full_parser_capture(monkeypatch, argv)


def test_importing_the_cli_builds_no_parser():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = ("import argparse\n"
              "built = []\n"
              "init = argparse.ArgumentParser.__init__\n"
              "def counting(self, *a, **k):\n"
              "    built.append(k.get('prog'))\n"
              "    init(self, *a, **k)\n"
              "argparse.ArgumentParser.__init__ = counting\n"
              "import tdyn.cli\n"
              "print(built)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _counting_routes(monkeypatch):
    """Count the terms each route of power_difference_determinants yields."""
    from tdyn import exact_linalg
    counts = {}

    def counting(name):
        route = getattr(exact_linalg, name)

        def wrapped(*args):
            for value in route(*args):
                counts[name] = counts.get(name, 0) + 1
                yield value
        monkeypatch.setattr(exact_linalg, name, wrapped)

    counting("_exterior_determinants")
    counting("_bareiss_determinants")
    return counts


def test_realize_computes_each_sequence_term_once(monkeypatch):
    # the zeta window of the rank-6 torus has 132 terms and the trace check
    # needs 133: the window comes from the exterior-power streams and the
    # 133rd, one term under the 2^6 guard, from the Bareiss loop alone
    counts = _counting_routes(monkeypatch)
    doc = run_json(["realize", "--builtin", _selmer_torus(6)])
    assert doc["trace_check_up_to"] == 133 and doc["trace_check_passed"] is True
    assert counts == {"_exterior_determinants": 132, "_bareiss_determinants": 1}


def test_route_guard_follows_the_number_of_terms(monkeypatch):
    # 40 terms of a rank-8 torus are fewer than the 2^8 of the streams'
    # total order: Bareiss, and no exterior powers built; the tameness of a
    # rank-7 torus, up to its bound 420, is read off the cyclotomic factors
    # of char phi: no determinant on either route, and one Bareiss
    # elimination in all, det q = det I of the section's commuting form
    from tdyn import exact_linalg
    calls = []
    for name in ("exterior_power_polynomials", "det_exact"):
        original = getattr(exact_linalg, name)
        monkeypatch.setattr(exact_linalg, name, lambda *a, _f=original, _n=name: (
            calls.append((_n, a)), _f(*a))[1])
    counts = _counting_routes(monkeypatch)
    assert len(run_json(["rseq", "--builtin", _selmer_torus(8), "--n", "40"])["sequence"]) == 40
    assert "exterior_power_polynomials" not in dict(calls)
    assert counts == {"_bareiss_determinants": 40}
    calls.clear()
    counts.clear()
    doc = run_json(["tame", "--builtin", _selmer_torus(7)])
    assert doc["tame"] is True and doc["checked_up_to"] == 420
    assert calls == [("det_exact", (exact_linalg.BigIntMatrix.identity(7),))]
    assert counts == {}


@pytest.mark.parametrize("r", [7, 8])
def test_zeta_factors_nothing_above_the_middle_exterior_power(monkeypatch, clear_memos, r):
    # the zeta of the companion torus of x^r - x - 1 is read off the
    # exterior powers of its matrix, the largest of degree C(r, r // 2);
    # the recurrence denominator has degree 126 (r = 7) and 256 (r = 8), and
    # r = 8 once spent 5 s factoring it.  The group of x^r - x - 1 is S_r, so
    # with the certificate no exterior power is factored at all; without it,
    # Zassenhaus sees none above the middle exterior power.
    factor_int = polyalg.factor_int
    degrees = []

    def recording(p):
        degrees.append(p.degree)
        return factor_int(p)

    monkeypatch.setattr(polyalg, "factor_int", recording)
    monkeypatch.setattr(zeta, "factor_int", recording)
    rows = companion_matrix(IntPolynomial.of([-1, -1] + [0] * (r - 2) + [1])).row_lists()
    key = "torus_matrix:" + ",".join(str(x) for row in rows for x in row)
    certified = run_json(["zeta", "--builtin", key])
    assert certified["roundtrip_verified"] is True
    assert degrees == []
    monkeypatch.setattr(zeta, "symmetric_galois_group", lambda cp: False)
    clear_memos()  # the kept zeta would skip the route under test
    assert run_json(["zeta", "--builtin", key]) == certified
    assert degrees and max(degrees) <= comb(r, r // 2)


RANK4_TORUS = "torus_matrix:0,0,0,-1,1,0,0,2,0,1,0,-3,0,0,1,4"


def _recording_factor_int(monkeypatch):
    """The polynomials factor_int is called on, through every module that
    holds a binding of it."""
    factor_int = polyalg.factor_int
    calls = []

    def recording(p):
        calls.append(p)
        return factor_int(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("tdyn") and getattr(module, "factor_int", None) is factor_int:
            monkeypatch.setattr(module, "factor_int", recording)
    return calls


def test_classify_rank4_factors_nothing(monkeypatch):
    # the product polynomials are split by square-free parts on a coprime
    # base, and no ratio polynomial is needed: the dominant root is real
    calls = _recording_factor_int(monkeypatch)
    doc = run_json(["classify", "--builtin", RANK4_TORUS])
    assert calls == []
    assert doc["count"] == 1
    assert doc["classification"]["kind"] == "periodic"


def test_classify_of_x6_minus_x_minus_1_factors_nothing(monkeypatch):
    # the wedge-3 term has a product polynomial of degree 400, whose
    # factorization took 175 s; its square-free parts have degrees 20, 90,
    # 30 and 1, with exponents 1, 2, 6 and 20
    calls = _recording_factor_int(monkeypatch)
    doc = run_json(["classify", "--builtin", _selmer_torus(6)])
    assert calls == []
    assert doc["count"] == 1
    assert doc["classification"]["kind"] == "periodic"
    assert doc["classification"]["period"] == 1


@pytest.mark.parametrize("source, tied", [
    (["--builtin", RANK4_TORUS], False),
    (["--builtin", _selmer_torus(6)], False),
    (["--input", str(Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
                     / "equal_modulus.json")], True),
])
def test_classify_builds_product_polynomials_only_for_a_tied_top(monkeypatch, source, tied):
    # the top |root|^2 of both tori is one real root that separates from every
    # other root's; equal_modulus's 25 ties with the pair 5(3 +- 4i), so its
    # terms go through their product polynomials and the coprime base
    calls = []
    original = asymptotics.product_polynomial

    def counting(v):
        calls.append(v)
        return original(v)
    monkeypatch.setattr(asymptotics, "product_polynomial", counting)
    run_json(["classify", *source])
    if tied:
        assert calls
    else:
        assert calls == []


@pytest.mark.parametrize("command", ["zeta", "realize", "classify"])
def test_a_torus_builds_its_exterior_powers_once(command):
    # the sequence window and the zeta both read them
    from tdyn.exact_linalg import exterior_power_polynomials
    exterior_power_polynomials.cache_clear()
    run_json([command, "--builtin", RANK4_TORUS])
    info = exterior_power_polynomials.cache_info()
    assert (info.misses, info.hits) == (1, 1)


@pytest.mark.parametrize("command", ["growth", "entropy", "classify"])
@pytest.mark.parametrize("key", ["torus_matrix:1,-2,1,1", RANK4_TORUS])
def test_spectral_commands_build_no_crootof_order(monkeypatch, command, key):
    # a root's CRootOf index is found only when read, and these outputs read
    # none that sympy must factor the polynomial for
    import traceback
    import sympy
    original = sympy.Poly.factor_list
    callers = []

    def recording(self, *args, **kwargs):
        callers.append([f.filename for f in traceback.extract_stack()])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sympy.Poly, "factor_list", recording)
    run_json([command, "--builtin", key])
    assert not [c for c in callers if any(f.endswith("enclosures.py") for f in c)]


def test_entropy_factors_the_characteristic_polynomial_twice(monkeypatch):
    # once for growth's log terms and once for the dual-torus entropy; the
    # cyclotomic test divides instead of factoring it a third time
    calls = _recording_factor_int(monkeypatch)
    run_json(["entropy", "--builtin", RANK4_TORUS])
    assert len(calls) == 2
    assert calls[0] == calls[1] == IntPolynomial.of([1, -2, 3, -4, 1])


def _scalar(c, d):
    return [[c if i == j else "0" for j in range(d)] for i in range(d)]


# systems with rational sections of rank 2 and 3 beyond the benchmark's one
# of rank 1: a commuting non-scalar pair (psi = 2 phi + I), a scalar psi, a
# scalar phi, and two sections
RATIONAL_SYSTEMS = [
    [{"rank": 2, "phi": [["1/2", "3"], ["0", "5/4"]], "psi": [["2", "6"], ["0", "7/2"]],
      "primes": [2, 3]}],
    [{"rank": 3, "phi": [["0", "0", "1/3"], ["1", "0", "-2"], ["0", "1", "5/3"]],
      "psi": _scalar("2/3", 3), "primes": [2, 3]}],
    [{"rank": 2, "phi": _scalar("5/2", 2), "psi": [["1", "1/2"], ["2", "3"]],
      "primes": [2]}],
    [{"rank": 2, "phi": [["7/2", "1"], ["1", "1"]], "primes": [2]},
     {"rank": 1, "phi": [["5/2"]], "psi": [["1/3"]], "primes": [2, 3]}],
]
NO_RECURRENCE = "error: no recurrence of admissible order fits the 40-term window\n"

# (exit code, md5 prefix of the JSON stdout, stderr) of each command on each
# system above
RATIONAL_PINS = {
    "growth": [(0, "ff96796b", ""), (0, "dc51ff53", ""), (0, "bce21bd2", ""),
               (0, "6052c421", "")],
    "padic --prime 2": [(0, "f4e26a2d", ""), (0, "eb1d6173", ""), (0, "18c31a95", ""),
                        (0, "2e031be5", "")],
    "padic --prime 3": [(0, "a995aab2", ""), (0, "1c50a296", ""), (0, "a995aab2", ""),
                        (0, "a995aab2", "")],
    "classify": [(1, "d41d8cd9", NO_RECURRENCE), (1, "d41d8cd9", NO_RECURRENCE),
                 (0, "7d1765fc", ""), (1, "d41d8cd9", NO_RECURRENCE)],
    "tame": [(0, "c5591a71", ""), (0, "e2b1b32c", ""), (0, "c5591a71", ""),
             (0, "c5591a71", "")],
    "rseq --n 12": [(0, "0a78ba79", ""), (0, "3330ae1f", ""), (0, "5b921953", ""),
                    (0, "b3569568", "")],
}


@pytest.mark.parametrize("command", list(RATIONAL_PINS))
@pytest.mark.parametrize("index", range(len(RATIONAL_SYSTEMS)))
def test_rational_sections_are_pinned(tmp_path, command, index):
    path = tmp_path / "rational.json"
    path.write_text(json.dumps({"sections": RATIONAL_SYSTEMS[index]}))
    code, out, err = run_capture(command.split() + ["--input", str(path),
                                                    "--format", "json"])
    assert (code, hashlib.md5(out.encode()).hexdigest()[:8], err) == \
        RATIONAL_PINS[command][index]


_TEN_TO_400 = "1" + "0" * 400
_M1279 = str(2 ** 1279 - 1)  # a Mersenne prime


@pytest.mark.parametrize("argv", [
    ["growth", "--builtin", f"z_times_d:{_TEN_TO_400}"],
    ["growth", "--builtin", f"torus_matrix:0,1,1,{_TEN_TO_400}"],
    ["growth", "--builtin", f"s_integer:1/{_M1279},{_M1279}"],
    ["entropy", "--builtin", f"z_times_d:{_TEN_TO_400}"],
    ["classify", "--builtin", f"z_times_d:{_TEN_TO_400}"],
    ["padic", "--builtin", f"s_integer:1/{_M1279},{_M1279}", "--prime", _M1279],
], ids=["growth-exact", "growth-interval", "growth-padic", "entropy", "classify",
        "padic"])
def test_a_value_past_the_double_range_is_an_input_error(argv):
    code, out, err = run_capture(argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "past the double range" in err
    assert "Traceback" not in err
    if argv[0] == "entropy":  # the field of the entropy output, not of growth's
        assert err == "error: identity_gap is past the double range\n"


def test_a_zero_padic_exponent_is_one_at_any_prime():
    doc = run_json(["padic", "--builtin", "z_pair:3,2", "--prime", _M1279])
    assert doc["growth_factor"] == {"prime": 2 ** 1279 - 1, "exponent": "0", "value": 1.0}


@pytest.mark.parametrize("argv, err", [
    (["padic", "--builtin", "torus_matrix:2,1,1,1", "--prime", "1"],
     "error: 1 is not prime\n"),
    (["padic", "--builtin", "torus_matrix:2,1,1,1", "--prime", "-3"],
     "error: -3 is not prime\n"),
    (["rseq", "--builtin", "s_integer:3/2,4"],
     "error: 4 in prime support of section 1 is not prime; denominator 2 outside "
     "prime support in section 1 (phi)\n"),
])
def test_primality_errors_keep_their_messages_and_exit_codes(argv, err):
    # padic and validate share polyalg.is_prime; the denominator outside the
    # support is reduced by perfect_power on that error path only
    assert run_capture(argv) == (1, "", err)

"""Results kept between commands of one process, against fresh state.

``coincidence_sequence`` keeps the last system's longest sequence,
``tameness_check`` and ``growth_rate`` their last result, and the CLI its
last zeta payload, each keyed by the system's value, and its last loaded
system, keyed by the catalog key or the descriptor's text.  The oracle for
every command of a session is the same command run with every memo cleared.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tdyn import cli, exact_linalg, group_model, growth, reidemeister
from tdyn.cli import COMMANDS, main
from tdyn.errors import InputError, NotTameError

RANK4_TORUS = "torus_matrix:0,0,0,-1,1,0,0,2,0,1,0,-3,0,0,1,4"
SEQUENCE_COMMANDS = ("rseq", "nseq", "congruence", "growth")
NIELSEN_COMMANDS = ("zeta", "realize", "congruence", "classify")


def run_capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _argv(command, source, n=None, nielsen=False, prime=2):
    argv = [command, *source, "--format", "json"]
    if n is not None:
        argv += ["--n", str(n)]
    if nielsen and command in NIELSEN_COMMANDS:
        argv.append("--nielsen")
    if command == "padic":
        argv += ["--prime", str(prime)]
    return argv


def _against_fresh_state(argvs, clear_memos):
    """Run argvs in one process, then each again with every memo cleared;
    the two runs of each argv must print the same and exit the same.
    Returns the exit codes."""
    session = [run_capture(argv) for argv in argvs]
    for argv, kept in zip(argvs, session):
        clear_memos()
        assert run_capture(argv) == kept, argv
    return {code for code, _, _ in session}


def _write_system(directory, name, sections):
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": name, "sections": [
            {"rank": len(phi), "phi": [[str(x) for x in row] for row in phi],
             "psi": [[str(x) for x in row] for row in psi]}
            for phi, psi in sections]}, fh)
    return ("--input", path)


# ------------------------------------------------------------- property

_entries = st.integers(-3, 3)
_matrix2 = st.lists(_entries, min_size=4, max_size=4)
_S_INTEGERS = ("3/2,2", "1/2,2", "2/3,3", "5/6,2,3", "-4/3,3")


@st.composite
def systems(draw):
    """(kind, payload) of a small system: 2x2 tori, Heisenberg, z_pair,
    s_integer, or a commuting pair psi = a phi + b I given as JSON."""
    kind = draw(st.sampled_from(("torus", "heisenberg", "z_pair", "s_integer",
                                 "commuting")))
    if kind in ("torus", "heisenberg"):
        key = f"{'torus_matrix' if kind == 'torus' else 'heisenberg'}:"
        return kind, key + ",".join(map(str, draw(_matrix2)))
    if kind == "z_pair":
        return kind, f"z_pair:{draw(st.integers(-4, 4))},{draw(st.integers(-4, 4))}"
    if kind == "s_integer":
        return kind, "s_integer:" + draw(st.sampled_from(_S_INTEGERS))
    a, b, c, d = draw(_matrix2)
    s, t = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    return kind, ([[a, b], [c, d]], [[s * a + t, s * b], [s * c, s * d + t]])


@st.composite
def sessions(draw):
    """(command, n, nielsen) steps: three sequence commands first, at a
    length, a longer one (the kept sequence continued) and a shorter one
    (its prefix), then any commands in any order."""
    base = draw(st.integers(2, 30))
    ns = [base, base + draw(st.integers(1, 20)), draw(st.integers(1, base - 1))]
    head = [(draw(st.sampled_from(SEQUENCE_COMMANDS)), n, draw(st.booleans()))
            for n in ns]
    tail = draw(st.lists(st.tuples(st.sampled_from(COMMANDS), st.integers(1, 50),
                                   st.booleans()), min_size=1, max_size=6))
    return head + tail


# the fixture is the function that clears the memos, the same for every example
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(systems(), sessions())
def test_a_session_prints_what_fresh_state_prints(clear_memos, system, steps):
    kind, payload = system
    with tempfile.TemporaryDirectory() as tmp:
        source = (_write_system(tmp, "commuting", [payload]) if kind == "commuting"
                  else ("--builtin", payload))
        clear_memos()
        _against_fresh_state([_argv(command, source, n, nielsen)
                              for command, n, nielsen in steps], clear_memos)


# ------------------------------------------------------------- fixed sessions

# the fixed systems of the benchmark's session_warm workload and one of its
# seeded non-real rank-2 tori, with the prime each passes to padic; the last
# three, and a torus beside a section with no commuting form, whose zeta
# folds a Berlekamp-Massey part, are given as JSON descriptors
_FIXED_KEYS = ("z_times_d:2", "torus_matrix:2,1,1,1", "torus_matrix:1,-2,1,1",
               RANK4_TORUS, "heisenberg:2,1,1,3", "heisenberg:2,1,1,1",
               "z_pair:2,-2", "s_integer:3/2,2", "torus_matrix:0,-4,1,-2")
_FIXED_FILES = {
    "commuting_pair": ([([[2, 1], [1, 1]], [[1, 1], [1, 0]])], 2),
    "noncommuting_pair": ([([[2, 1], [1, 1]], [[1, 2], [0, 1]])], 2),
    "equal_modulus": ([([[0, -25], [1, 6]], [[5, 0], [0, 5]])], 5),
    "beside_both_singular": ([([[2, 1], [1, 1]], [[1, 0], [0, 1]]),
                              ([[1, 0], [0, 0]], [[0, 0], [0, 1]])], 2),
}


def _fixed_sources(tmp_path):
    sources = [(("--builtin", key), 2) for key in _FIXED_KEYS]
    for name, (sections, prime) in _FIXED_FILES.items():
        sources.append((_write_system(str(tmp_path), name, sections), prime))
    return sources


def test_fixed_sessions_in_either_order_print_what_fresh_state_prints(tmp_path,
                                                                     clear_memos):
    codes = set()
    for source, prime in _fixed_sources(tmp_path):
        for order in (COMMANDS, COMMANDS[::-1]):
            argvs = [_argv(command, source, prime=prime) for command in order]
            codes |= _against_fresh_state(argvs, clear_memos)
    assert codes == {0, 1, 2, 3, 4}  # the typed errors are in the sessions too


def test_zeta_keeps_the_system_sequence_beside_a_section_sequence(tmp_path):
    # the fold reads the form-less section's own sequence over the window,
    # and the kept sequence is still the whole system's
    source = _write_system(str(tmp_path), "beside_both_singular",
                           _FIXED_FILES["beside_both_singular"][0])
    assert run_capture(_argv("zeta", source))[0] == 0
    with open(source[1], encoding="utf-8") as fh:
        system = group_model.system_from_json(json.load(fh))
    kept, seq = reidemeister._last_sequence
    assert kept == system and len(seq) == cli._window_length(system, 40)
    assert seq == reidemeister.extend_sequence(
        system, reidemeister.ReidemeisterSequence((), "reidemeister"), len(seq))


# ------------------------------------------------------------- reuse and bounds

def test_a_session_computes_each_shared_result_once(monkeypatch):
    computed = []
    original = reidemeister.power_difference_determinants

    def recording(phi, psi, form, start, last):
        computed.extend(range(start, last + 1))
        return original(phi, psi, form, start, last)

    monkeypatch.setattr(reidemeister, "power_difference_determinants", recording)
    for command in COMMANDS:
        code, _, err = run_capture(_argv(command, ("--builtin", RANK4_TORUS)))
        assert code == 0, (command, err)
    for memo in (group_model.tameness_check, growth.growth_rate, cli._zeta_of):
        info = memo.cache_info()
        assert info.misses == 1 and info.hits >= 1, (memo, info)
    # one section: each term of the sequence, n = 1..40 and past, once
    assert sorted(computed) == list(range(1, max(computed) + 1))
    assert max(computed) >= 40


def test_each_memo_holds_one_system():
    keys = ("z_times_d:2", "torus_matrix:2,1,1,1", "heisenberg:2,1,1,3")
    for key in keys:
        for command in ("tame", "zeta", "growth", "rseq"):
            assert run_capture(_argv(command, ("--builtin", key)))[0] == 0
    for memo in (group_model.tameness_check, growth.growth_rate, cli._zeta_of,
                 exact_linalg.exterior_power_polynomials, cli._system_of):
        assert memo.cache_info().currsize <= 1, memo
    kept, seq = reidemeister._last_sequence
    assert kept == group_model.builtin_example(keys[-1]) and len(seq) == 40


def test_an_error_is_not_kept():
    # a system that fails validation raises on every call, and the memo
    # keeps the last system that succeeded
    valid = group_model.builtin_example("z_times_d:2")
    invalid = group_model.builtin_example("s_integer:1/2")
    reidemeister.coincidence_sequence(valid, 5)
    for _ in range(2):
        with pytest.raises(InputError):
            reidemeister.coincidence_sequence(invalid, 5)
        with pytest.raises(InputError):
            group_model.tameness_check(invalid)
        with pytest.raises(NotTameError):
            growth.growth_rate(group_model.builtin_example("z_times_d:1"))
    assert reidemeister._last_sequence[0] == valid
    assert group_model.tameness_check.cache_info().currsize == 1  # z_times_d:1's
    assert reidemeister.coincidence_sequence(valid, 3).values == (1, 3, 7)


# the session's char_poly calls: the torus's form (char phi, psi = I), its
# char_polys (phi and psi) and entropy's own char phi; the commuting pair's
# form, char_polys, growth's psi on its one joint block and padic's
@pytest.mark.parametrize("source, char_polys", [
    (("--builtin", RANK4_TORUS), 4),
    (("--input", os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                              "inputs", "commuting_pair.json")), 5),
], ids=["rank4_torus", "commuting_pair"])
def test_a_session_loads_its_system_once(monkeypatch, char_poly_calls, source,
                                         char_polys):
    forms = []
    original = group_model.commuting_form

    def recording(phi, psi):
        forms.append((phi, psi))
        return original(phi, psi)

    monkeypatch.setattr(group_model, "commuting_form", recording)
    for command in COMMANDS:
        assert run_capture(_argv(command, source))[0] in (0, 1), command
    info = cli._system_of.cache_info()
    assert (info.misses, info.hits) == (1, len(COMMANDS) - 1)
    system = cli._load_system(cli._parse(_argv("rseq", source)))
    assert forms == [(sec.phi, sec.psi) for sec in system.sections]
    assert len(char_poly_calls) == char_polys


def test_a_rewritten_descriptor_is_read_again(tmp_path, clear_memos):
    identity = [[1, 0], [0, 1]]
    source = _write_system(str(tmp_path), "rewritten", [([[2, 1], [1, 1]], identity)])
    argv = _argv("rseq", source, n=6)
    first = run_capture(argv)
    _write_system(str(tmp_path), "rewritten", [([[3, 1], [1, 1]], identity)])
    second = run_capture(argv)
    clear_memos()
    assert run_capture(argv) == second != first


def test_an_undecodable_descriptor_in_a_session_is_an_input_error(tmp_path):
    # the file at one path: a system, then bad UTF-8, then bad JSON, then the
    # system again; each error names the path, and none is kept
    source = _write_system(str(tmp_path), "changing", [([[2, 1], [1, 1]], [[1, 0], [0, 1]])])
    path = source[1]
    with open(path, "rb") as fh:
        good = fh.read()
    argv = _argv("rseq", source, n=6)
    kept = run_capture(argv)
    for content in (b"\xff\xfe\x00", good[:-1]):
        with open(path, "wb") as fh:
            fh.write(content)
        code, out, err = run_capture(argv)
        assert (code, out) == (1, "") and err.startswith(f"error: bad JSON in {path}: ")
    with open(path, "wb") as fh:
        fh.write(good)
    assert run_capture(argv) == kept
    assert cli._system_of.cache_info().currsize == 1

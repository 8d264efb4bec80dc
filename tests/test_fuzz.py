"""Fuzzing the two doors of tdyn (ROADMAP aim 3): a JSON descriptor ends in a
system or an InputError, and every argv ends in a documented exit code,
never a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from tdyn.cli import COMMANDS, main
from tdyn.errors import InputError
from tdyn.group_model import NilpotentSystem, system_from_json, validate

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=20)

# descriptor-shaped documents whose fields are arbitrary, so that parsing
# gets past the top-level shape checks
entries = st.one_of(st.integers(-9, 9).map(str),
                    st.sampled_from(["1/2", "-3/4", "x", "1/0"]), json_values)
matrices = st.one_of(st.lists(st.lists(entries, max_size=3), max_size=3), json_values)
primes = st.lists(st.integers() | st.sampled_from(["2", "x"]), max_size=3)
fields = st.fixed_dictionaries({}, optional={
    "rank": st.integers() | json_values, "phi": matrices, "psi": matrices,
    "primes": primes | json_values})
sections = st.lists(fields | json_values, max_size=3)
descriptors = st.fixed_dictionaries({"sections": sections},
                                    optional={"name": json_values}) | json_values


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(descriptors, st.booleans())
def test_system_from_json_returns_a_system_or_raises_input_error(doc, as_text):
    try:
        system = system_from_json(json.dumps(doc) if as_text else doc)
    except InputError:
        return
    assert isinstance(system, NilpotentSystem)
    assert all(isinstance(v, str) for v in validate(system))


# mostly integers, so that most argvs reach a command
tokens = st.sampled_from([str(k) for k in range(-9, 10)] * 3 + ["1/2", "-3/2", "5/3"])
malformed = st.sampled_from(["", "x", "1/0", "--", "2,"])


@st.composite
def catalog_keys(draw):
    """A catalog key of rank <= 3; one in five has a malformed token."""
    name, size = draw(st.sampled_from([
        ("z_times_d", 1), ("z_pair", 2), ("torus_matrix", 1), ("torus_matrix", 4),
        ("torus_matrix", 9), ("heisenberg", 4), ("s_integer", 1), ("nope", 1)]))
    args = draw(st.lists(tokens, min_size=size, max_size=size))
    if name == "s_integer":
        args += draw(st.lists(st.sampled_from(["2", "3", "4"]), max_size=2))
    if draw(st.integers(0, 4)) == 0:
        args[draw(st.integers(0, len(args) - 1))] = draw(malformed)
    return f"{name}:" + ",".join(args)


def _flag(draw, accepted: bool) -> bool:
    """Usually a flag the command takes, and now and then one it rejects."""
    return draw(st.sampled_from([accepted] * 7 + [not accepted]))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(COMMANDS))
    argv = [command, "--builtin", draw(catalog_keys()),
            "--n", str(draw(st.integers(1, 12))),
            "--format", draw(st.sampled_from(["table", "json"]))]
    if _flag(draw, command in ("zeta", "realize", "congruence", "classify")):
        argv.append("--nielsen")
    if _flag(draw, command == "padic"):
        argv += ["--prime", draw(st.sampled_from(["2", "3", "5", "4", "0"]))]
    if _flag(draw, command == "padic"):
        argv += ["--section", draw(st.sampled_from(["1", "2", "3", "0"]))]
    return argv


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_main_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code != 0:
        assert err.getvalue().startswith(("error: ", "usage: ")), (argv, err.getvalue())

"""Command-line front end.

Results go to stdout, diagnostics to stderr.  Exit codes are stable: 0
success, 1 an argument error, otherwise the ``exit_code`` that the class of
the TdynError raised carries (tdyn.errors: 1 input error, 2 non-tame input
where tameness is required, 3 unsupported p-adic pairing, 4 numeric
indeterminacy at the precision ceiling); a reader that closes stdout early
gets exit 1 and nothing on stderr.  All big integers are serialized as
decimal strings in JSON output, in full: Python's limit on int-to-str
digits is lifted while a command builds and prints its result.  The JSON
output is json.dumps(indent=2) byte for byte.

A process keeps the last system it loaded, keyed by the catalog key or by
the descriptor's text, so the commands of a session on one system share
one object and its sections' cached results.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _quoted
from typing import Optional

from . import asymptotics, congruence, growth, reidemeister, zeta
from .errors import InputError, TdynError
from .group_model import (
    NilpotentSystem,
    builtin_example,
    system_from_json,
    tameness_check,
    validate,
)
from .padic import newton_polygon, padic_growth_factor, zeta_scale
from .reidemeister import ReidemeisterSequence, is_infinite

# the commands, in the order --help lists them, with their help lines
_COMMAND_HELP = {
    "validate": "check the system descriptor invariants",
    "tame": "decide finiteness of all iterated coincidence numbers",
    "rseq": "Reidemeister coincidence number sequence",
    "nseq": "Nielsen coincidence number sequence",
    "zeta": "rational zeta function and exponential sum",
    "realize": "bouquet trace realization matrices A_e, A_o",
    "congruence": "Gauss congruence reports",
    "growth": "closed-form and empirical growth rate",
    "entropy": "dual-torus entropies and the growth identity gap",
    "classify": "dominant spectrum and limit-point trichotomy",
    "padic": "Newton polygon and p-adic growth factor of a section",
}
COMMANDS = tuple(_COMMAND_HELP)

# largest --n accepted: 25 times the longest sequence of the benchmark corpus
MAX_N = 10_000


@dataclass
class RunConfig:
    command: str
    builtin: Optional[str] = None
    input_path: Optional[str] = None
    n: int = 40
    output_format: str = "table"
    prime: Optional[int] = None
    section: int = 1
    moduli: tuple = ()
    nielsen: bool = False

    def __post_init__(self):
        self.moduli = tuple(self.moduli)
        if self.command not in COMMANDS:
            raise InputError(f"unknown command {self.command!r}")
        if self.n < 1:
            raise InputError("--n must be >= 1")
        if self.n > MAX_N:
            raise InputError(f"--n must be <= {MAX_N} (the cap MAX_N on the "
                             "sequence length)")
        if self.output_format not in ("table", "json"):
            raise InputError("--format must be table or json")


def _load_system(config: RunConfig) -> NilpotentSystem:
    if (config.builtin is None) == (config.input_path is None):
        raise InputError("give exactly one of --builtin KEY or --input FILE")
    if config.builtin is not None:
        return _system_of(config.builtin, None)
    try:
        with open(config.input_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {config.input_path}: {exc}") from exc
    except ValueError as exc:  # bad UTF-8
        raise InputError(f"bad JSON in {config.input_path}: {exc}") from exc
    try:
        return _system_of(None, text)
    except (ValueError, RecursionError) as exc:
        # also too long an integer literal and too deep nesting
        raise InputError(f"bad JSON in {config.input_path}: {exc}") from exc


@lru_cache(maxsize=1)
def _system_of(builtin: Optional[str], text: Optional[str]) -> NilpotentSystem:
    """The system of a catalog key, or of a descriptor's text (not its path,
    so a rewritten file is read again); the last one is kept, so that the
    commands of a session share one object and each section's cached form
    and characteristic polynomials."""
    if builtin is not None:
        return builtin_example(builtin)
    return system_from_json(json.loads(text))


def _window_length(system: NilpotentSystem, n: int) -> int:
    """The zeta's window: at least n terms, and 2 * prod 2^rank + 4, twice
    the recurrence order bound of a system whose every section has a
    commuting form (a product of its sections' 2^d exterior-power terms),
    plus a margin.  A section's own Berlekamp-Massey runs on it too, which
    does not pin every rank-d pair without a form: order up to C(2d, d)."""
    order_bound = 1
    for sec in system.sections:
        order_bound *= 2 ** sec.rank
    return max(n, 2 * order_bound + 4)


def _seq_of(nielsen: bool, system: NilpotentSystem, length: int):
    if nielsen:
        return reidemeister.nielsen_sequence(system, length)
    return reidemeister.coincidence_sequence(system, length)


def _value_str(v) -> str:
    return "infinity" if is_infinite(v) else str(v)


def _poly_strs(p) -> list:
    return [str(c) for c in p.coeffs]


def _zeta_payload(config: RunConfig, system: NilpotentSystem):
    """_zeta_of the config's sequence window."""
    return _zeta_of(config.nielsen, system, _window_length(system, config.n))


@lru_cache(maxsize=1)
def _zeta_of(nielsen: bool, system: NilpotentSystem, window: int):
    """The sequence window and its zeta, which raises unless the zeta
    reproduces the whole window; the last one is kept for zeta, realize and
    classify: the fold (zeta.exterior_zeta) of a triple per section with a
    zeta scale (padic.zeta_scale), and of its own window per other section,
    the system's if it is the only one."""
    seq = _seq_of(nielsen, system, window)

    def part(sec):
        scale = sec.form and zeta_scale(sec.form, sec.prime_support)
        if scale:
            return sec.form[0], sec.form[1], scale
        if len(system.sections) == 1:
            return seq
        return reidemeister.extend_sequence(NilpotentSystem(system.name, (sec,)),
                                            ReidemeisterSequence((), seq.kind), window)

    return (seq, *zeta.exterior_zeta(map(part, system.sections), seq))


# ---------------------------------------------------------------- commands

def _cmd_validate(config, system):
    problems = validate(system)
    return {"ok": not problems, "violations": problems}


def _cmd_tame(config, system):
    v = tameness_check(system)
    return {"tame": v.tame, "witness_n": v.witness_n,
            "witness_section": v.witness_section,
            "checked_up_to": v.checked_up_to}


def _cmd_sequence(config, system):
    """rseq and nseq: the Reidemeister or the Nielsen coincidence sequence."""
    seq = _seq_of(config.command == "nseq", system, config.n)
    return {"sequence": [_value_str(v) for v in seq.values]}


def _cmd_zeta(config, system):
    seq, rf, es = _zeta_payload(config, system)
    return {
        "window": len(seq.values),
        "zeta": {"num": _poly_strs(rf.numerator), "den": _poly_strs(rf.denominator)},
        "exponential_sum": [{"poly": _poly_strs(p), "chi": str(chi)}
                            for p, chi in es.terms],
        "roundtrip_verified": True,
    }


def _cmd_realize(config, system):
    seq, rf, es = _zeta_payload(config, system)
    br = zeta.realize_bouquet(es)
    check_n = 2 * (br.a_even.rows + br.a_odd.rows) + 5
    if check_n > len(seq.values):
        seq = _seq_of(config.nielsen, system, check_n)
    ok = br.lefschetz_values(check_n) == list(seq.values[:check_n])
    return {
        "realization": {"A_e": br.a_even.str_rows(),
                        "A_o": br.a_odd.str_rows()},
        "n_spheres": br.n_spheres,
        "n_circles": br.n_circles,
        "trace_check_up_to": check_n,
        "trace_check_passed": ok,
    }


def _cmd_congruence(config, system):
    seq = _seq_of(config.nielsen, system, config.n)
    moduli = config.moduli or tuple(range(1, config.n + 1))
    reports = [{"n": rep.n, "combination": str(rep.combination),
                "residue": str(rep.residue), "passed": rep.passed}
               for rep in congruence.gauss_checks(seq, moduli)]
    return {"congruences": reports, "all_passed": all(r["passed"] for r in reports)}


def _growth_terms_payload(terms):
    out = []
    for t in terms:
        if isinstance(t, growth.RationalLog):
            out.append({"kind": "rational", "value": str(t.value)})
        elif isinstance(t, growth.AlgebraicLog):
            out.append({"kind": "algebraic", "lo": str(t.lo), "hi": str(t.hi),
                        "note": t.note})
        else:
            out.append({"kind": "padic", "prime": t.prime,
                        "exponent": str(t.exponent)})
    return out


def _cmd_growth(config, system):
    rep = growth.growth_rate(system, N=config.n)
    return {
        "growth": {
            "closed_form_log_terms": _growth_terms_payload(rep.log_terms),
            "numeric": rep.numeric,
            "exact": None if rep.exact_value is None else str(rep.exact_value),
            "archimedean": rep.archimedean,
            "padic": rep.padic,
            "empirical": list(rep.empirical),
            "agreement": rep.agreement,
        }
    }


def _cmd_entropy(config, system):
    entropies, gap = growth.entropy_identity(system, N=config.n)
    return {"section_entropies": entropies, "entropy_sum": sum(entropies),
            "identity_gap": gap, "hypotheses_note":
            "expansiveness and specification of the dual maps are assumed"}


def _cmd_classify(config, system):
    seq, rf, es = _zeta_payload(config, system)
    ds = asymptotics.dominant_spectrum(es)
    cls = asymptotics.classify_limit_points(ds)
    samples = asymptotics.limit_points_sample(seq, ds, min(config.n, len(seq.values)))
    return {
        "lambda": ds.lam,
        "lambda_bounds": [str(ds.lam_bounds[0]), str(ds.lam_bounds[1])],
        "count": ds.count,
        "dominant_terms": [{"poly": _poly_strs(t.poly), "chi": str(t.chi),
                            "dominant_roots": list(t.root_indices)}
                           for t in ds.dominant_terms],
        "classification": {"kind": cls.kind, "period": cls.period,
                           "detail": cls.detail},
        "samples": samples,
    }


def _cmd_padic(config, system):
    if config.prime is None:
        raise InputError("padic needs --prime P")
    k = config.section
    if not (1 <= k <= len(system.sections)):
        raise InputError(f"--section must be in 1..{len(system.sections)}")
    sec = system.sections[k - 1]
    out = {"section": k, "prime": config.prime}
    for label, f in zip(("phi", "psi"), sec.char_polys):
        np_ = newton_polygon(f, config.prime)
        out[f"newton_polygon_{label}"] = [
            {"slope": str(s), "length": length} for s, length in np_.segments]
    pf = padic_growth_factor(sec, config.prime)
    out["growth_factor"] = {"prime": pf.prime, "exponent": str(pf.exponent),
                            "value": pf.value}
    return out


_HANDLERS = {
    "validate": _cmd_validate,
    "tame": _cmd_tame,
    "rseq": _cmd_sequence,
    "nseq": _cmd_sequence,
    "zeta": _cmd_zeta,
    "realize": _cmd_realize,
    "congruence": _cmd_congruence,
    "growth": _cmd_growth,
    "entropy": _cmd_entropy,
    "classify": _cmd_classify,
    "padic": _cmd_padic,
}


# ---------------------------------------------------------------- rendering

def _render_table(command: str, result: dict, out) -> None:
    if command in ("rseq", "nseq"):
        print(" ".join(result["sequence"]), file=out)
        return
    if command == "zeta":
        print("numerator:  " + " ".join(result["zeta"]["num"]), file=out)
        print("denominator: " + " ".join(result["zeta"]["den"]), file=out)
        for term in result["exponential_sum"]:
            print(f"term: chi={term['chi']} poly={' '.join(term['poly'])}", file=out)
        print(f"roundtrip_verified: {result['roundtrip_verified']}", file=out)
        return
    if command == "congruence":
        for rep in result["congruences"]:
            status = "passed" if rep["passed"] else "FAILED"
            print(f"n={rep['n']} combination={rep['combination']} "
                  f"residue={rep['residue']} {status}", file=out)
        print(f"all_passed: {result['all_passed']}", file=out)
        return
    _render_generic(result, out)


def _render_generic(result, out, indent=0) -> None:
    pad = "  " * indent
    for key, value in result.items():
        if isinstance(value, dict):
            print(f"{pad}{key}:", file=out)
            _render_generic(value, out, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:", file=out)
            for item in value:
                _render_generic(item, out, indent + 1)
                print(f"{pad}  -", file=out)
        else:
            print(f"{pad}{key}: {value}", file=out)


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2), byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool, None and float; TypeError for any other
    value or key.  json.dumps takes its pure-Python encoder whenever indent
    is set; here every string goes through json's C string encoder, and a
    list of strings is quoted in one comprehension."""
    if isinstance(value, str):
        return _quoted(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            items = [_quoted(v) for v in value]
        except TypeError:  # not all strings
            items = [_json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quoted raises TypeError for a key that is not a str
        items = [_quoted(k) + ": " + _json_text(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@contextmanager
def _full_int_strings():
    """Lift Python's int-to-str digit limit, restoring the caller's on exit."""
    if not hasattr(sys, "get_int_max_str_digits"):  # Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def run(config: RunConfig, out=None, err=None) -> int:
    """Execute one command; returns the process exit code.  Every command
    but validate runs on a system that validates."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        system = _load_system(config)
        with _full_int_strings():
            if config.command != "validate" and (problems := validate(system)):
                raise InputError("; ".join(problems))
            result = _HANDLERS[config.command](config, system)
    except TdynError as exc:
        print(f"error: {exc}", file=err)
        return exc.exit_code
    with _full_int_strings():
        if config.output_format == "json":
            out.write(_json_text({"command": config.command, **result}))
            print(file=out)
        else:
            _render_table(config.command, result, out)
    return 0


# every command's options, in the order -h lists them, each with the
# keywords argparse adds it with, which the plain route reads too
_Option = namedtuple("_Option", "flag dest commands default help kw",
                     defaults=(None, None, {}))
_OPTIONS = {o.flag: o for o in (
    _Option("--builtin", "builtin", COMMANDS, None, "catalog key, e.g. z_times_d:2, "
            "z_pair:2,1, torus_matrix:2,1,1,1, heisenberg:2,1,1,1, s_integer:1/2,2"),
    _Option("--input", "input_path", COMMANDS, None, "path to a JSON system descriptor"),
    _Option("--n", "n", COMMANDS, 40, "sequence length / congruence range (default 40)",
            {"type": int}),
    _Option("--format", "output_format", COMMANDS, "table",
            kw={"choices": ("table", "json")}),
    _Option("--nielsen", "nielsen", ("zeta", "realize", "congruence", "classify"), False,
            "use the Nielsen sequence (zeros at infinite Reidemeister numbers)",
            {"action": "store_true"}),
    _Option("--moduli", "moduli", ("congruence",), (), "explicit moduli (default 1..N)",
            {"type": int, "nargs": "+"}),
    _Option("--prime", "prime", ("padic",), kw={"type": int, "required": True}),
    _Option("--section", "section", ("padic",), 1, kw={"type": int}),
)}


@lru_cache(maxsize=None)
def _build_parser():
    """The full argument parser, built at most once per process (parse_args
    leaves a parser unchanged)."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="tdyn",
        description="Exact Reidemeister/Nielsen coincidence sequences, zeta "
                    "functions, congruences and growth rates for endomorphism "
                    "pairs given on the abelian sections of a torsion-free "
                    "nilpotent group.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=_COMMAND_HELP[name])
        for o in _OPTIONS.values():
            if name in o.commands:
                p.add_argument(o.flag, dest=o.dest, default=o.default, help=o.help, **o.kw)
    return parser


def _option_value(kw: dict, values: list):
    """The value argparse stores for an option added with keywords kw given
    these strings; ValueError where it stores none."""
    if kw.get("nargs") == "+" and values:
        return [kw["type"](v) for v in values]
    if kw.get("action") == "store_true" and not values:
        return True
    (value,) = values  # exactly one, else ValueError
    value = kw.get("type", str)(value)
    if "nargs" in kw or "action" in kw or value not in kw.get("choices", (value,)):
        raise ValueError(value)
    return value


def _plain_fields(argv: list) -> dict:
    """The RunConfig fields of a plain argv, read off _OPTIONS; ValueError
    for any other argv.  Plain: a command, then its exact flags, each once,
    as --flag value or --flag=value, with no value starting with "-", values
    that argparse takes, and the required flags; argparse gives the same."""
    if not argv or argv[0] not in COMMANDS:
        raise ValueError("no command first")
    options = [o for o in _OPTIONS.values() if argv[0] in o.commands]
    fields = {"command": argv[0], **{o.dest: o.default for o in options}}
    seen, i = set(), 1
    while i < len(argv):
        flag, eq, value = argv[i].partition("=")
        opt, j = _OPTIONS.get(flag), i + 1
        while j < len(argv) and not argv[j].startswith("-"):
            j += 1
        if (opt not in options or flag in seen
                or (eq and (j > i + 1 or value.startswith("-")))):
            raise ValueError(argv[i])
        seen.add(flag)
        fields[opt.dest] = _option_value(opt.kw, [value] if eq else argv[i + 1:j])
        i = j
    if any(o.kw.get("required") and o.flag not in seen for o in options):
        raise ValueError("a required flag is missing")
    return fields


def _parse(argv: list) -> RunConfig:
    """The run config of argv; the full parser takes any argv not plain."""
    try:
        fields = _plain_fields(argv)
    except ValueError:
        fields = vars(_build_parser().parse_args(argv))
    return RunConfig(**fields)  # every option's dest is a RunConfig field


def main(argv=None) -> int:
    try:
        config = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on bad flags; remap to the documented input-error code
        return 0 if exc.code == 0 else 1
    except TdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    try:
        code = run(config)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader closed stdout: exit 1 quietly, and point fd 1 at devnull
        # so that Python's flush at exit does not raise again
        with suppress(AttributeError, ValueError, OSError):  # no real file descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())

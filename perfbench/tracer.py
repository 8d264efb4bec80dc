"""Spans and counters around the public functions of every tdyn layer, from
outside ``src/``.

``Tracer.install`` wraps each function listed in ``Tracer._targets``.  tdyn modules
bind names with ``from .x import f``, so a function is replaced in every
``tdyn`` module whose attribute *is* the original; methods are replaced on
their class.  The sympy boundary is wrapped too, but only calls made from
outside sympy are recorded (sympy's own nested calls pass straight through).

Each wrapper records a span (name, start, end, parent span) and updates the
counters read from arguments and return values.  Spans stay in memory; the
worker sends them to the harness with the op's result.
"""

from __future__ import annotations

import sys
import time
from fractions import Fraction

import sympy
from sympy.polys.rootoftools import ComplexRootOf

# (metric, unit, how it is aggregated over the ops of a pass); BENCHMARK.json
# lists the same names under "per_layer"
METRICS = [
    ("enclosures.poly_root_enclosures.calls", "count", "calls"),
    ("enclosures.poly_root_enclosures.busy_s", "s", "busy"),
    ("enclosures.poly_root_enclosures.roots", "count", "sum"),
    ("enclosures.poly_root_enclosures.max_degree", "degree", "max"),
    ("enclosures.RootEnclosure.box.calls", "count", "calls"),
    ("enclosures.RootEnclosure.box.busy_s", "s", "busy"),
    ("enclosures.RootEnclosure.box.max_bits", "bits", "max"),
    ("enclosures.decide_order.calls", "count", "calls"),
    ("enclosures.decide_order.busy_s", "s", "busy"),
    ("enclosures.decide_order.max_bits", "bits", "max"),
    ("enclosures.decide_order.precision_errors", "count", "sum"),
    ("enclosures.real_part_sign.calls", "count", "calls"),
    ("enclosures.real_part_sign.max_bits", "bits", "max"),
    ("enclosures.roots_used_ratio", "ratio", "ratio"),
    ("polyalg.factor_int.calls", "count", "calls"),
    ("polyalg.factor_int.busy_s", "s", "busy"),
    ("polyalg.factor_int.max_degree", "degree", "max"),
    ("polyalg.product_polynomial.busy_s", "s", "busy"),
    ("polyalg.product_polynomial.max_degree", "degree", "max"),
    ("polyalg.ratio_polynomial.busy_s", "s", "busy"),
    ("polyalg.ratio_polynomial.max_degree", "degree", "max"),
    ("polyalg.cyclotomic_factors.busy_s", "s", "busy"),
    ("polyalg.cyclotomic_order.calls", "count", "calls"),
    ("asymptotics.dominant_spectrum.busy_s", "s", "busy"),
    ("asymptotics.dominant_spectrum.self_s", "s", "self"),
    ("asymptotics.classify_limit_points.busy_s", "s", "busy"),
    ("growth.growth_rate.calls", "count", "calls"),
    ("growth.growth_rate.busy_s", "s", "busy"),
    ("growth.growth_rate.self_s", "s", "self"),
    ("growth.entropy_dual_torus.calls", "count", "calls"),
    ("growth.entropy_dual_torus.busy_s", "s", "busy"),
    ("growth.verify_entropy_identity.busy_s", "s", "busy"),
    ("group_model.tameness_check.calls", "count", "calls"),
    ("group_model.tameness_check.busy_s", "s", "busy"),
    ("group_model.tameness_check.iterates", "count", "sum"),
    ("group_model.validate.calls", "count", "calls"),
    ("exact_linalg.RatMatrix.mul.calls", "count", "calls"),
    ("exact_linalg.RatMatrix.mul.busy_s", "s", "busy"),
    ("exact_linalg.BigIntMatrix.mul.calls", "count", "calls"),
    ("exact_linalg.BigIntMatrix.mul.busy_s", "s", "busy"),
    ("exact_linalg.det_rat.calls", "count", "calls"),
    ("exact_linalg.det_rat.busy_s", "s", "busy"),
    ("exact_linalg.det_rat.max_bits", "bits", "max"),
    ("exact_linalg.char_poly.calls", "count", "calls"),
    ("exact_linalg.char_poly.busy_s", "s", "busy"),
    ("exact_linalg.rat_solve.busy_s", "s", "busy"),
    ("exact_linalg.rat_kernel_basis.busy_s", "s", "busy"),
    ("reidemeister.coincidence_sequence.calls", "count", "calls"),
    ("reidemeister.coincidence_sequence.busy_s", "s", "busy"),
    ("reidemeister.coincidence_sequence.terms", "count", "sum"),
    ("reidemeister.coincidence_sequence.max_value_bits", "bits", "max"),
    ("zeta.berlekamp_massey.busy_s", "s", "busy"),
    ("zeta.berlekamp_massey.window", "count", "max"),
    ("zeta.residue_exponents.busy_s", "s", "busy"),
    ("zeta.expand.calls", "count", "calls"),
    ("zeta.expand.busy_s", "s", "busy"),
    ("zeta.recurrence_order", "count", "max"),
    ("zeta.BouquetRealization.lefschetz_values.busy_s", "s", "busy"),
    ("congruence.gauss_check.calls", "count", "calls"),
    ("congruence.gauss_check.busy_s", "s", "busy"),
    ("padic.padic_growth_factor.calls", "count", "calls"),
    ("padic.padic_growth_factor.busy_s", "s", "busy"),
    ("padic.newton_polygon.calls", "count", "calls"),
    ("cli.run.self_s", "s", "self"),
    ("sympy.factor_list.calls", "count", "calls"),
    ("sympy.factor_list.busy_s", "s", "busy"),
    ("sympy.resultant.busy_s", "s", "busy"),
    ("sympy.root_isolation.busy_s", "s", "busy"),
    ("sympy.eval_rational.calls", "count", "calls"),
    ("sympy.eval_rational.busy_s", "s", "busy"),
]


def _span_name(metric: str) -> str:
    """Span a metric is read from: the metric name minus its last part."""
    return metric.rsplit(".", 1)[0]


def _bits(q) -> int:
    q = Fraction(q)
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self._child = []       # time covered by direct children, per span
        self._stack = []
        self._depth = {}
        self._in_sympy = 0
        self.calls = {}
        self.busy = {}
        self.self_time = {}
        self.counters = {}
        self._isolated = {}    # id -> RootEnclosure made by poly_root_enclosures
        self._boxed = set()

    # ------------------------------------------------------------ recording

    def _add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name, fn, pre=None, post=None, sympy_boundary=False):
        clock = time.perf_counter
        spans, child, stack, depth = self.spans, self._child, self._stack, self._depth

        def wrapper(*args, **kwargs):
            if sympy_boundary and self._in_sympy:
                return fn(*args, **kwargs)
            if pre is not None:
                args = pre(args)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, clock(), 0.0, parent])
            child.append(0.0)
            stack.append(idx)
            depth[name] = depth.get(name, 0) + 1
            if sympy_boundary:
                self._in_sympy += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == "PrecisionError":
                    self._add(name + ".precision_errors", 1)
                raise
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                if sympy_boundary:
                    self._in_sympy -= 1
                span = spans[idx]
                span[2] = end
                dur = end - span[1]
                self.calls[name] = self.calls.get(name, 0) + 1
                if depth[name] == 0:
                    self.busy[name] = self.busy.get(name, 0.0) + dur
                self.self_time[name] = self.self_time.get(name, 0.0) + dur - child[idx]
                if parent >= 0:
                    child[parent] += dur
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ------------------------------------------------------------ hooks

    def _bits_recorder(self, key):
        def pre(args):
            def recorded(fn):
                def call(bits):
                    self._max(key, bits)
                    return fn(bits)
                return call
            return tuple(recorded(a) if callable(a) else a for a in args)
        return pre

    def _targets(self):
        """(tdyn module, qualified attribute, pre hook, post hook); the span
        is named ``module.attribute``."""
        T = []

        def add(module, attr, pre=None, post=None):
            T.append((module, attr, pre, post))

        add("cli", "run")
        add("group_model", "validate")
        add("group_model", "tameness_check",
            post=lambda a, r: self._add("group_model.tameness_check.iterates",
                                        r.checked_up_to))

        def seq_post(a, r):
            self._add("reidemeister.coincidence_sequence.terms", len(r.values))
            for v in r.values:
                if isinstance(v, int):
                    self._max("reidemeister.coincidence_sequence.max_value_bits",
                              abs(v).bit_length())
        add("reidemeister", "coincidence_sequence", post=seq_post)
        add("exact_linalg", "RatMatrix.mul")
        add("exact_linalg", "BigIntMatrix.mul")
        add("exact_linalg", "det_rat",
            post=lambda a, r: self._max("exact_linalg.det_rat.max_bits", _bits(r)))
        add("exact_linalg", "char_poly")
        add("exact_linalg", "rat_solve")
        add("exact_linalg", "rat_kernel_basis")

        def bm_post(a, r):
            self._max("zeta.berlekamp_massey.window", len(a[0]))
            self._max("zeta.recurrence_order", len(r) - 1)
        add("zeta", "berlekamp_massey", post=bm_post)
        add("zeta", "residue_exponents")
        add("zeta", "expand")
        add("zeta", "BouquetRealization.lefschetz_values")
        add("congruence", "gauss_check")
        add("padic", "padic_growth_factor")
        add("padic", "newton_polygon")
        add("polyalg", "factor_int",
            post=lambda a, r: self._max("polyalg.factor_int.max_degree", a[0].degree))
        add("polyalg", "product_polynomial",
            post=lambda a, r: self._max("polyalg.product_polynomial.max_degree",
                                        r.degree))
        add("polyalg", "ratio_polynomial",
            post=lambda a, r: self._max("polyalg.ratio_polynomial.max_degree",
                                        r.degree))
        add("polyalg", "cyclotomic_factors")
        add("polyalg", "cyclotomic_order")
        add("asymptotics", "dominant_spectrum")
        add("asymptotics", "classify_limit_points")
        add("growth", "growth_rate")
        add("growth", "entropy_dual_torus")
        add("growth", "verify_entropy_identity")

        def isolated(a, r):
            self._max("enclosures.poly_root_enclosures.max_degree", a[0].degree)
            self._add("enclosures.poly_root_enclosures.roots", len(r))
            for e in r:
                self._isolated[id(e)] = e

        def boxed(args):
            self._max("enclosures.RootEnclosure.box.max_bits", args[1])
            self._boxed.add(id(args[0]))
            return args
        add("enclosures", "poly_root_enclosures", post=isolated)
        add("enclosures", "RootEnclosure.box", pre=boxed)
        add("enclosures", "decide_order",
            pre=self._bits_recorder("enclosures.decide_order.max_bits"))
        add("enclosures", "real_part_sign",
            pre=self._bits_recorder("enclosures.real_part_sign.max_bits"))
        return T

    # ------------------------------------------------------------ install

    def install(self) -> None:
        tdyn_modules = [m for n, m in list(sys.modules.items())
                        if m is not None and (n == "tdyn" or n.startswith("tdyn."))]
        for module, attr, pre, post in self._targets():
            owner = sys.modules["tdyn." + module]
            span = f"{module}.{attr}"
            cls_name, _, fn_name = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, fn_name, self.wrap(span, cls.__dict__[fn_name], pre, post))
                continue
            orig = getattr(owner, fn_name)
            wrapped = self.wrap(span, orig, pre, post)
            for mod in tdyn_modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        # the sympy boundary
        for cls, fn_name, span in ((sympy.Poly, "factor_list", "sympy.factor_list"),
                                   (sympy.Poly, "all_roots", "sympy.root_isolation"),
                                   (sympy.Poly, "real_roots", "sympy.root_isolation"),
                                   (ComplexRootOf, "eval_rational", "sympy.eval_rational")):
            setattr(cls, fn_name, self.wrap(span, cls.__dict__[fn_name],
                                            sympy_boundary=True))
        sympy.resultant = self.wrap("sympy.resultant", sympy.resultant,
                                    sympy_boundary=True)
        sympy.CRootOf = self.wrap("sympy.root_isolation", sympy.CRootOf,
                                  sympy_boundary=True)

    # ------------------------------------------------------------ report

    def report(self) -> dict:
        counters = dict(self.counters)
        counters["enclosures.isolated_roots"] = len(self._isolated)
        counters["enclosures.boxed_roots"] = len(self._boxed & set(self._isolated))
        return {"calls": self.calls, "busy": self.busy, "self": self.self_time,
                "counters": counters, "spans": self.spans}


def aggregate(reports, passes: int) -> dict:
    """Per-layer metrics of one pass from ``passes`` passes of op reports,
    given as (report, speed) pairs; times are scaled by the op's speed
    factor (see speed.py)."""
    calls, busy, self_t, sums, maxes = {}, {}, {}, {}, {}
    for rep, factor in reports:
        for k, v in rep["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for src, dst in ((rep["busy"], busy), (rep["self"], self_t)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0.0) + v * factor
        for k, v in rep["counters"].items():
            sums[k] = sums.get(k, 0) + v
            maxes[k] = max(maxes.get(k, 0), v)
    out = {}
    for metric, unit, kind in METRICS:
        span = _span_name(metric)
        if kind == "calls":
            value = calls.get(span, 0) / passes
        elif kind == "busy":
            value = busy.get(span, 0.0) / passes
        elif kind == "self":
            value = self_t.get(span, 0.0) / passes
        elif kind == "sum":
            value = sums.get(metric, 0) / passes
        elif kind == "max":
            value = maxes.get(metric, 0)
        else:  # roots ever boxed / roots isolated
            iso = sums.get("enclosures.isolated_roots", 0)
            value = sums.get("enclosures.boxed_roots", 0) / iso if iso else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out

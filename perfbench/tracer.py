"""Per-layer tracing of qhecke from outside the package.

``install(out_dir)`` wraps the public functions of each qhecke module
(and the module caches' accessors) with timing wrappers.  Every wrapper
keeps calls, inclusive and self time; kernel wrappers add operation
counts computed from their input lengths, and cache accessors compare the
cache entry before and after the call to count hits, misses and build
time.  Aggregates stay in memory and are written to ``<out_dir>/<pid>.json``
whenever a top-level ``run_case`` returns, so pool workers forked after
``install`` report too.

A name listed here that the package no longer has makes ``install`` raise:
a traced run fails loudly rather than reporting zeros.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

PKG = "qhecke"

# module -> public names to wrap ("Class.method" wraps a method)
TARGETS = {
    "kernels": ["conv_trunc", "inv_unit", "mul_linear", "div_linear"],
    "rings": ["ZPoly.eval"],
    "series": ["QSeries.__mul__", "QSeries.__add__", "QSeries.invert",
               "QSeries.mul_one_minus", "QSeries.div_one_minus", "QSeries.eval_z",
               "QSeries.sift", "QSeries.dissect", "etaq", "etaq_inv",
               "eta_quotient", "pochhammer"],
    "classnum": ["hurwitz12_table", "_h12_upto", "genfun_F", "genfun_H"],
    "mock": ["eulerian", "F4_series", "F8_series", "hecke_rogers", "appell_rhs",
             "humbert_series", "c_sum"],
    "theta": ["appell_m", "jtheta", "theta_sum_scaled", "f_abc", "g_abc", "theta_1_4"],
    "jets": ["jet_theta", "jet_appell", "jet_of_termsum"],
    "combinat": ["list_P", "list_Q", "P_series", "Q_series"],
    "verify": ["run_case", "_compare"],
}

# (cache name, module, wrapped accessor, cache attribute, entry key from args);
# a key of None means the attribute itself is the cached value
CACHES = [
    ("eta", "series", "etaq", "_eta_cache", lambda a: a[0]),
    ("eta_inv", "series", "etaq_inv", "_eta_inv_cache", lambda a: a[0]),
    ("hurwitz_table", "classnum", "_h12_upto", "_table_cache", None),
    ("eulerian", "mock", "eulerian", "_euler_cache", lambda a: a[0]),
    ("fz", "mock", "F4_series", "_fz_cache", lambda a: "F4"),
    ("fz", "mock", "F8_series", "_fz_cache", lambda a: "F8"),
]

KERNELS = ("conv_trunc", "inv_unit", "mul_linear", "div_linear")


def _conv_ops(a, b, keep):
    """Pairs (i, j) the dense convolution loop visits, and how many are nonzero."""
    la, lb = len(a), len(b)
    n = min(keep, la + lb - 1) if la and lb else 0
    if n <= 0:
        return 0, 0
    m = min(la, n)
    full = max(0, min(m, n - lb + 1))  # rows that see all of b
    ops = full * lb + (m - full) * n - (m - 1 + full) * (m - full) // 2
    prefix = [0]
    for c in b:
        prefix.append(prefix[-1] + (1 if c else 0))
    nnz = 0
    for i in range(m):
        if a[i]:
            nnz += prefix[min(lb, n - i)]
    return ops, nnz


def _kernel_shape(name, args):
    """(max input length, inner-loop count, nonzero pairs, sample coefficient)."""
    if name == "conv_trunc":
        a, b, keep = args
        ops, nnz = _conv_ops(a, b, keep)
        return max(len(a), len(b)), ops, nnz, next((c for c in a if c), 0)
    if name == "inv_unit":
        g, keep, one = args
        k, lim = keep - 1, len(g) - 1
        t = max(0, min(k, lim))
        ops = t * (t + 1) // 2 + max(0, k - t) * max(lim, 0)
        return keep, ops, 0, one
    f, c, d = args
    return len(f), max(0, len(f) - d), 0, next((x for x in f if x), c)


def _bits(x):
    """Bit size of an exact coefficient (int, Fraction, Gaussian, ZPoly)."""
    if isinstance(x, int):
        return x.bit_length()
    if hasattr(x, "numerator"):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    if hasattr(x, "re"):
        return max(_bits(x.re), _bits(x.im))
    if hasattr(x, "c"):
        return max((_bits(v) for v in x.c.values()), default=0)
    return 0


class Tracer:
    """Aggregates for one process; see the module docstring."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.stack = []            # [name, start, child inclusive time]
        self.fn = {}               # name -> {calls, total_s, self_s}
        self.kern = {k: {"max_len": 0, "elem_ops": 0, "nnz": 0} for k in KERNELS}
        self.ring_s = {}           # coefficient type -> kernel seconds
        self.cache = {c[0]: {"hits": 0, "misses": 0, "build_s": 0.0} for c in CACHES}
        self.mode_build_s = {}     # registry mode -> seconds outside _compare
        self.items = {}            # combinat name -> items produced
        self.max_limit = 0
        self.max_coeff_bits = 0
        self.compare_s = 0.0

    # -- recording -------------------------------------------------------

    def _enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0])

    def _exit(self, name):
        _, start, child = self.stack.pop()
        dur = time.perf_counter() - start
        agg = self.fn.get(name)
        if agg is None:
            agg = self.fn[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def wrap(self, name, func, after=None, cache=None):
        """Timing wrapper.

        ``after(args, result, dur)`` adds counters; ``cache`` is a
        (record, snapshot) pair: the call is a hit when ``snapshot(args)``
        returns the same object before and after it.
        """
        tr = self

        def wrapper(*args, **kwargs):
            before = cache[1](args) if cache else None
            tr._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                dur = tr._exit(name)
            if cache:
                rec = cache[0]
                if cache[1](args) is before:
                    rec["hits"] += 1
                else:
                    rec["misses"] += 1
                    rec["build_s"] += dur
            if after:
                after(args, result, dur)
            return result

        return wrapper

    # -- per-layer counters ---------------------------------------------

    def _after_kernel(self, kname):
        rec = self.kern[kname]

        def after(args, result, dur):
            length, ops, nnz, sample = _kernel_shape(kname, args)
            rec["max_len"] = max(rec["max_len"], length)
            rec["elem_ops"] += ops
            rec["nnz"] += nnz
            kind = type(sample).__name__
            self.ring_s[kind] = self.ring_s.get(kind, 0.0) + dur
        return after

    def _after_items(self, name):
        def after(args, result, dur):
            if isinstance(result, list):
                n = len(result)
            else:
                n = sum(result.coeffs)
            self.items[name] = self.items.get(name, 0) + n
        return after

    def _after_table(self, args, result, dur):
        self.max_limit = max(self.max_limit, args[0])

    def _after_compare(self, args, result, dur):
        self.compare_s += dur
        for s in args[:2]:
            for c in s.coeffs:
                b = _bits(c)
                if b > self.max_coeff_bits:
                    self.max_coeff_bits = b

    def run_case_wrapper(self, func):
        tr = self

        def run_case(case, *args, **kwargs):
            cmp0 = tr.compare_s
            tr._enter("verify.run_case")
            try:
                return func(case, *args, **kwargs)
            finally:
                dur = tr._exit("verify.run_case")
                tr.mode_build_s[case.mode] = (tr.mode_build_s.get(case.mode, 0.0)
                                              + dur - (tr.compare_s - cmp0))
                if not tr.stack:
                    tr.dump()

        return run_case

    # -- output ------------------------------------------------------------

    def snapshot(self):
        return {"fn": self.fn, "kern": self.kern, "ring_s": self.ring_s,
                "cache": self.cache, "mode_build_s": self.mode_build_s,
                "items": self.items, "max_limit": self.max_limit,
                "max_coeff_bits": self.max_coeff_bits}

    def dump(self):
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(path + ".tmp", path)


def _resolve(mod, dotted):
    owner, _, attr = dotted.rpartition(".")
    holder = getattr(mod, owner) if owner else mod
    if attr not in vars(holder):
        raise AttributeError(f"{mod.__name__}.{dotted} is gone; update perfbench/tracer.py")
    return holder, attr, vars(holder)[attr]


def _snapshot(mod, attr, key):
    if key is None:
        return lambda args: getattr(mod, attr)
    return lambda args: getattr(mod, attr).get(key(args))


def install(out_dir):
    """Wrap every target in the imported qhecke package; returns the Tracer."""
    tr = Tracer(out_dir)
    mods = {m: importlib.import_module(f"{PKG}.{m}") for m in TARGETS}
    cache_of = {}
    for cname, m, func, attr, key in CACHES:
        if not hasattr(mods[m], attr):
            raise AttributeError(f"{PKG}.{m}.{attr} is gone; update perfbench/tracer.py")
        cache_of[(m, func)] = (tr.cache[cname], _snapshot(mods[m], attr, key))
    replaced = {}
    for m, names in TARGETS.items():
        for dotted in names:
            holder, attr, orig = _resolve(mods[m], dotted)
            name = f"{m}.{dotted}"
            if name == "verify.run_case":
                new = tr.run_case_wrapper(orig)
            else:
                after = None
                if m == "kernels":
                    after = tr._after_kernel(dotted)
                elif m == "combinat":
                    after = tr._after_items(name)
                elif name == "classnum.hurwitz12_table":
                    after = tr._after_table
                elif name == "verify._compare":
                    after = tr._after_compare
                new = tr.wrap(name, orig, after, cache_of.get((m, dotted)))
            setattr(holder, attr, new)
            replaced[id(orig)] = (orig, new)
    # rebind names other modules imported with "from .x import y"
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PKG or modname.startswith(PKG + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tr

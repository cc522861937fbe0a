"""Span tracer for the traced benchmark run.

`install` wraps the public qflab functions named in LAYERS in every qflab
module namespace (and module-level list) that binds them, so calls made
through any import path are seen.  Each call records one span
``[name, start, end, parent, work]`` in memory; the child process writes
the list out when its operation ends.  `summarize` turns a span list into
per-layer counts and times, with self time = span duration minus the
durations of its direct child spans.

Nothing in qflab's own source is touched: the wrappers live here and are
installed into the already-imported modules of one child process.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

VERIFY_CHECKS = (
    "check_table_rows", "check_gap_constant", "check_density_identity",
    "check_poisson_grid", "check_error_scaling", "check_class_numbers",
    "check_transform", "check_sieve_soundness", "check_gap_scan",
    "check_gaussian_family",
)

LAYERS = {
    "fourier": ("h_l1_norm", "eval_h", "greedy_search"),
    "quadrature": ("quad_segments",),
    "latticesums": ("congruence_sum_exact", "poisson_identity_check"),
    "sieve": ("sieve_upper_bound", "represented_mask", "sieved_sum_exact",
              "prime_gap_scan"),
    "arith": ("prime_mask", "residue_density", "dirichlet_l1"),
    "forms": ("enumerate_reduced_forms",),
    "cli": ("parse_invocation", "execute_plan", "main"),
    "verify": VERIFY_CHECKS,
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _lattice_rows(f, x) -> int:
    """Rows v in [-vmax, vmax] of the (2au + bv)^2 + Dv^2 <= 4aX ellipse."""
    X = math.floor(x)
    return 2 * math.isqrt(4 * f.a * X // f.D) + 1 if X >= 1 else 0


# --- work probes: before(args, kwargs) -> (args, kwargs, work) ---------------

def _h_key(args, kwargs):
    return args, kwargs, {"key": [float(c) for c in _arg(args, kwargs, 0, "coeffs")]}


def _eval_points(args, kwargs):
    return args, kwargs, {"points": int(np.size(_arg(args, kwargs, 1, "x")))}


def _congruence_rows(args, kwargs):
    f, x = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 2, "x")
    return args, kwargs, {"rows": _lattice_rows(f, x)}


def _mask_rows(args, kwargs):
    f, x = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "x")
    return args, kwargs, {"rows": _lattice_rows(f, x)}


def _mask_numbers(args, kwargs):
    return args, kwargs, {"numbers": max(int(_arg(args, kwargs, 0, "x")) + 1, 0)}


def _count_integrand(args, kwargs):
    """Replace the integrand with one that counts its calls and points."""
    work = {"integrand_calls": 0, "integrand_points": 0}
    f = _arg(args, kwargs, 0, "f")

    def counted(x):
        work["integrand_calls"] += 1
        work["integrand_points"] += int(np.size(x))
        return f(x)

    if args:
        args = (counted,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, f=counted)
    return args, kwargs, work


BEFORE = {
    "fourier.h_l1_norm": _h_key,
    "fourier.eval_h": _eval_points,
    "quadrature.quad_segments": _count_integrand,
    "latticesums.congruence_sum_exact": _congruence_rows,
    "sieve.represented_mask": _mask_rows,
    "arith.prime_mask": _mask_numbers,
}

# --- work probes: after(result) -> work -------------------------------------

AFTER = {
    "fourier.greedy_search": lambda res: {"evaluations": int(res.evaluations)},
    "sieve.prime_gap_scan": lambda res: {"records": len(res[1])},
}


class Tracer:
    """In-memory span list for one process; spans are plain lists so they
    serialize to JSON as ``[name, start, end, parent, work]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = BEFORE.get(name), AFTER.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if before is not None:
                args, kwargs, span[4] = before(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                span[4] = after(result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Wrap every LAYERS function wherever a qflab module binds it."""
    for mod_name, names in LAYERS.items():
        home = importlib.import_module(f"qflab.{mod_name}")
        for fname in names:
            orig = getattr(home, fname)
            wrapped = tracer.wrap(f"{mod_name}.{fname}", orig)
            for mod in [m for k, m in sys.modules.items()
                        if k == "qflab" or k.startswith("qflab.")]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                    elif isinstance(value, list) and any(v is orig for v in value):
                        value[:] = [wrapped if v is orig else v for v in value]


def summarize(spans) -> tuple[Counter, Counter, dict]:
    """Counts, times (seconds) and h_l1_norm call durations of one span list.

    Counts are ``<name>.calls``, each work key as ``<name>.<key>``,
    ``fourier.h_l1_norm.distinct`` and ``sieve.sieve_upper_bound.moduli``
    (nested congruence sums / 2).  Times are ``<name>.self_s`` and the
    inclusive ``<name>.s``.
    """
    counts: Counter = Counter()
    times: Counter = Counter()
    durations: dict = defaultdict(list)
    child_time = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    distinct = set()
    nested = 0
    for i, (name, t0, t1, parent, work) in enumerate(spans):
        dur = t1 - t0
        counts[f"{name}.calls"] += 1
        times[f"{name}.self_s"] += dur - child_time[i]
        times[f"{name}.s"] += dur
        for key, value in (work or {}).items():
            if key == "key":
                distinct.add(tuple(value))
            else:
                counts[f"{name}.{key}"] += value
        if name == "fourier.h_l1_norm":
            durations[name].append(dur)
        if (name == "latticesums.congruence_sum_exact" and parent >= 0
                and spans[parent][0] == "sieve.sieve_upper_bound"):
            nested += 1
    counts["fourier.h_l1_norm.distinct"] = len(distinct)
    counts["sieve.sieve_upper_bound.moduli"] = nested // 2
    return counts, times, durations

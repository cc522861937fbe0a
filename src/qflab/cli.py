"""Batch command-line front end.

Subcommands map one-to-one onto library operations and emit JSON lines
(17 significant digits) or CSV (6 significant digits).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np

from . import verify as _verify
from .arith import class_number_analytic, dirichlet_l1, is_fundamental
from .forms import QuadraticForm, enumerate_reduced_forms, reduce_form, representation_count
from .fourier import BandlimitedFn, functional_report, gap_constant, greedy_search
from .latticesums import (
    CongruenceSumResult,
    congruence_main_term,
    congruence_sum_exact,
    error_scaling_report,
    poisson_identity_check,
)
from .sieve import (
    bt_theoretical_bound,
    sieved_sum_exact,
    count_represented_primes,
    prime_gap_scan,
    sieve_upper_bound,
)

__all__ = ["CommandPlan", "parse_invocation", "execute_plan", "main"]


@dataclass
class CommandPlan:
    group: str
    action: str
    params: dict = field(default_factory=dict)
    output: str | None = None
    fmt: str = "json"


def _form_arg(text: str) -> QuadraticForm:
    try:
        a, b, c = (int(part) for part in text.split(","))
        return QuadraticForm(a, b, c)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad --form {text!r}: {exc}") from exc


def _finite_arg(text: str) -> float:
    """A finite float: NaN and the infinities have no JSON spelling."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _coeffs_arg(text: str) -> tuple[float, ...]:
    return tuple(_finite_arg(p) for p in text.split(","))


def _grid_arg(text: str) -> list[float]:
    """start:stop:points[:log] -> list of grid values, each finite."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise argparse.ArgumentTypeError(
            f"bad --grid {text!r}: want start:stop:points[:log]")
    try:
        start, stop, points = _finite_arg(parts[0]), _finite_arg(parts[1]), int(parts[2])
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise argparse.ArgumentTypeError(f"bad --grid {text!r}: {exc}") from exc
    if points < 1:
        raise argparse.ArgumentTypeError("grid needs at least one point")
    if points == 1:
        return [start]
    if len(parts) == 4:
        lo, hi = math.log(start), math.log(stop)
        grid = [math.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points)]
    else:
        grid = [start + (stop - start) * i / (points - 1) for i in range(points)]
    if not all(map(math.isfinite, grid)):
        raise argparse.ArgumentTypeError(f"bad --grid {text!r}: a point overflows")
    return grid


def build_parser(command: tuple[str, str] | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one (group, action) command."""
    # the same options are accepted before and after the subcommand; SUPPRESS
    # keeps the leaf parser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=argparse.SUPPRESS,
                        help="write records here instead of stdout")
    common.add_argument("--format", choices=("json", "csv"), dest="fmt",
                        default=argparse.SUPPRESS, help="json (the default) or csv")
    common.add_argument("--config", metavar="PATH", default=argparse.SUPPRESS,
                        help="JSON file with default parameters")
    parser = argparse.ArgumentParser(prog="qflab", description=__doc__, parents=[common])
    groups = parser.add_subparsers(dest="group", required=True)
    actions = {}
    for (group, action), (_, options) in _COMMANDS.items():
        if command not in (None, (group, action)):
            continue
        if group not in actions:
            actions[group] = groups.add_parser(group).add_subparsers(dest="action", required=True)
        leaf = actions[group].add_parser(action, parents=[common])
        for dest, kw in options.items():
            # argparse runs with SUPPRESS so that config-file values can slot
            # between the command line and the table's defaults
            kw = dict(kw, default=argparse.SUPPRESS) if "default" in kw else dict(kw, required=True)
            leaf.add_argument("--" + dest.replace("_", "-"), dest=dest, **kw)
    return parser


def _load_config(path: str, key: tuple[str, str], options: dict, parser) -> dict:
    """The config file's values, each converted as the command line converts
    its option: a string as given, any other value as its JSON text, and a
    --grid list element by element through _finite_arg."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"config {path}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config {path} must hold a JSON object")

    def text(value) -> str:
        return value if isinstance(value, str) else json.dumps(value)

    out = {}
    for name, value in cfg.items():
        if name not in options:
            parser.error(f"config key {name!r} unknown for {key[0]} {key[1]}")
        conv = options[name].get("type", str)
        choices = options[name].get("choices")
        try:
            if isinstance(value, list) and conv is _grid_arg:
                if not value:
                    raise argparse.ArgumentTypeError("grid needs at least one point")
                value = [_finite_arg(text(v)) for v in value]
            else:
                value = conv(text(value))
        except ValueError:
            parser.error(f"config key {name!r}: invalid {conv.__name__} value {text(value)!r}")
        except argparse.ArgumentTypeError as exc:
            parser.error(f"config key {name!r}: {exc}")
        if choices is not None and value not in choices:
            parser.error(f"config key {name!r}: invalid choice {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
        out[name] = value
    return out


def parse_invocation(argv) -> CommandPlan:
    """Validate argv into an executable plan; exits with status 2 on usage
    errors.  Precedence: command line > config file > built-in defaults.
    Only the command that argv names, the first adjacent (group, action)
    pair of its words, has its parser built, which halves the start-up
    parse; without one (--help, an unknown command) every command's is."""
    parser = build_parser(next((pair for pair in zip(argv, argv[1:]) if pair in _COMMANDS), None))
    ns = parser.parse_args(argv)
    given = dict(vars(ns))
    group = given.pop("group")
    action = given.pop("action")
    output = given.pop("out", None)
    fmt = given.pop("fmt", None)
    config = given.pop("config", None)
    if group == "verify" and fmt is not None:
        parser.error("verify writes a text report; --format does not apply to it")
    key = (group, action)
    _, options = _COMMANDS[key]
    params = {dest: kw["default"] for dest, kw in options.items() if "default" in kw}
    if config:
        params.update(_load_config(config, key, options, parser))
    params.update(given)
    return CommandPlan(group, action, params, output, fmt or "json")


# column-table rows per write: few write calls, and memory bounded by one
# chunk of text
_EMIT_CHUNK = 16384

# shortest-digits decisions this close to their bound, relative to it, are
# left to repr; the computed distances are good to about 1e-16
_FLOAT_BAND = 1e-9
# 10**j exactly: in uint64 up to 10**19, in float64 up to 10**22
_P10 = 10 ** np.arange(20, dtype=np.uint64)
_P10F = np.array([float(10 ** j) for j in range(23)])


@dataclass
class TextReport:
    """A command's text output: run(write) hands each line to write as soon
    as it is known and returns the exit status, which emit keeps in status."""

    run: Callable[[Callable[[str], None]], int]
    status: int | None = None


def emit(records, fmt: str, stream) -> None:
    """Write records to stream as JSON lines or as CSV headed by the first
    record's keys.  Records are a list of dicts, written in one pass, or a
    dict of equal-length columns (numpy bool, int64 or float64 arrays),
    written as the rows they hold in chunks of _EMIT_CHUNK rows with the
    bytes the row dicts would give.  A float NaN or infinity, which JSON
    cannot spell, raises ValueError in JSON.  A TextReport is run with each
    line written and flushed as it comes."""
    if isinstance(records, TextReport):
        def write(line: str) -> None:
            stream.write(line + "\n")
            stream.flush()

        records.status = records.run(write)
        return
    if isinstance(records, dict):
        _emit_columns(records, fmt, stream)
        return
    if not records:
        return
    if fmt == "json":
        stream.write("".join([json.dumps(rec, allow_nan=False) + "\n" for rec in records]))
        return
    keys = list(records[0])
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([format(v, ".6g") if isinstance(v, float) else v
                      for v in (rec[k] for k in keys)] for rec in records)


def _emit_columns(columns: dict, fmt: str, stream) -> None:
    """Write a column table as a byte table, one write per _EMIT_CHUNK rows:
    each column's chunk becomes a uint8 matrix of text slots padded with
    zero bytes (_slots), copied with the key separators into one table of
    rows; dropping the zero bytes leaves the rows' text.

    A row's text depends on its value alone, so a column that is another's
    next row in one buffer (p_next = primes[1:] beside p_n = primes[:-1])
    takes its slots from the other's, rendered one row longer, told from
    the arrays' bases and data pointers, never from their values."""
    keys, cols = list(columns), list(columns.values())
    if fmt == "json":
        seps = ["{" + json.dumps(keys[0]) + ": "] + [", " + json.dumps(k) + ": " for k in keys[1:]]
        end, head = "}\n", ""
    else:
        seps = [""] + [","] * (len(keys) - 1)
        end, head = "\n", ",".join(keys) + "\n"
    seps = [np.frombuffer(sep.encode(), np.uint8) for sep in seps + [end]]
    nexts = {}  # column j -> the column that is column j one row on
    for j, k in permutations(range(len(cols)), 2):
        if not {j, k} & {*nexts, *nexts.values()} and _next_row_view(cols[j], cols[k]):
            nexts[j] = k
    n = len(cols[0])
    for i in range(0, n, _EMIT_CHUNK):
        size = min(_EMIT_CHUNK, n - i)
        slots = [None] * len(cols)
        for j, k in nexts.items():  # column j rendered one row longer serves both
            both = _slots(np.append(cols[j][i:i + size], cols[k][i + size - 1]), fmt)
            slots[j], slots[k] = both[:-1], both[1:]
        for j, col in enumerate(cols):
            if slots[j] is None:
                slots[j] = _slots(col[i:i + size], fmt)
        parts = [part for sep, slot in zip(seps, slots) for part in (sep, slot)] + [seps[-1]]
        table = np.empty((size, sum(part.shape[-1] for part in parts)), np.uint8)
        at = 0
        for part in parts:
            table[:, at:at + part.shape[-1]] = part
            at += part.shape[-1]
        stream.write(head + table.tobytes().translate(None, b"\0").decode("ascii"))
        head = ""


def _next_row_view(col, nxt) -> bool:
    """Whether nxt[r] is col[r + 1] in memory: both 1-d views of one buffer,
    nxt one of col's strides on."""
    return (isinstance(col, np.ndarray) and isinstance(nxt, np.ndarray)
            and col.base is not None and col.base is nxt.base
            and col.ndim == nxt.ndim == 1 and col.dtype == nxt.dtype
            and col.strides == nxt.strides
            and nxt.ctypes.data - col.ctypes.data == col.strides[0])


def _slots(chunk: np.ndarray, fmt: str) -> np.ndarray:
    """Each value's text as a row of uint8, padded with zero bytes: constant
    text for bools, numpy digits for int64, and for float64 "{:.6g}" in CSV
    or, in JSON, the certified digits of _float_bytes and repr's text for
    the rest.  Any other column raises TypeError."""
    dtype = getattr(chunk, "dtype", type(chunk))
    if dtype == np.bool_:
        words = ["false", "true"] if fmt == "json" else ["False", "True"]
        return _text_bytes(words)[chunk.view(np.uint8)]
    if dtype == np.int64:
        return np.vstack([(chunk < 0) * np.uint8(45), _digits(np.abs(chunk).view(np.uint64))]).T
    if dtype != np.float64:
        raise TypeError(f"a column table holds numpy bool, int64 or float64 arrays, not {dtype}")
    if fmt == "csv":
        return _text_bytes([format(v, ".6g") for v in chunk.tolist()])
    if not np.isfinite(chunk).all():  # refused as json.dumps(allow_nan=False) refuses a row
        raise ValueError("Out of range float values are not JSON compliant")
    slots, rest = _float_bytes(chunk)
    if rest.size:  # repr's text, in columns of its own
        extra = _text_bytes([repr(v) for v in chunk[rest].tolist()])
        slots = np.concatenate([np.zeros((len(chunk), extra.shape[1]), np.uint8), slots], axis=1)
        slots[rest, :extra.shape[1]] = extra
    return slots


def _text_bytes(texts: list[str]) -> np.ndarray:
    """ASCII texts as the rows of a uint8 matrix, padded with zero bytes."""
    cells = np.array(texts, dtype=np.bytes_)
    return cells.view(np.uint8).reshape(len(texts), cells.itemsize)


def _digits(u: np.ndarray) -> np.ndarray:
    """The decimal digits of each uint64 of u as ASCII, right-aligned to the
    longest, with zero bytes for leading zeros (0 is written "0"): the
    columns of a (width, len(u)) uint8 matrix, built one contiguous row per
    digit place."""
    width = max(int(np.searchsorted(_P10, u.max(), side="right")), 1)
    out = np.empty((width, len(u)), np.uint8)
    rest = u
    for j in range(width - 1, -1, -1):
        if (width - 1 - j) % 9 == 0:  # the next nine digits, divided in 32 bits
            rest, limb = np.divmod(rest, np.uint64(10 ** 9))
            limb = limb.astype(np.uint32)
        q = limb // 10
        out[j] = limb - q * 10 + 48
        limb = q
    for j in range(width - 1):  # leading zeros become zero bytes
        out[j] *= u >= _P10[width - 1 - j]
    return out


def _float_bytes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """repr's text of the floats of x as in _slots, and the indices of the
    rows left zero for repr: x outside 1e-6 <= |x| < 1e6 or not finite, and
    x whose digits _shortest does not certify."""
    a = np.abs(x)
    inside = (a >= 1e-6) & (a < 1e6)
    # outside, a placeholder whose 17 digits _shortest settles in two steps
    m, k, sure = _shortest(np.where(inside, a, 1 + 2.0 ** -52))
    m = m.view(np.uint64)
    # repr's layout of m * 10**-k: positional for exponents -4 <= e10 < 16,
    # with ".0" on integral values, else d.ddde-XX (|x| < 1e6 keeps e10 < 6)
    nd = np.searchsorted(_P10, m, side="right")
    e10 = nd - 1 - k
    sci = e10 < -4
    point = np.where(sci, nd - 1, k)
    whole, frac = np.divmod(m, _P10[np.minimum(point, nd)])  # m < 10**nd
    point = np.where(sci, point, np.maximum(point, 1))  # digits after the point
    zeros = point - np.maximum(np.searchsorted(_P10, frac, side="right"), 1)
    digits = _digits(frac)
    digits[:, point == 0] = 0
    # sign, whole part, point, the fraction's leading zeros and digits, exponent
    expo = [ord("e"), ord("-"), 48 + -e10 // 10, 48 + -e10 % 10]
    lead = np.arange(zeros.max(initial=0))[:, None] < zeros
    text = np.vstack([(x < 0) * np.uint8(45), _digits(whole), (point > 0) * np.uint8(46),
                      lead * np.uint8(48), digits]
                     + [(sci * c).astype(np.uint8) for c in expo]).T
    rest = np.flatnonzero(~(inside & sure))
    text[rest] = 0
    return text, rest


def _shortest(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits of each a in [1e-6, 1e6) as m * 10**-k with the least
    k >= 0, and whether every decision was certain.  Coarser grids are
    subsets of finer ones, so 16 significant digits are tried first, then
    17 where they fail (17 always round-trip), or fewer while they hold."""
    up = np.spacing(a) / 2  # half the gap to the next double above
    lo = np.where(np.frexp(a)[0] == 0.5, up / 2, up)  # below a power of two it halves
    e10 = np.searchsorted(np.concatenate([1 / _P10F[5:0:-1], _P10F[:6]]), a, side="right") - 6
    k = 15 - e10

    def grid(rows, k):
        return _grid_point(a[rows], _P10F[k], lo[rows], up[rows])

    m, ok, sure = grid(slice(None), k)
    more = np.flatnonzero(~ok)
    k[more] += 1
    m[more], ok17, sure17 = grid(more, k[more])
    sure[more] &= ok17 & sure17
    fewer = np.flatnonzero(ok & sure & (k > 0))
    while fewer.size:
        mf, okf, suref = grid(fewer, k[fewer] - 1)
        sure[fewer] = suref
        fewer, mf = fewer[okf & suref], mf[okf & suref]
        k[fewer] -= 1
        m[fewer] = mf
        fewer = fewer[k[fewer] > 0]
    return m, k, sure


def _grid_point(a, s, lo, up) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """On the grid 10**-k, s = 10**k: the point m * 10**-k nearest each a,
    or its neighbour where only that one rounds to a; whether either does;
    and whether each decision lies outside _FLOAT_BAND of its bound.  A
    point rounds to a when closer than half the gap to the next double on
    its side, lo below and up above (Ryu's criterion, Adams 2018), measured
    on y = a * s = p + e held exactly by Dekker's TwoProduct (1971)."""
    p = a * s
    ca, cs = 134217729.0 * a, 134217729.0 * s  # Dekker's split at 2**27 + 1
    ah, sh = ca - (ca - a), cs - (cs - s)  # the high 26 bits
    al, sl = a - ah, s - sh
    e = ((ah * sh - p) + ah * sl + al * sh) + al * sl
    q = np.rint(p)
    t = (p - q) + e
    j = np.rint(t)
    d = t - j  # y - (q + j), good to about 1e-16 of the bound it meets
    below = d >= 0  # the nearest point lies at or below y, its neighbour above
    near, far = np.abs(d), 1 - np.abs(d)
    lim_near = np.where(below, lo, up) * s  # exact: a power of two times s
    lim_far = np.where(below, up, lo) * s
    ok_near, ok_far = near < lim_near, far < lim_far
    sure = ((np.abs(near - lim_near) > _FLOAT_BAND * lim_near)
            & (np.abs(far - lim_far) > _FLOAT_BAND * lim_far)
            & ~(ok_near & ok_far & (np.abs(near - 0.5) <= _FLOAT_BAND)))
    m = q.astype(np.int64) + j.astype(np.int64) + np.where(ok_near, 0, np.where(below, 1, -1))
    return m, ok_near | ok_far, sure


def _forms_reduce(p):
    f = p["form"]
    g = reduce_form(f)
    return [{"input": f.triple(), "a": g.a, "b": g.b, "c": g.c, "D": g.D}]


def _forms_enumerate(p):
    cls = enumerate_reduced_forms(p["d"])
    return [{"D": cls.D, "a": f.a, "b": f.b, "c": f.c} for f in cls]


def _forms_classnum(p):
    D = p["d"]
    rec = {"D": D, "h_enumeration": len(enumerate_reduced_forms(D))}
    if is_fundamental(D):
        rec["h_analytic"] = class_number_analytic(D)
        rec["L1_chi"] = dirichlet_l1(D)
    return [rec]


def _repr_rf(p):
    return [{"form": p["form"].triple(), "n": p["n"],
             "rf": representation_count(p["form"], p["n"])}]


def _repr_congruence_sum(p):
    f, ell, x = p["form"], p["ell"], p["x"]
    return [CongruenceSumResult(x, ell, congruence_sum_exact(f, ell, x),
                                congruence_main_term(f, ell, x)).record()]


def _repr_error_scaling(p):
    rep = error_scaling_report(p["form"], p["ell"], p["grid"] or _grid_arg("1e3:1e6:7:log"))
    return [dict(rec, slope=rep.slope) for rec in rep.records()]


def _repr_poisson_check(p):
    lhs, rhs = poisson_identity_check(p["form"], p["ell"], p["t"])
    return [{"form": p["form"].triple(), "ell": p["ell"], "t": p["t"],
             "lhs": lhs, "rhs": rhs, "relative_gap": abs(lhs - rhs) / abs(lhs)}]


def _sieve_bound(p):
    rec = sieve_upper_bound(p["form"], p["x"], p["y"], p["z"]).record()
    rec["exact"] = sieved_sum_exact(p["form"], p["x"], p["y"], p["z"])
    return [rec]


def _sieve_pif(p):
    return [{"form": p["form"].triple(), "x": p["x"],
             "pi_f": count_represented_primes(p["form"], p["x"])}]


def _sieve_gaps(p):
    i, primes, gaps = prime_gap_scan(p["form"], p["x"], p["min_p"])
    is_max = np.zeros(gaps.size, dtype=bool)
    is_max[i] = True
    return {"p_n": primes[:-1], "p_next": primes[1:], "gap": np.diff(primes),
            "normalized": gaps, "is_max": is_max}


def _sieve_bt_constants(p):
    bt = bt_theoretical_bound(p["form"], p["x"], p["y"], p["variant"], p["eps"])
    return [{"form": p["form"].triple(), "x": p["x"], "y": p["y"],
             "variant": p["variant"], "eps": p["eps"], "theta": bt.theta,
             "constant": bt.constant, "range_ok": bt.range_ok}]


def _fourier_eval(p):
    fn = BandlimitedFn(p["coeffs"], p["lam"])
    return [{"coeffs": list(p["coeffs"]), "lambda": p["lam"], "x": p["x"],
             "value": float(fn(p["x"]))}]


def _fourier_report(p):
    fn = BandlimitedFn(p["coeffs"], p["lam"])
    rec = functional_report(fn, p["A"]).record()
    rec["coeffs"] = list(p["coeffs"])
    rec["lambda"] = p["lam"]
    try:
        rec["gap_constant"] = gap_constant(fn, p["A"], 0.0, Fraction(1, 2), 1)
    except ValueError:
        rec["gap_constant"] = None
    return [rec]


def _fourier_search(p):
    res = greedy_search(p["A"], p["terms"], p["budget"])
    rec = res.report.record()
    rec.update({"coeffs": list(res.fn.coeffs), "lambda": res.fn.lam,
                "evaluations": res.evaluations, "exhausted": res.exhausted})
    return [rec]


def _fourier_tables(p):
    rows = []
    for A in p["a_grid"] or [1.0, 5.0, 10.0, 28.0, 34.5]:
        res = greedy_search(A, p["terms"], p["budget"])
        a1, a2, a3 = (list(res.fn.coeffs) + [0.0] * 3)[:3]
        rows.append({"A": A, "c_plus_lower": res.report.j_plus, "a1": a1, "a2": a2,
                     "a3": a3, "lambda": res.fn.lam})
    return rows


def _verify_suite(suite: str):
    return lambda p: TextReport(lambda write: _verify.run_suite(suite, out=write))


# (group, action) -> (handler, {dest: argparse keyword arguments}).  The
# option's flag is "--" + dest with "_" written "-", and an option without
# a "default" is required.
_COMMANDS = {
    ("forms", "reduce"): (_forms_reduce, {"form": {"type": _form_arg}}),
    ("forms", "enumerate"): (_forms_enumerate, {"d": {"type": int}}),
    ("forms", "classnum"): (_forms_classnum, {"d": {"type": int}}),
    ("repr", "rf"): (_repr_rf, {"form": {"type": _form_arg}, "n": {"type": int}}),
    ("repr", "congruence-sum"): (_repr_congruence_sum, {
        "form": {"type": _form_arg}, "ell": {"type": int, "default": 1},
        "x": {"type": _finite_arg}}),
    ("repr", "error-scaling"): (_repr_error_scaling, {
        "form": {"type": _form_arg}, "ell": {"type": int, "default": 1},
        "grid": {"type": _grid_arg, "default": None}}),
    ("repr", "poisson-check"): (_repr_poisson_check, {
        "form": {"type": _form_arg}, "ell": {"type": int, "default": 1},
        "t": {"type": _finite_arg, "default": 1.0}}),
    ("sieve", "bound"): (_sieve_bound, {
        "form": {"type": _form_arg}, "x": {"type": _finite_arg}, "y": {"type": _finite_arg},
        "z": {"type": _finite_arg}}),
    ("sieve", "pif"): (_sieve_pif, {"form": {"type": _form_arg}, "x": {"type": _finite_arg}}),
    ("sieve", "gaps"): (_sieve_gaps, {
        "form": {"type": _form_arg}, "x": {"type": _finite_arg},
        "min_p": {"type": int, "default": 100}}),
    ("sieve", "bt-constants"): (_sieve_bt_constants, {
        "form": {"type": _form_arg}, "x": {"type": _finite_arg}, "y": {"type": _finite_arg},
        "variant": {"default": "cuberoot_range",
                    "choices": ("cuberoot_range", "mid_range", "sqrt_range")},
        "eps": {"type": _finite_arg, "default": 0.01}}),
    ("fourier", "eval"): (_fourier_eval, {
        "coeffs": {"type": _coeffs_arg}, "x": {"type": _finite_arg},
        "lam": {"type": _finite_arg, "default": 1.0}}),
    ("fourier", "report"): (_fourier_report, {
        "coeffs": {"type": _coeffs_arg}, "lam": {"type": _finite_arg, "default": 1.0},
        "A": {"type": _finite_arg}}),
    ("fourier", "search"): (_fourier_search, {
        "A": {"type": _finite_arg}, "terms": {"type": int, "default": 3},
        "budget": {"type": int, "default": 4000}}),
    ("fourier", "tables"): (_fourier_tables, {
        "a_grid": {"type": _grid_arg, "default": None},
        "terms": {"type": int, "default": 3}, "budget": {"type": int, "default": 4000}}),
    ("verify", "fast"): (_verify_suite("fast"), {}),
    ("verify", "full"): (_verify_suite("full"), {}),
}


def execute_plan(plan: CommandPlan) -> list[dict] | dict[str, list] | TextReport:
    """Run the plan and return its records: a list of row dicts, or, where
    the rows are many (`sieve gaps`), a dict of equal-length columns, or
    for `verify` a TextReport, which runs the suite as emit writes it."""
    handler, _ = _COMMANDS[(plan.group, plan.action)]
    return handler(plan.params)


def main(argv=None) -> int:
    plan = parse_invocation(sys.argv[1:] if argv is None else argv)
    records = execute_plan(plan)
    if plan.output:
        with open(plan.output, "w", encoding="utf-8") as fh:
            emit(records, plan.fmt, fh)
    else:
        emit(records, plan.fmt, sys.stdout)
    return records.status if isinstance(records, TextReport) else 0


if __name__ == "__main__":
    sys.exit(main())

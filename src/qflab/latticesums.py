"""Lattice congruence sums, the two-sided Poisson identity, and the
compactly supported radial test bump with its Hankel transform.

Exact counting uses the identity 4a*f(u,v) = (2au + bv)^2 + D*v^2: the
outer loop runs over v, and u-ranges are solved as exact integer
intervals, whose congruence counts come from the residue pairs mod ell
by one counting formula per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.polynomial.polynomial import polyval

from .arith import _residue_rows, residue_density
from .forms import QuadraticForm, is_reduced, lattice_basis, reduce_form

__all__ = [
    "BudgetError",
    "CongruenceSumResult",
    "ErrorScalingReport",
    "TestFunctionG",
    "congruence_sum_exact",
    "congruence_main_term",
    "error_scaling_report",
    "chi_hat",
    "poisson_identity_check",
    "translation_exception_count",
    "hankel_transform",
    "hat_g_at_zero",
]

_VMAX_BUDGET = 80_000_000
_ROW_CHUNK = 1 << 20
_WINDOW_BLOCK = 1 << 17
_DUAL_BLOCK = 1 << 16
_CHI_TABLE_BYTES = 16 * 2048**2  # 64 MiB: the complex chi-hat table of ell <= 2048


class BudgetError(RuntimeError):
    """Enumeration would exceed the configured time/memory budget."""


def _residue_keys(f: QuadraticForm, ell: int, rows: int | None = None) -> np.ndarray:
    """The residue pairs (u, v) mod ell with ell | f(u, v) as the ascending
    int64 keys v*ell + u, from the residue rows v < rows (all ell by default)."""
    rows = ell if rows is None else rows
    keys, row0 = [], 0
    for m in _residue_rows([f.triple()], ell):
        if row0 >= rows:
            break
        keys.append(np.flatnonzero(m[:rows - row0]) + row0 * ell)
        row0 += len(m)
    return np.concatenate(keys)


def _exact_isqrt(m: np.ndarray) -> np.ndarray:
    """Elementwise integer sqrt for nonnegative int64 m <= 2^52: the
    truncated float root.

    Such m is an exact double, and a correctly rounded sqrt is monotone, so
    on each run k^2 <= m <= (k + 1)^2 - 1 of one isqrt the truncated root
    lies between its values at the run's two ends.  It is exact at every
    k^2 - 1 -> k - 1 and k^2 -> k for k = 1..2^26 (checked exhaustively in
    the tests), so at both ends of every run, hence at every m <= 2^52."""
    return np.sqrt(m.astype(np.float64)).astype(np.int64)


def _lattice_rows(f: QuadraticForm, N: int):
    """Yield the rows v >= 0 of the ellipse f(u, v) <= N in chunks of v.

    Each chunk is (v, u_lo, u_hi), int64 arrays over consecutive v from 0
    to vmax: the points with that v are the u in [u_lo, u_hi], solved from
    (2au + bv)^2 <= 4aN - Dv^2; row -v is the mirror [-u_hi, -u_lo].  The
    one place that refuses inputs beyond 64-bit exactness or the row budget.
    """
    a, b, D = f.a, f.b, f.D
    if 4 * a * N > (1 << 52):
        raise BudgetError(f"x = {N:g} too large for exact 64-bit enumeration")
    vmax = math.isqrt(4 * a * N // D)
    if vmax > _VMAX_BUDGET:
        raise BudgetError(f"v-range {2 * vmax + 1} exceeds enumeration budget")
    for start in range(0, vmax + 1, _ROW_CHUNK):
        v = np.arange(start, min(start + _ROW_CHUNK, vmax + 1), dtype=np.int64)
        yield (v, *_row_bounds(f, N, v))


def _row_bounds(f: QuadraticForm, N: int, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact u-range [u_lo, u_hi] of f(u, v) <= N for each v; rows that miss
    the ellipse come back empty (u_hi = u_lo - 1).  Callers keep 4aN in
    range (see _lattice_rows)."""
    two_a, b = 2 * f.a, f.b
    m = 4 * f.a * N - f.D * v * v
    t = _exact_isqrt(np.maximum(m, 0))
    hi = (t - b * v) // two_a
    lo = -((t + b * v) // two_a)
    miss = m < 0
    if miss.any():
        hi = np.where(miss, lo - 1, hi)
    return lo, hi


def congruence_sum_exact(f: QuadraticForm, ell: int, x: float) -> int:
    """#{(u, v) : 1 <= f(u, v) <= x and ell | f(u, v)}, exact; counted on the
    reduced form, which has the same count."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    X = math.floor(x)
    if X < 1:
        return 0
    f = reduce_form(f)
    # the rows v = 0..vmax of _lattice_rows meet only the residue rows v mod ell <= vmax
    keys = _residue_keys(f, ell, math.isqrt(4 * f.a * X // f.D) + 1)
    # a row v with c = v mod ell and residues S_c = {u mod ell : ell | f(u, v)}
    # holds G(hi) - G(lo - 1) of its u in [lo, hi], where G(h) = (h // ell) *
    # |S_c| + #{r in S_c : r <= h mod ell}.  The searchsorted count takes in
    # the keys of the rows before c as well, a per-row constant that cancels.
    # G sums over a chunk of rows; each int64 sum stays below 2^20 * ell^2 < 2^62
    size = np.diff(np.searchsorted(keys, np.arange(ell + 1, dtype=np.int64) * ell))

    def G(c, h):
        return int(np.sum((h // ell) * size[c])) + int(np.sum(
            np.searchsorted(keys, c * ell + h % ell, side="right")))

    total = 0  # rows v > 0 count twice, for themselves and their mirrors -v
    for v, lo, hi in _lattice_rows(f, X):
        c = v % ell
        total += 2 * (G(c, hi) - G(c, lo - 1))
        if v[0] == 0:
            total -= G(c[:1], hi[:1]) - G(c[:1], lo[:1] - 1)
    return total - 1  # drop the origin, which contributes f = 0


def _window_histogram(f: QuadraticForm, lo: int, hi: int):
    """Yield (n0, r) block by block over the window lo < n <= hi, where
    r[i] = r_f(n0 + i) and each block spans at most _WINDOW_BLOCK numbers.

    A block [n0, n1) is the annulus between the ellipses f <= n1 - 1 and
    f <= n0 - 1, so only its ~2*pi*(n1 - n0)/sqrt(D) points are touched;
    they are binned by n = ((2au + bv)^2 + Dv^2) / 4a, which stays below
    2^53 wherever the row kernel admits N.  A window starting below 0
    begins at n = 0, whose only point is the origin (the inner ellipse
    f <= -1 is empty).
    """
    a, b, D = f.a, f.b, f.D
    for n0 in range(max(lo, -1) + 1, hi + 1, _WINDOW_BLOCK):
        n1 = min(n0 + _WINDOW_BLOCK, hi + 1)
        r = np.zeros(n1 - n0, dtype=np.int64)
        for v, lo_o, hi_o in _lattice_rows(f, n1 - 1):
            lo_i, hi_i = _row_bounds(f, n0 - 1, v)
            # rows missing the inner ellipse keep the whole outer row
            empty = hi_i < lo_i
            lo_i = np.where(empty, hi_o + 1, lo_i)
            hi_i = np.where(empty, hi_o, hi_i)
            # each row of the annulus is [lo_o, lo_i - 1] plus [hi_i + 1, hi_o]
            u, vv = _row_points(np.concatenate((v, v)), np.concatenate((lo_o, hi_i + 1)),
                                np.concatenate((lo_i - lo_o, hi_o - hi_i)))
            s = 2 * a * u + b * vv
            n = (s * s + D * vv * vv) // (4 * a) - n0
            # each point with v > 0 stands for its mirror as well
            r += 2 * np.bincount(n, minlength=r.size) - np.bincount(n[vv == 0], minlength=r.size)
        yield n0, r


def _row_points(v: np.ndarray, start: np.ndarray, length: np.ndarray):
    """The points (u, v) of rows u in [start, start + length), row by row,
    as two int64 arrays; empty rows (length 0) contribute nothing."""
    offset = np.cumsum(length) - length
    u = np.repeat(start - offset, length) + np.arange(int(length.sum()))
    return u, np.repeat(v, length)


def congruence_main_term(f: QuadraticForm, ell: int, x: float) -> float:
    """2*pi*g(ell)*x/sqrt(D), with the exact residue-count density."""
    return 2.0 * math.pi * float(residue_density(f, ell)) * x / math.sqrt(f.D)


@dataclass(frozen=True)
class CongruenceSumResult:
    x: float
    ell: int
    exact_sum: int
    main_term: float

    @property
    def error(self) -> float:
        return self.exact_sum - self.main_term

    def record(self) -> dict:
        e = self.error
        return {
            "x": self.x,
            "ell": self.ell,
            "exact": self.exact_sum,
            "main": self.main_term,
            "error": e,
            "normalized_third": e / self.x ** (1.0 / 3.0),
            "normalized_half": e / math.sqrt(self.x),
        }


@dataclass(frozen=True)
class ErrorScalingReport:
    rows: tuple[CongruenceSumResult, ...]
    slope: float | None

    def records(self) -> list[dict]:
        return [r.record() for r in self.rows]


def error_scaling_report(f: QuadraticForm, ell: int, x_grid) -> ErrorScalingReport:
    """Exact-vs-main errors on a grid, with the log-log growth exponent.

    The fitted slope ignores rows where |error| < 1 (sign-change noise).
    """
    rows = tuple(
        CongruenceSumResult(float(x), ell, congruence_sum_exact(f, ell, x),
                            congruence_main_term(f, ell, x))
        for x in x_grid
    )
    return ErrorScalingReport(rows, _error_slope([(r.x, r.error) for r in rows]))


def _error_slope(points) -> float | None:
    """Least-squares slope of log|error| against log x over the (x, error)
    points with |error| >= 1; None when fewer than two remain."""
    pts = [(math.log(x), math.log(abs(e))) for x, e in points if abs(e) >= 1.0]
    if len(pts) < 2:
        return None
    lx, ly = np.array(pts).T
    return float(np.polyfit(lx, ly, 1)[0])


def chi_hat(f: QuadraticForm, ell: int, r: int, s: int) -> complex:
    """Fourier coefficient of the divisibility indicator on the lattice mod ell.

    (1/ell^2) * sum over residue pairs (u, v) with ell | f(u, v) of
    exp(-2*pi*i*(u*s + v*r)/ell).
    """
    if not (0 <= r < ell and 0 <= s < ell):
        raise ValueError("need 0 <= r, s < ell")
    v, u = np.divmod(_residue_keys(f, ell), ell)
    # integer phases (u*s + v*r) mod ell, below 2^42 before the remainder
    phase = (u * s + v * r) % ell
    return complex(np.exp(-2j * math.pi / ell * phase).sum() / ell**2)


def _chi_hat_tables(abc, ell: int) -> np.ndarray:
    """The coefficient tables of the forms (a, b, c), the rows of the (F, 3)
    array abc, indexed [form, s, r]: one residue-kernel pass and one 2-D FFT
    over the last two axes.  A stack whose tables would exceed
    _CHI_TABLE_BYTES is refused with BudgetError before anything is
    allocated."""
    abc = np.array(abc, dtype=object).reshape(-1, 3)
    if 16 * len(abc) * ell * ell > _CHI_TABLE_BYTES:
        raise BudgetError(f"ell = {ell}: the {len(abc)} x {ell}^2 chi-hat table exceeds its "
                          f"memory budget of {_CHI_TABLE_BYTES >> 20} MiB "
                          f"(ell <= {math.isqrt(_CHI_TABLE_BYTES // (16 * len(abc)))})")
    indicator = np.concatenate(list(_residue_rows(abc, ell))).reshape(-1, ell, ell)
    # the rows come indexed [form, v, u]; the tables are the FFT over [u, v]
    return np.fft.fft2(indicator.transpose(0, 2, 1).astype(np.float64)) / ell**2


def poisson_identity_check(f: QuadraticForm, ell: int, t: float) -> tuple[float, float]:
    """Evaluate both sides of the congruence-filtered lattice Poisson identity
    with the Gaussian exp(-pi*t*|w|^2); truncation tails are below 1e-14.

    Returns (lhs, rhs): lhs sums the Gaussian over lattice points whose
    squared norm is divisible by ell; rhs is sqrt(4/D) times the dual-side
    sum of the shifted transform weighted by the indicator's Fourier
    coefficients.  Both sides are invariants of proper equivalence and are
    evaluated on reduce_form(f), whose coefficients size the grids.
    """
    return _poisson_sides([f], (ell,), (t,))[0][ell][0]


def _poisson_sides(forms, ells, ts) -> list[dict[int, list[tuple[float, float]]]]:
    """poisson_identity_check's (lhs, rhs) for every form in forms, ell in
    ells and t in ts, as one {ell: [(lhs, rhs) for each t]} per form.

    Each ell's coefficient tables come for the whole stack of reduced forms
    at once (see _chi_hat_tables).  Per form, the direct sides all come from
    one enumeration of f(u, v) <= the largest ncut, each filtered by its own
    ncut and ell: fsum rounds the exact sum of the same terms once, so each
    lhs is the one a lone enumeration gives.  The dual sides of one t come
    from one pass over the shifts of every ell, stacked, in blocks of at most
    _DUAL_BLOCK disk points per shift set.
    """
    ells, ts = list(ells), list(ts)
    if min(ts) <= 0:
        raise ValueError("need t > 0")
    forms = [reduce_form(f) for f in forms]
    abc = [f.triple() for f in forms]
    # the (s, r) indices and values of each form's nonzero coefficients, per ell
    nonzero = [[] for _ in forms]
    for ell in ells:
        for kept, table in zip(nonzero, _chi_hat_tables(abc, ell)):
            s, r = np.nonzero(np.abs(table) >= 1e-18)
            kept.append((s, r, table[s, r]))
    return [_form_sides(f, ells, ts, kept) for f, kept in zip(forms, nonzero)]


def _form_sides(f: QuadraticForm, ells, ts, nonzero) -> dict[int, list[tuple[float, float]]]:
    """_poisson_sides for the reduced form f, from the (s, r, coefficient)
    arrays of its nonzero coefficients at each ell."""
    a, b, c, D = f.a, f.b, f.c, f.D
    lat = lattice_basis(f)
    d1, d2 = np.array(lat.dual1), np.array(lat.dual2)
    shift = np.concatenate([(s[:, None] * d1 + r[:, None] * d2) / ell
                            for ell, (s, r, _) in zip(ells, nonzero)])
    splits = np.cumsum([len(s) for s, _, _ in nonzero])[:-1]

    # direct side: f(u, v) is an integer, so enumerate values <= ncut
    ncuts = [int(46.0 / (math.pi * t)) + 40 for t in ts]
    rows = [_row_points(v, lo, hi - lo + 1) for v, lo, hi in _lattice_rows(f, max(ncuts))]
    u, vv = (np.concatenate(p) for p in zip(*rows))
    vals = a * u * u + (b * vv) * u + c * vv * vv
    mirrored = 1.0 + (vv > 0)  # v > 0 terms doubled for their mirrors: exact, fsum rounds once
    divisible = {ell: vals % ell == 0 for ell in ells}

    sides = {ell: [] for ell in ells}
    for t, ncut in zip(ts, ncuts):
        inside = vals <= ncut
        terms = np.exp(-math.pi * t * vals[inside]) * mirrored[inside]

        # dual side: the shifts (s*d1 + r*d2)/ell with a nonzero coefficient,
        # over the dual points p with |p| <= radius.  Each shift has
        # |shift| < |d1| + |d2|, so every point dropped has |p - shift| >
        # sqrt(46t/pi), where the Gaussian is below exp(-46).  The disk lies in
        # the box |m| <= radius*sqrt(a), |n| <= radius*sqrt(c), as m = p.omega1
        # and n = p.omega2.
        radius = math.sqrt(46.0 * t / math.pi) + np.linalg.norm(d1) + np.linalg.norm(d2)
        mrange, nrange = (np.arange(-k, k + 1, dtype=np.float64)
                          for k in (math.ceil(radius * math.sqrt(a)) + 1,
                                    math.ceil(radius * math.sqrt(c)) + 1))
        px = (mrange[:, None] * d1[0] + nrange[None, :] * d2[0]).ravel()
        py = (mrange[:, None] * d1[1] + nrange[None, :] * d2[1]).ravel()
        disk = px * px + py * py <= radius * radius
        px, py = px[disk], py[disk]
        step = max(1, _DUAL_BLOCK // px.size)
        theta = np.concatenate([
            np.exp(-math.pi * ((px - sx[:, None]) ** 2 + (py - sy[:, None]) ** 2) / t)
            .sum(axis=1) / t
            for sx, sy in (shift[k:k + step].T for k in range(0, len(shift), step))])
        for ell, (_, _, coeff), th in zip(ells, nonzero, np.split(theta, splits)):
            lhs = math.fsum(terms[divisible[ell][inside]].tolist())
            # summed in (s, r) order, as the real part of sum(coefficient * theta)
            rhs = math.sqrt(4.0 / D) * sum((coeff * th).real.tolist())
            sides[ell].append((lhs, rhs))
    return sides


def translation_exception_count(f: QuadraticForm, ell: int, r: int, s: int) -> int:
    """#{(u, v) in Z^2 : f(u - r/ell, v - s/ell) < f(u, v)/2}, exact.

    Candidates are the points (U, V) = (ell*u - 2r, ell*v - 2s) of the
    superset f(U, V) < 6c*ell^2, from the row kernel and its mirror (the
    shift is not symmetric): rows with V = -2s (mod ell), each cut to its
    u-range.  Each is tested with integer arithmetic (scale by 2*ell^2) in
    int64, in blocks of at most _ROW_CHUNK points per row.  The row kernel
    refuses 4a*(6c*ell^2 - 1) > 2^52 with BudgetError, which keeps every
    product tested below 2^54.
    """
    if (r, s) == (0, 0):
        raise ValueError("(r, s) = (0, 0) is excluded")
    if not (0 <= r < ell and 0 <= s < ell):
        raise ValueError("need 0 <= r, s < ell")
    if not is_reduced(f):
        raise ValueError("form must be reduced")
    a, b, c = f.a, f.b, f.c
    ell2 = ell * ell
    count = 0
    for V, lo, hi in _lattice_rows(f, 6 * c * ell2 - 1):
        up = V > 0
        V, lo, hi = (np.concatenate(p) for p in ((V, -V[up]), (lo, -hi[up]), (hi, -lo[up])))
        keep = (V + 2 * s) % ell == 0
        v = (V[keep] + 2 * s) // ell
        u_lo = -((2 * r - lo[keep]) // ell)  # ceil((lo + 2r) / ell)
        length = np.maximum((hi[keep] + 2 * r) // ell - u_lo + 1, 0)
        for k in range(0, int(length.max(initial=0)), _ROW_CHUNK):
            u, vv = _row_points(v, u_lo + k, np.clip(length - k, 0, _ROW_CHUNK))
            x, y = u * ell - r, vv * ell - s
            lhs = 2 * (a * x * x + b * x * y + c * y * y)
            count += int(np.count_nonzero(lhs < ell2 * (a * u * u + b * u * vv + c * vv * vv)))
    return count


@dataclass(frozen=True)
class TestFunctionG:
    """Radial bump min{r^2, 1, (x + y - r^2)/y} on [0, sqrt(x+y)], 0 beyond."""

    __test__ = False  # keep pytest from collecting this as a test class

    x: float
    y: float

    def __post_init__(self):
        if self.x < 1 or self.y < 1:
            raise ValueError("need x >= 1 and y >= 1")

    @property
    def radius(self) -> float:
        return math.sqrt(self.x + self.y)

    def __call__(self, r):
        r = np.asarray(r, dtype=np.float64)
        r2 = r * r
        val = np.minimum(r2, np.minimum(1.0, (self.x + self.y - r2) / self.y))
        out = np.maximum(val, 0.0)
        if out.ndim == 0:
            return float(out)
        return out


def hat_g_at_zero(x: float, y: float) -> float:
    """Closed form of the transform at the origin: (x + y/2)*pi - pi/2."""
    return (x + 0.5 * y) * math.pi - 0.5 * math.pi


# j(z) = J2(z)/z^2.  For |z| <= 4 its power series (DLMF 10.2.2), whose
# first omitted term is below 3e-17 of j there.  Up to 25, the 64-point
# trapezoid rule on Bessel's integral J2(z) = (1/2pi) int_0^2pi cos(z sin t
# - 2t) dt (DLMF 10.9.2), whose aliasing error J62(z) + J66(z) is below
# 1e-18; it depends on |sin t| only (cos 2t = 1 - 2 sin^2 t), so the 64
# nodes fold onto t_k = 2*pi*k/64, k = 0..16.
_J2_SERIES = [0.25 / (math.factorial(k) * math.factorial(k + 2)) for k in range(15)]
_J2_NODES = np.sin(2.0 * math.pi / 64.0 * np.arange(17))
_J2_WEIGHTS = np.r_[1.0, np.full(15, 2.0), 1.0] / 32.0 * (1.0 - 2.0 * _J2_NODES**2)

# Beyond 25, Hankel's expansion (DLMF 10.17.3) with P and Q as polynomials
# in 1/z^2; the first omitted terms are below 1e-19 at z = 25.
# _J2_A[k] = a_k(2) of DLMF 10.17.1: a_0 = 1, a_k = a_{k-1} (16 - (2k - 1)^2) / 8k.
_J2_A = list(accumulate(range(1, 26), lambda a, k: a * (16 - (2 * k - 1) ** 2) / (8 * k),
                        initial=1.0))
# _J2_PQ[k] holds the y^k coefficients of P and Q, y = 1/z^2.
_J2_PQ = np.array([[(-1) ** m * _J2_A[2 * m], (-1) ** m * _J2_A[2 * m + 1]] for m in range(13)])


def _j2_over_z2(z):
    """J2(z)/z^2, elementwise, with J2 to within about 4e-16 absolute
    (checked against mpmath in the tests).  Keeps the shape of z."""
    z = np.abs(np.asarray(z, dtype=np.float64))
    out = np.empty_like(z)
    near, far = z <= 4.0, z > 25.0
    mid = ~(near | far)
    out[near] = polyval(-0.25 * z[near] ** 2, _J2_SERIES)
    out[mid] = _J2_WEIGHTS @ np.cos(_J2_NODES[:, None] * z[mid]) / z[mid] ** 2
    zf = z[far]
    y = 1.0 / (zf * zf)
    p, q = polyval(y, _J2_PQ)
    q /= zf
    cos, sin = np.cos(zf), np.sin(zf)
    # J2 = -sqrt(2/(pi z)) * (P cos(z - pi/4) - Q sin(z - pi/4))
    out[far] = (q * (sin - cos) - p * (cos + sin)) / np.sqrt(math.pi * zf) * y
    return out


def hankel_transform(g: TestFunctionG, xi: float) -> float:
    """Radial 2-D Fourier transform 2*pi * int r G(r) J0(2*pi*r*xi) dr.

    G is continuous and linear in r^2 on each piece, so integrating by parts
    twice (DLMF 10.6.6) leaves, with k = 2*pi*xi and j(z) = J2(z)/z^2,
    -4*pi * [j(k) - ((x + y)^2 j(k sqrt(x + y)) - x^2 j(k sqrt(x))) / y],
    which is hat_g_at_zero at xi = 0 (j(0) = 1/8).  The error is rounding,
    below 1e-15 * (x + y)^2 / y absolute, as the two outer terms cancel:
    at (x, y) = (1e6, 1e3) that scale is 1e-6, and for xi <= 1e-3 errors up
    to 1.4e-7 were measured against mpmath.
    """
    if xi < 0:
        raise ValueError("need xi >= 0")
    x, y = float(g.x), float(g.y)
    j1, jx, jr = _j2_over_z2(2.0 * math.pi * xi * np.array([1.0, math.sqrt(x), g.radius]))
    return float(-4.0 * math.pi * (j1 - ((x + y) ** 2 * jr - x * x * jx) / y))

"""Fourier-optimization engine: the bandlimited cosine family and the
Gaussian-polynomial family, the tail-penalty functionals, greedy search
over integer coefficient grids, and the prime-gap constant evaluator.

The bandlimited family is H(x) = cos(2*pi*x) * sum a_j/((2j-1)^2 - 16x^2),
dilated as F(x) = H(x/lambda).  Its transform is computed in closed form:
each term contributes (pi/(4m)) * (-1)^(j-1) * cos(pi*m*t/2) on [-1, 1]
(m = 2j-1) and vanishes outside, so F is Paley-Wiener bandlimited to
[-1/lambda, 1/lambda].  The L1 norm of H is closed-form too, from the sine
integral.  The Gaussian family F = P(x) exp(-pi*x^2) has its transform exact
in the Hermite eigenbasis and its integrals from one fixed Gauss-Legendre
rule (_fixed_rule), within 2.2e-16 of mpmath.  All are cross-validated
against independent oracles in the test suite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial import hermite as _herm

__all__ = [
    "BandlimitedFn",
    "GaussPolyFn",
    "FunctionalReport",
    "SearchResult",
    "eval_h",
    "hat_h",
    "h_l1_norm",
    "functional_report",
    "gap_constant",
    "greedy_search",
    "gauss_poly_hat_coeffs",
    "gauss_poly_report",
    "dn_estimate",
]

_POLE_GUARD = 1e-3
_TWO_PI = 2.0 * math.pi
_GAUSS_CUT = 8.0  # Gaussian-family integrals stop at |x| = 8: exp(-64 pi) ~ 1e-88
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)  # the Gaussian family's rule
_GL_PANEL = 0.25  # its widest panel: the width, not the order, sets the error


@dataclass(frozen=True)
class BandlimitedFn:
    """F(x) = H(x/lam) with H the cosine-over-quadratics sum for coeffs."""

    coeffs: tuple[float, ...]
    lam: float = 1.0

    def __post_init__(self):
        if not any(self.coeffs):
            raise ValueError("need at least one nonzero coefficient")
        if not 0.0 < self.lam <= 1.2:
            raise ValueError("need 0 < lam <= 1.2")

    def __call__(self, x):
        return eval_h(self.coeffs, np.asarray(x, dtype=np.float64) / self.lam)


@dataclass(frozen=True)
class GaussPolyFn:
    """F(x) = P(x) * exp(-pi*x^2), P given by ascending power coefficients."""

    poly_coeffs: tuple[float, ...]

    def __post_init__(self):
        if not any(self.poly_coeffs):
            raise ValueError("polynomial must not be identically zero")

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.polynomial.polynomial.polyval(x, np.asarray(self.poly_coeffs)) \
            * np.exp(-math.pi * x * x)


def eval_h(coeffs, x):
    """Evaluate H(x).  Within 1e-3 of its removable singularity x = m/4, the
    j-th term cos(2*pi*x)/(m^2 - 16x^2) (m = 2j - 1) comes from the exact
    identity (-1)^(j-1) (pi/2) sinc(2(x - m/4))/(m + 4x); elsewhere the quotient."""
    x_arr = np.asarray(x, dtype=np.float64)
    ax = np.abs(x_arr)
    cos_all = np.cos(_TWO_PI * ax)
    x16 = 16.0 * ax * ax
    out = np.zeros_like(ax)
    for j, aj in enumerate(coeffs, start=1):
        if aj == 0:
            continue
        m = 2 * j - 1
        delta = ax - 0.25 * m
        near = np.abs(delta) < _POLE_GUARD
        direct = cos_all / np.where(near, 1.0, m * m - x16)
        pole = (-1) ** (j - 1) * (math.pi / 2) * np.sinc(2.0 * delta) / (m + 4.0 * ax)
        out = out + aj * np.where(near, pole, direct)
    return float(out) if out.ndim == 0 else out


def _h_at_zero(coeffs) -> float:
    """H(0) = sum a_j/(2j-1)^2, summed in j order over the nonzero a_j with
    the same roundings as eval_h(coeffs, 0.0), at a fraction of its cost."""
    total = 0.0
    for j, aj in enumerate(coeffs, start=1):
        if aj:
            total += aj * (1.0 / (2 * j - 1) ** 2)
    return total


def hat_h(coeffs, t):
    """Transform of the undilated H: sum over j of
    a_j * (pi/(4m)) * (-1)^(j-1) * cos(pi*m*t/2) for |t| < 1, exactly 0 beyond."""
    t_arr = np.asarray(t, dtype=np.float64)
    at = np.abs(t_arr)
    inside = at < 1.0
    out = np.zeros_like(at)
    for j, aj in enumerate(coeffs, start=1):
        if aj == 0:
            continue
        m = 2 * j - 1
        k = math.pi / (4.0 * m) * (1.0 if j % 2 == 1 else -1.0)
        out = out + np.where(inside, aj * k * np.cos(0.5 * math.pi * m * at), 0.0)
    return float(out) if out.ndim == 0 else out


# ----- L1 norm of H ---------------------------------------------------------


def _si(x: float) -> float:
    """Sine integral Si(x), the integral of sin(t)/t over [0, x] (DLMF 6.2.9).

    The power series (DLMF 6.6.5) for |x| <= 4, where no term exceeds 4 in
    size.  Beyond, a Taylor step from the nearest multiple k*pi/2 = x0,
    whose Si comes from the table of _si_half_pi:
    Si(x0 + h) - Si(x0) is the integral over [0, h] of +-sin(t)/(x0 + t)
    (k even) or +-cos(t)/(x0 + t) (k odd), whose Taylor coefficients follow
    c_n = (f_n - c_(n-1))/x0 from those f_n of sin or cos; |h| <= pi/4 and
    x0 >= 3*pi/2, so they fall at least six-fold per term.  Within about
    1e-15 absolute of mpmath on [0, 2000].
    """
    ax = abs(x)
    if ax <= 4.0:
        x2 = x * x
        term = total = x
        n = 1
        while True:
            term *= -x2 / ((2 * n) * (2 * n + 1))
            add = term / (2 * n + 1)
            total += add
            if abs(add) < 1e-17:
                return total
            n += 1
    k = round(ax / (0.5 * math.pi))
    x0 = 0.5 * math.pi * k
    h = ax - x0
    c = total = 0.0
    inv_fact = 1.0  # 1/n!
    hp = h  # h^(n+1)
    n = 0
    while True:
        f_n = (-inv_fact if n & 2 else inv_fact) if (n ^ k) & 1 else 0.0
        c = (f_n - c) / x0
        add = c * hp / (n + 1)
        total += add
        if abs(add) < 1e-17 and inv_fact * abs(hp) < 1e-17:
            break
        n += 1
        inv_fact /= n
        hp *= h
    return math.copysign(_si_half_pi(k) + (-total if k & 2 else total), x)


def _si_far(x: float) -> float:
    """Si(x) for x > 4 from the continued fraction for E1(ix) = -Ci(x) +
    i(Si(x) - pi/2) (DLMF 6.5.5, 6.9), run by Lentz's method as in Numerical
    Recipes' cisi until a step changes it by less than 1e-16."""
    b = complex(1.0, x)
    c = 1e300
    d = h = 1.0 / b
    i = 1
    while True:
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta.real - 1.0) + abs(delta.imag) < 1e-16:
            break
        i += 1
    h *= complex(math.cos(x), -math.sin(x))
    return 0.5 * math.pi + h.imag


_SI_HALF_PI = [0.0]  # Si(k*pi/2) for k = 0, 1, ..., filled on first use


def _si_half_pi(k: int) -> float:
    """Si(k*pi/2) for k >= 0, memoised."""
    table = _SI_HALF_PI
    while len(table) <= k:
        x = 0.5 * math.pi * len(table)
        table.append(_si(x) if x <= 4.0 else _si_far(x))
    return table[k]


def _si_pair(m: int, x: float) -> tuple[float, float]:
    """Si(pi(m + 4x)/2) and Si(pi(m - 4x)/2): with s = (-1)^((m-1)/2), the
    j-th term cos(2*pi*x)/(m^2 - 16x^2) of H (m = 2j - 1) has the
    antiderivative Phi_j = (s/8m) (difference of the pair)."""
    return _si(0.5 * math.pi * (m + 4.0 * x)), _si(0.5 * math.pi * (m - 4.0 * x))


def _phi_weight(j: int) -> float:
    return (1.0 if j % 2 else -1.0) / (8.0 * (2 * j - 1))


@functools.lru_cache(maxsize=8)
def _quarter_grid(n_terms: int, x0: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges 0, the zeros (2i+1)/4 of cos(2*pi*x) below x0, and x0; and for
    j = 1..n_terms, Phi_j at the edges and its increments between them.

    At the zeros both Si arguments are multiples k*pi/2, gathered from the
    table of _si_half_pi; x0 takes _si_pair, since it may move off the grid.
    An increment is the difference of the two Si differences, so it rounds
    relative to its own size rather than to Phi_j ~ pi/(8m).
    """
    edges = np.array([0.0, *np.arange(0.25, x0, 0.5).tolist(), x0])
    k = np.rint(4.0 * edges).astype(int)  # Si(pi(m +- 4x)/2) = +-Si(|m +- k| pi/2)
    table = np.array([_si_half_pi(i) for i in range(k[-1] + 2 * n_terms)])
    phi, steps = [], []
    for j in range(1, n_terms + 1):
        m = 2 * j - 1
        plus, minus = table[m + k], np.sign(m - k) * table[np.abs(m - k)]
        plus[-1], minus[-1] = _si_pair(m, x0)
        phi.append(_phi_weight(j) * (plus - minus))
        steps.append(_phi_weight(j) * (np.diff(plus) - np.diff(minus)))
    return edges, np.array(phi), np.array(steps)


def _real_roots(polys, lo: float, hi: float) -> list[list[float]]:
    """For each polynomial of polys (ascending coefficients), its real roots
    in (lo, hi), ascending.  A coefficient below 1e-13 of its largest counts
    as zero; a linear polynomial is solved directly, a longer one by the
    eigenvalues of its companion matrix (numpy's polycompanion layout), one
    eigvals call per size; a root within 1e-9 of the real line counts as real."""
    roots: dict[int, list] = {}
    stacks: dict[int, list] = {}  # companion size -> [(index, coefficients / top)]
    for i, poly in enumerate(polys):
        scale = max(map(abs, poly), default=0.0)
        p = [float(c) if abs(c) > 1e-13 * scale else 0.0 for c in poly]
        while p and not p[-1]:
            p.pop()
        if len(p) == 2:
            roots[i] = [-p[0] / p[1]]
        elif len(p) > 2:
            stacks.setdefault(len(p) - 1, []).append((i, [c / p[-1] for c in p[:-1]]))
    for size, stack in stacks.items():
        index, columns = zip(*stack)
        mats = np.tile(np.eye(size, k=-1), (len(index), 1, 1))
        mats[:, :, -1] -= columns
        roots.update(zip(index, np.linalg.eigvals(mats).tolist()))
    return [sorted(r.real for r in roots.get(i, []) if abs(r.imag) < 1e-9 and lo < r.real < hi)
            for i in range(len(polys))]


def _rational_part_roots(tuples) -> list[list[float]]:
    """Positive x where sum a_j/(m_j^2 - 16x^2) vanishes, ascending, per tuple.

    Over the nonzero terms the sum is N(y) / prod_j (m_j^2 - 16y) in y = x^2,
    with N(y) = sum_j a_j prod_{k != j} (m_k^2 - 16y).  The a_j are first
    divided by a power of two near their largest size, which is exact and
    keeps N finite; the N of tuples with the same nonzero terms are built as
    the rows of one matrix, and their positive real roots return as sqrt(y).
    """
    numers = [[] for _ in tuples]
    patterns: dict[tuple, list[int]] = {}
    for i, coeffs in enumerate(tuples):
        patterns.setdefault(tuple(j for j, aj in enumerate(coeffs) if aj), []).append(i)
    for nonzero, index in patterns.items():
        a = np.array([[tuples[i][j] for j in nonzero] for i in index], dtype=np.float64)
        a = np.ldexp(a, -np.frexp(np.abs(a).max(axis=1, initial=0.0))[1][:, None])
        total = np.zeros(a.shape)
        for j in range(len(nonzero)):
            poly = [1.0]
            for k in nonzero[:j] + nonzero[j + 1:]:  # times (m_k^2 - 16y)
                poly = [(2 * k + 1) ** 2 * c1 - 16.0 * c0
                        for c0, c1 in zip([0.0, *poly], [*poly, 0.0])]
            total = total + a[:, j, None] * poly
        for i, row in zip(index, total.tolist()):
            numers[i] = row
    return [[math.sqrt(y) for y in ys] for ys in _real_roots(numers, 0.0, math.inf)]


def h_l1_norm(coeffs) -> float:
    """Integral of |H| over the line, with no quadrature.

    H is even, so this is twice the integral over [0, inf).  The zeros of
    cos(2*pi*x) and the sign changes of the rational part cut [0, X0] into
    pieces where H keeps one sign, so each piece is the difference |Phi(b) -
    Phi(a)| of the antiderivative Phi = sum a_j Phi_j (see _quarter_grid).
    The zeros and X0 = 40 lie on the quarter grid; only the sign changes,
    and X0 when it moves, need Si calls of their own.  On the five reference
    rows the result is within 5e-16 relative of mpmath.  X0 is 40, or 1.5 *
    (largest root) + 10 when a root lies beyond 39.  The tail beyond X0 uses
    the mean of |cos| against the exact integral of the rational part, valid
    once the rational part has constant sign; the neglected oscillatory
    remainder falls like X0^-3 and at X0 = 40 is 1.5e-9 to 1.2e-8 relative
    on the five reference rows, far below the acceptance tolerances here.
    """
    return _l1_norm(coeffs, _rational_part_roots([coeffs])[0])


def _l1_norm(coeffs, roots) -> float:
    """h_l1_norm given the sign changes of the rational part."""
    x0 = 40.0
    if roots and roots[-1] >= x0 - 1.0:
        x0 = 1.5 * roots[-1] + 10.0
    edges, grid_phi, grid_steps = _quarter_grid(len(coeffs), x0)
    terms = [(j, aj) for j, aj in enumerate(coeffs, start=1) if aj]
    pieces = np.abs(sum(aj * grid_steps[j - 1] for j, aj in terms)).tolist()
    # the sign changes split the pieces they fall in
    split: dict[int, list[float]] = {}
    for i, r in zip((np.searchsorted(edges, roots, side="right") - 1).tolist(), roots):
        split.setdefault(i, []).append(r)
    for i, inner in split.items():
        phi = [sum(aj * grid_phi[j - 1, i] for j, aj in terms)]
        for x in inner:
            pairs = [_si_pair(2 * j - 1, x) for j, _ in terms]
            phi.append(sum(aj * (_phi_weight(j) * (p - q)) for (j, aj), (p, q) in zip(terms, pairs)))
        phi.append(sum(aj * grid_phi[j - 1, i + 1] for j, aj in terms))
        pieces[i] = 0.0
        pieces += [abs(b - a) for a, b in zip(phi, phi[1:])]
    half_line = math.fsum(pieces)
    tail_main = math.fsum(
        aj / (8.0 * (2 * j - 1)) * math.log((4 * x0 - (2 * j - 1)) / (4 * x0 + (2 * j - 1)))
        for j, aj in enumerate(coeffs, start=1) if aj
    )
    return 2.0 * half_line + 2.0 * (2.0 / math.pi) * abs(tail_main)


# ----- functionals -----------------------------------------------------------


@dataclass(frozen=True)
class FunctionalReport:
    f_at_zero: float
    l1_norm: float
    tail_pos: float
    tail_abs: float
    A: float

    @property
    def j_plus(self) -> float:
        return (self.f_at_zero - self.A * self.tail_pos) / self.l1_norm

    @property
    def j_abs(self) -> float:
        return (abs(self.f_at_zero) - self.A * self.tail_abs) / self.l1_norm

    def record(self) -> dict:
        return {"f_at_zero": self.f_at_zero, "l1_norm": self.l1_norm,
                "tail_pos": self.tail_pos, "tail_abs": self.tail_abs,
                "A": self.A, "j_plus": self.j_plus, "j_abs": self.j_abs}


def _hat_roots(tuples) -> list[list[float]]:
    """Sign changes of H-hat in (0, 1), ascending, per tuple (all of one length).

    In c = cos(pi*t/2), H-hat is the Chebyshev series
    sum a_j (-1)^(j-1) (pi/(4m)) T_m(c).  Every T_m is odd, so the series
    over c is a polynomial in y = c^2: T_(2j-1)(c)/c = g_j(y) with
    g_0 = g_1 = 1 and g_(j+1) = (4y - 2) g_j - g_(j-1), one matrix row a
    tuple.  Its roots y in (0, 1) map back to t = (2/pi) acos(sqrt(y)); the
    root c = 0 (t = 1) is divided out.  A root where H-hat keeps its sign
    only splits a piece of one sign, which leaves the tails unchanged.
    """
    total = np.zeros((len(tuples), len(tuples[0]) if tuples else 0))
    g_prev, g = [1.0], [1.0]
    for j in range(1, total.shape[1] + 1):
        b = [(c[j - 1] if j % 2 else -c[j - 1]) * math.pi / (4.0 * (2 * j - 1)) for c in tuples]
        total[:, :j] += np.multiply.outer(b, g)
        g_prev, g = g, [4.0 * c0 - 2.0 * c1 - c2
                        for c0, c1, c2 in zip([0.0, *g], [*g, 0.0], [*g_prev, 0.0, 0.0])]
    return [[2.0 / math.pi * math.acos(math.sqrt(y)) for y in ys[::-1]]
            for ys in _real_roots(total.tolist(), 0.0, 1.0)]


def _hat_tails(coeffs, lam: float, roots=None) -> tuple[float, float]:
    """(positive-part, absolute) tail mass of F-hat outside [-1, 1].

    With F = H(./lam), substitution reduces both to integrals of H-hat over
    [lam, 1]; empty when lam >= 1.  The pieces between lam, the sign changes
    (roots, from _hat_roots when not given) and 1 are closed-form: [a, b]
    gives sum a_j/m^2 sin(m*pi*((1-a) + (1-b))/4) sin(m*pi*(b-a)/4), the
    antiderivative difference without its cancellation, with arguments
    measured from t = 1 so that pieces near 1 keep their relative accuracy.
    """
    if lam >= 1.0:
        return 0.0, 0.0
    terms = [(0.25 * math.pi * (2 * j - 1), aj / (2 * j - 1) ** 2)
             for j, aj in enumerate(coeffs, start=1) if aj]
    if roots is None:
        roots = _hat_roots([coeffs])[0]
    edges = [lam, *(r for r in roots if r > lam), 1.0]
    pieces = [math.fsum(w * math.sin(k * ((1.0 - a) + (1.0 - b))) * math.sin(k * (b - a))
                        for k, w in terms) for a, b in zip(edges, edges[1:])]
    return 2.0 * math.fsum(v for v in pieces if v > 0), 2.0 * math.fsum(map(abs, pieces))


def functional_report(fn, A: float) -> FunctionalReport:
    """F(0), the L1 norm, the two tail integrals, and the derived functional
    values for a bandlimited or Gaussian-polynomial function.  For the
    bandlimited family the norm and the tails are closed-form."""
    if isinstance(fn, GaussPolyFn):
        return gauss_poly_report(fn, A)
    if A < 1:
        raise ValueError("need A >= 1")
    coeffs, lam = fn.coeffs, fn.lam
    f0 = _h_at_zero(coeffs)
    l1 = lam * h_l1_norm(coeffs)
    tail_pos, tail_abs = _hat_tails(coeffs, lam)
    return FunctionalReport(f0, l1, tail_pos, tail_abs, float(A))


def gap_constant(fn, A: float, alpha: float, delta: Fraction, h: int) -> float:
    """Prime-gap interval constant 2*(delta+alpha)*h/delta * ||F||_1 /
    (F(0) - A * positive tail); raises when the function is inadmissible."""
    if h < 1:
        raise ValueError("need h >= 1")
    if alpha < 0:
        raise ValueError("need alpha >= 0")
    rep = functional_report(fn, A)
    denom = rep.f_at_zero - A * rep.tail_pos
    if denom <= 0:
        raise ValueError(f"inadmissible function: F(0) - A*tail = {denom:g} <= 0")
    return 2.0 * float((Fraction(delta) + Fraction(alpha).limit_denominator(10**9))
                       / Fraction(delta)) * h * rep.l1_norm / denom


# ----- greedy search ---------------------------------------------------------

_SEED_ANCHORS = [
    (68.0, 5.0, 1.0),
    (270.0, 21.0, 4.0),
    (297.0, 18.0, 1.0),
    (243.0, 9.0, -5.0),
    (81.0, -69.0, 0.0),
    (189.0, -63.0, -20.0),
]

_STEPS = (27.0, 9.0, 3.0, 1.0, -1.0, -3.0, -9.0, -27.0)


@dataclass(frozen=True)
class SearchResult:
    fn: BandlimitedFn
    report: FunctionalReport
    evaluations: int
    exhausted: bool


def _golden_max(fun, lo: float, hi: float, tol: float = 1e-5):
    """Golden-section maximization on [lo, hi]; returns (x, fun(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc > fd else (d, fd)


def greedy_search(A: float, n_terms: int = 3, budget: int = 4000) -> SearchResult:
    """Coordinate ascent over integer coefficient grids (steps +-1, 3, 9, 27)
    interleaved with golden-section refinement of the dilation on
    [0.1, 1.05], from a fixed deterministic seed list.  Budget (at least 1)
    caps the number of functional evaluations; exhaustion returns
    best-so-far with a flag."""
    if A < 1:
        raise ValueError("need A >= 1")
    if not 1 <= n_terms <= 5:
        raise ValueError("need 1 <= n_terms <= 5")
    if budget < 1:
        raise ValueError("need budget >= 1")
    lam_lo, lam_hi = 0.1, 1.05
    evals = 0
    exhausted = False
    memo: dict[tuple, tuple] = {}  # (F(0), ||H||_1, H-hat sign changes) per tuple; lam-free

    def fill(tuples):
        tuples = [c for c in tuples if any(c) and c not in memo]
        for c, x, t in zip(tuples, _rational_part_roots(tuples), _hat_roots(tuples)):
            memo[c] = (_h_at_zero(c), _l1_norm(c, x), t)

    def objective(coeffs, lam):
        nonlocal evals
        evals += 1
        f0, norm, roots = memo[coeffs]
        tp, _ = _hat_tails(coeffs, lam, roots)
        return (f0 - A * tp) / (lam * norm)

    seeds = [tuple([1.0] + [0.0] * (n_terms - 1))] + [
        tuple((list(c) + [0.0] * n_terms)[:n_terms]) for c in _SEED_ANCHORS
    ]
    fill(seeds)  # one batched root solve for the seeds, then one before each sweep
    best = (-math.inf, (), 0.0)

    def refine_lam(coeffs):
        # coarse bracket first: the objective need not be unimodal in lam
        grid = np.linspace(lam_lo, lam_hi, 20).tolist()
        vals = [objective(coeffs, g) for g in grid]
        i = int(np.argmax(vals))
        lo = grid[max(i - 1, 0)]
        hi = grid[min(i + 1, len(grid) - 1)]
        x, fx = _golden_max(lambda g: objective(coeffs, g), lo, hi)
        return (x, fx) if fx > vals[i] else (grid[i], vals[i])

    for coeffs in seeds:
        lam, j_cur = refine_lam(coeffs)
        improved = True
        while improved and evals < budget:
            improved = False
            for i in range(n_terms):
                cands = [coeffs[:i] + (coeffs[i] + step,) + coeffs[i + 1:] for step in _STEPS]
                if evals < budget:
                    fill(cands)  # a budget break mid-sweep leaves a few unevaluated
                cand_best = None
                for cand in cands:
                    if evals >= budget:
                        break
                    if not any(cand):
                        continue
                    j = objective(cand, lam)
                    if j > j_cur + 1e-12 and (cand_best is None or j > cand_best[0]):
                        cand_best = (j, cand)
                if cand_best is not None:
                    j_cur, coeffs = cand_best
                    improved = True
            if improved and evals < budget:
                lam, j_new = refine_lam(coeffs)
                j_cur = max(j_cur, j_new)
        # j within the sweep's 1e-12 band is a tie, which the smaller tuple wins
        if j_cur > best[0] + 1e-12 or (j_cur >= best[0] - 1e-12 and coeffs < best[1]):
            best = (j_cur, coeffs, lam)
        if evals >= budget:
            exhausted = True
            break

    fn = BandlimitedFn(best[1], best[2])
    return SearchResult(fn, functional_report(fn, A), evals, exhausted)


# ----- Gaussian-polynomial family --------------------------------------------


def gauss_poly_hat_coeffs(poly_coeffs) -> np.ndarray:
    """Power-basis coefficients Q with F-hat(t) = Q(t) * exp(-pi*t^2).

    The basis H_k(sqrt(2*pi) x) exp(-pi x^2) (physicists' Hermite) is an
    eigenbasis of the transform with eigenvalues (-i)^k, so the transform is
    exact coefficient arithmetic.
    """
    p = np.asarray(poly_coeffs, dtype=np.complex128)
    k = np.arange(p.size)
    q = p * (2.0 * math.pi) ** (-k / 2.0)
    herm_c = _herm.poly2herm(q)
    herm_c = herm_c * (-1j) ** np.arange(herm_c.size)
    r = _herm.herm2poly(herm_c)
    return r * (2.0 * math.pi) ** (np.arange(r.size) / 2.0)


def _fixed_rule(f, lo: float, hi: float, cuts=()) -> float:
    """Integral of f over [lo, hi], f analytic off the cuts.  A cut x + iy
    splits at x and, for y != 0, at x +- d, d = 1/8, 1/16, ... > |y|/2 and
    2^-30, so panels shrink toward it; the pieces take equal panels at most
    _GL_PANEL wide, and f takes every panel's Gauss-Legendre nodes at once."""
    edges = {lo, hi}
    for z in cuts:
        x, y, d = z.real, abs(z.imag), 0.5 * _GL_PANEL
        edges.add(x)
        while y and d > y / 2 and d > 2.0**-30:
            edges.update((x - d, x + d))
            d /= 2
    edges = sorted(e for e in edges if lo <= e <= hi)
    ends = np.concatenate([np.linspace(a, b, math.ceil((b - a) / _GL_PANEL) + 1)[:-1]
                           for a, b in zip(edges, edges[1:])] + [[hi]])
    mid, half = 0.5 * (ends[1:] + ends[:-1]), 0.5 * np.diff(ends)
    vals = f((mid[:, None] + half[:, None] * _GL_NODES).ravel()).reshape(mid.size, -1)
    return math.fsum((half * (vals @ _GL_WEIGHTS)).tolist())


def gauss_poly_report(fn: GaussPolyFn, A: float) -> FunctionalReport:
    """Functional report for F = P(x) exp(-pi x^2) with the transform taken
    exactly in the Hermite eigenbasis.  The positive-part tail uses the real
    part of F-hat (exact for even F; F-hat is complex Hermitian otherwise)."""
    l1 = _fixed_rule(lambda x: np.abs(fn(x)), -_GAUSS_CUT, _GAUSS_CUT,
                     _real_roots([fn.poly_coeffs], -_GAUSS_CUT, _GAUSS_CUT)[0])
    hat = gauss_poly_hat_coeffs(fn.poly_coeffs)
    hat_vals = lambda t: np.polynomial.polynomial.polyval(t, hat) * np.exp(-math.pi * t * t)
    # |F-hat| is singular at the complex roots of Q, Re F-hat bends at the real roots of Re Q
    tail_abs = 2.0 * _fixed_rule(lambda t: np.abs(hat_vals(t)), 1.0, _GAUSS_CUT,
                                 np.roots(hat[::-1]))
    tail_pos = 2.0 * _fixed_rule(lambda t: np.maximum(hat_vals(t).real, 0.0), 1.0, _GAUSS_CUT,
                                 _real_roots([hat.real], 1.0, _GAUSS_CUT)[0])
    return FunctionalReport(float(fn.poly_coeffs[0]), l1, tail_pos, tail_abs, float(A))


def _concentration(coeffs) -> float:
    """int_{-1}^{1} |F| / int |F| for F = P(x) exp(-pi x^2), P = coeffs."""
    abs_fn = lambda x: np.abs(GaussPolyFn(tuple(coeffs))(x))
    roots = _real_roots([coeffs], -_GAUSS_CUT, _GAUSS_CUT)[0]
    inner, total = (_fixed_rule(abs_fn, -x, x, roots) for x in (1.0, _GAUSS_CUT))
    return inner / total


def dn_estimate(n: int, budget: int = 3000) -> float:
    """Lower estimate of the best concentration ratio
    int_{-1}^{1} |F| / int |F| over F = P(x) exp(-pi x^2), deg P <= n,
    by coordinate ascent on the coefficient sphere (monotone in n since the
    search for degree d starts from the degree d-1 optimum)."""
    if n < 0:
        raise ValueError("need n >= 0")
    coeffs = [1.0]
    best, evals = _concentration(coeffs), 1
    for deg in range(1, n + 1):
        coeffs = coeffs + [0.0]
        for step in (0.5, 0.1, 0.02):
            improved = True
            while improved and evals < budget:
                improved = False
                for i in range(len(coeffs)):
                    for sgn in (1.0, -1.0):
                        if evals >= budget:
                            break
                        cand = list(coeffs)
                        cand[i] += sgn * step
                        norm = math.sqrt(sum(c * c for c in cand))
                        if norm == 0.0:
                            continue
                        cand = [c / norm for c in cand]
                        r = _concentration(cand)
                        evals += 1
                        if r > best + 1e-12:
                            best, coeffs = r, cand
                            improved = True
    return best

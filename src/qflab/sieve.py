"""Selberg-sieve upper bounds, short-interval prime-count bounds, and
prime-gap scans over primes represented by a form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arith import _clear_odd_composites, _local_factors, prime_mask
from .forms import (QuadraticForm, delta_f, enumerate_reduced_forms, is_reduced, reduce_form,
                    representation_count)
from .latticesums import (BudgetError, _floor_x, _lattice_rows, _row_bounds, _window_histogram,
                          congruence_sum_exact)

__all__ = [
    "SieveBound",
    "BTBound",
    "selberg_j",
    "sieve_upper_bound",
    "sieved_sum_exact",
    "represented_mask",
    "represented_primes",
    "count_represented_primes",
    "bt_theoretical_bound",
    "cor_brun_bound",
    "prime_gap_scan",
    "normalized_gaps",
]

_MASK_BUDGET = 300_000_000
_MARK_BLOCK = 1 << 18  # odd entries marked at a time: 256 KiB, in L2 with the block's points
_SHORT_TERMS = 8
# the largest z: sieve bound walks the moduli below z^2 (7.5 s, 404 MB at z = 4096)
_Z_LIMIT = 4096


def _sieve_primes(z: float) -> list[int]:
    """The primes p <= z, refusing z > _Z_LIMIT before any allocation."""
    if z > _Z_LIMIT:
        raise BudgetError(f"z = {z:g} exceeds the sieve level limit {_Z_LIMIT}")
    return np.flatnonzero(prime_mask(int(z))).tolist()


def _sieve_walk(f: QuadraticForm, z: float, bound: float) -> list[tuple[int, int, int, int]]:
    """(ell, k, N, M) for each squarefree ell < bound, built from the primes
    p <= z, that splits as d * (ell/d) with both parts below z, depth first
    in pre-order from ell = 1: each ell is followed by its multiples ell * p
    with p beyond ell's largest prime.  k counts ell's primes, N is the
    product of N(p) = p + chi(p)*(p - 1) over them and M that of p^2 - N(p),
    so g(ell) = N/ell^2 and h(ell) = prod of g(p)/(1 - g(p)) = N/M.

    Each ell carries its divisors below z, and ell * p adds d * p for each
    with d * p < z; ell splits iff ell // (the largest) < z.  No multiple of
    an ell that does not split splits, so the walk stops there: any divisor
    below z of ell * q either divides ell or is d * q with d | ell, and
    leaves a cofactor of at least ell/d >= z."""
    primes = _sieve_primes(z)
    n_p = _local_factors(f.D, primes)
    nodes = []

    def walk(start: int, ell: int, k: int, n: int, m: int, divs: list[int]):
        nodes.append((ell, k, n, m))
        for i in range(start, len(primes)):
            p = primes[i]
            nxt = ell * p
            if nxt >= bound:
                break
            child = divs + [d * p for d in divs if d * p < z]
            if nxt // max(child) < z:
                walk(i + 1, nxt, k + 1, n * n_p[i], m * (p * p - n_p[i]), child)

    walk(0, 1, 0, 1, 1, [1])
    return nodes


def selberg_j(f: QuadraticForm, z: float) -> Fraction:
    """J = sum of h(ell) over squarefree ell < z built from primes <= z,
    where h(ell) = prod over p | ell of g(p)/(1 - g(p)).  Exact rational.

    Every weight is finite: g(p) = (p + chi(p)*(p - 1))/p^2 is (2p - 1)/p^2,
    1/p or 1/p^2 for chi(p) = 1, 0, -1, each below 1 for p >= 2."""
    if z < 2:
        raise ValueError("need z >= 2")
    return _j_sum(_sieve_walk(f, z, z), z)


def _j_sum(nodes, z: float) -> Fraction:
    """J = sum of h(ell) = N/M over the walk's nodes with ell < z."""
    return sum((Fraction(n, m) for ell, _, n, m in nodes if ell < z), start=Fraction(0))


@dataclass(frozen=True)
class SieveBound:
    main: float
    error_sum: float
    x: float
    y: float
    z: float

    @property
    def bound(self) -> float:
        return self.main + self.error_sum

    def record(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "main": self.main,
                "error_sum": self.error_sum, "bound": self.bound}


def sieve_upper_bound(f: QuadraticForm, x: float, y: float, z: float) -> SieveBound:
    """Selberg upper bound for the r_f-weighted count of n in (x-y, x] that
    are coprime to every prime <= z.

    Main term (2*pi*y/sqrt(D))/J; the remainder sums tau_3(ell)*|E_ell| over
    the moduli the sieve weights can actually reach.  Each E_ell is exact:
    its interval count sums a progression of the window's r_f histogram,
    whose total is checked against two full-ellipse counts.
    """
    if z < 2:
        raise ValueError("need z >= 2")
    if not 0 <= y <= x:  # NaN in x or y as well
        raise ValueError("need 0 <= y <= x")
    X = _floor_x(x)
    g = reduce_form(f)
    _lattice_rows(g, X)  # only the refusal, which comes when called: before the moduli
    moduli = _sieve_walk(f, z, z * z)
    sd = math.sqrt(f.D)
    main = 2.0 * math.pi * y / sd / float(_j_sum(moduli, z))
    ells = np.array([ell for ell, _, _, _ in moduli], dtype=np.int64)
    intervals = np.zeros(len(moduli), dtype=np.int64)
    for n0, r in _window_histogram(g, math.floor(x - y), X):
        # a progression of at most _SHORT_TERMS terms in the block is summed
        # with the others alike, one gather per term; longer ones are strided
        short = ells * _SHORT_TERMS >= r.size
        step = ells[short]
        idx = -n0 % step
        padded = np.append(r, 0)  # index r.size stands for any past the end
        gathered = np.zeros(step.size, dtype=np.int64)
        for _ in range(_SHORT_TERMS):
            gathered += padded[np.minimum(idx, r.size)]
            idx += step
        intervals[short] += gathered
        intervals[~short] += np.array([r[-n0 % ell::ell].sum() for ell in ells[~short].tolist()],
                                      dtype=np.int64)
    intervals = intervals.tolist()
    # the ell = 1 count (moduli[0]) is the whole window, which two
    # full-ellipse counts give by row lengths alone, without binning points
    total = congruence_sum_exact(g, 1, x) - congruence_sum_exact(g, 1, x - y)
    if intervals[0] != total:
        raise RuntimeError(f"window histogram holds {intervals[0]} points, "
                           f"the lattice count {total}")
    err = 0.0
    for (ell, k, n, _), interval in zip(moduli, intervals):
        g_ell = n / (ell * ell)  # int true division: correctly rounded
        e_ell = interval - 2.0 * math.pi * y * g_ell / sd
        err += 3**k * abs(e_ell)
    return SieveBound(main, err, x, y, z)


def sieved_sum_exact(f: QuadraticForm, x: float, y: float, z: float) -> int:
    """Exact r_f-weighted count of n in (x-y, x] coprime to every prime <= z:
    the window's r_f histogram summed under a coprimality mask.  It shares
    no sieve weights with the Selberg bound, which is validated against it;
    the histogram itself is checked against brute-force r_f in the tests."""
    X = _floor_x(x)
    if y != y:
        raise ValueError("need y to be a number, not NaN")
    primes = _sieve_primes(z)
    if X < 1:
        return 0
    total = 0
    for n0, r in _window_histogram(reduce_form(f), _floor_x(min(x - y, X)), X):
        coprime = np.ones(r.size, dtype=bool)
        for p in primes:
            coprime[-n0 % p::p] = False
        total += int(r[coprime].sum())
    return total


def represented_mask(f: QuadraticForm, x: float) -> np.ndarray:
    """Boolean array m with m[n] True iff 1 <= n <= x is represented by f:
    r_f(n) > 0 from the window (0, x] of the r_f histogram."""
    X = _floor_x(x)
    if X > _MASK_BUDGET:
        raise BudgetError(f"representation mask of size {X} exceeds budget")
    g = reduce_form(f)
    _lattice_rows(g, X)  # only the refusal, which comes when called: before the mask
    mask = np.zeros(max(X + 1, 1), dtype=bool)
    for n0, r in _window_histogram(g, 0, X):
        mask[n0:n0 + r.size] = r > 0
    return mask


def _marked_values(f: QuadraticForm, x: float) -> np.ndarray:
    """The odd values n <= x of f as a boolean mask m, m[n >> 1] for n; entry
    0 (n = 1) is left False.

    The rows v >= 0 of the reduced form cover every value, since f(-u, -v)
    = f(u, v).  When a | b (b = 0 or b = a), u -> -u - (b/a)v maps each row
    onto itself with the same values, so only u >= -((b/a)v // 2) is marked.
    When also a = c, the forms (a, 0, a) and (a, a, a), the swap
    (u, v) -> (v, u) preserves f, and only u >= v is marked.  Every point
    of the domain above with u < v has a partner of the same value with
    u >= v >= 0: for 0 <= u < v it is the swap (v, u); for b = a and
    -(v // 2) <= u < 0 it is (u + v, -u), an automorphism of a(u^2 + uv +
    v^2), with u + v >= -u since 2u >= -v (Cohen, GTM 138, 5.3).

    As u^2 = u (mod 2), f(u, v) = u(a + bv) + cv (mod 2): if a + bv is odd, f
    is odd at u = 1 + cv (mod 2); if not, at every u (cv odd) or at none.

    f grows with u from u0 = ceil(-bv/2a), the cut above when a | b; when not,
    the rest of row v, u < u0, is row -v from its u0 on, mirrored.  These
    half-rows mark the mask one block of _MARK_BLOCK entries at a time, each
    from its last point below the block to its last u with f <= 2k1 - 1, the
    block's top value, by _row_bounds.  So each scatter stays in the block,
    in L2 with the block's int32 points, where a whole row's spans the mask
    (primesieve's cache-sized segments).  int32 is exact under _MASK_BUDGET:
    on the ellipse f <= x, |au|, |bv| <= 2x and |(au + bv)u|, cv^2 <= 4x/3."""
    X = _floor_x(x)
    if X > _MASK_BUDGET:
        raise BudgetError(f"representation mask of size {X} exceeds budget")
    if X < 1:
        return np.zeros(0, dtype=bool)
    g = reduce_form(f)
    a, b, c = g.a, g.b, g.c
    v, lo, hi = (np.concatenate(t) for t in zip(*_lattice_rows(g, X)))  # refused before the mask
    mask = np.zeros((X + 1) // 2, dtype=bool)
    if b % a:  # row -v's u-range is row v's mirrored, [-hi, -lo]
        v, hi = np.concatenate((v, -v[1:])), np.concatenate((hi, -lo[1:]))
    u = -((b * v) // (2 * a))  # u0 = ceil(-bv/2a)
    if a == c and b % a == 0:
        u = np.maximum(u, v)
    step = 1 + ((a + b * v) & 1)
    u += np.where(step == 2, (1 + c * v - u) & 1, 0)  # each half-row's first odd value
    keep = ((step == 2) | (c * v & 1 == 1)) & (u <= hi)
    v, u, step = v[keep], u[keep], step[keep]
    bv, cvv, st = (t.astype(np.int32) for t in (b * v, c * v * v, step))
    for k0 in range(0, mask.size if v.size else 0, _MARK_BLOCK):  # a half-row has a <= 4x/3
        hi = _row_bounds(g, 2 * min(k0 + _MARK_BLOCK, mask.size) - 1, v)[1]
        count = np.maximum((hi - u) // step + 1, 0)
        first = np.cumsum(count) - count
        w = np.repeat(st, count) * np.arange(first[-1] + count[-1], dtype=np.int32)
        w += np.repeat((u - step * first).astype(np.int32), count)
        n = a * w + np.repeat(bv, count)
        n *= w
        n += np.repeat(cvv, count)
        mask[(n >> 1).astype(np.intp)] = True
        u += step * count
    mask[0] = False
    return mask


def _represented_prime_flags(f: QuadraticForm, x: float) -> np.ndarray:
    """m[k] True iff 2k + 1 <= x is a prime that f represents; m[0] (n = 1) stands for 2."""
    X = _floor_x(x)
    m = _clear_odd_composites(_marked_values(f, X))
    m[:1] = X >= 2 and representation_count(f, 2) > 0
    return m


def represented_primes(f: QuadraticForm, x: float) -> np.ndarray:
    """Sorted primes <= x represented by f."""
    return np.maximum(2 * np.flatnonzero(_represented_prime_flags(f, x)) + 1, 2)  # m[0] is 2


def count_represented_primes(f: QuadraticForm, x: float) -> int:
    """pi_f(x): number of primes <= x represented by f."""
    return int(np.count_nonzero(_represented_prime_flags(f, x)))


@dataclass(frozen=True)
class BTBound:
    constant: float
    range_ok: bool
    theta: float


def bt_theoretical_bound(f: QuadraticForm, x: float, y: float, variant: str,
                         eps: float = 0.01) -> BTBound:
    """Leading Brun-Titchmarsh-type constant for short-interval prime counts,
    plus a flag for whether (x, y) lies in the variant's validity range.

    Variants by interval-length regime: "cuberoot_range" (y down to
    ~x^(1/3), constant 4/(1-theta)), "mid_range" (x^(4/9) <= y <= x^(3/5),
    constant 7/(1-theta)), "sqrt_range" (y down to ~x^(1/2), constant
    2/(1-theta)).  Out-of-range inputs are flagged, not rejected, so
    constant-vs-range landscapes can be charted.
    """
    if not is_reduced(f):
        raise ValueError("form must be reduced")
    if x <= 1 or y <= 1:
        raise ValueError("need x > 1 and y > 1")
    a, D = f.a, f.D
    lx, ly, lD, la = math.log(x), math.log(y), math.log(D), math.log(a)
    slack = 1e-9  # boundary comparisons in log space
    if variant == "cuberoot_range":
        if not 0 < eps < 0.05:
            raise ValueError("need 0 < eps < 1/20 for cuberoot_range")
        theta = lx / (3 * ly) + (4.0 / 3.0 + eps) * lD / ly - la / ly
        numer = 4.0
        range_ok = (2 * lD - la + (1.0 / 3.0 + eps) * lx <= ly + slack
                    and ly <= (4.0 / 9.0) * lx + slack)
    elif variant == "mid_range":
        theta = lx / (4 * ly) + (31.0 / 12.0) * lD / ly - (7.0 / 4.0) * la / ly
        numer = 7.0
        range_ok = ((4.0 / 9.0) * lx <= ly + slack
                    and ly <= 0.6 * lx + slack and lx >= 18 * lD - slack)
    elif variant == "sqrt_range":
        if eps <= 0:
            raise ValueError("need eps > 0 for sqrt_range")
        theta = lx / (2 * ly) + (0.75 + eps / 4.0) * lD / ly - la / (2 * ly)
        numer = 2.0
        range_ok = ((0.5 + eps) * (2 * lD - la + lx) <= ly + slack
                    and ly <= lx + slack)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return BTBound(numer / (1.0 - theta), bool(range_ok), theta)


def cor_brun_bound(f: QuadraticForm, x: float) -> float:
    """Leading term 28 * delta_f * sqrt(x) / (h(-D) * log x) bounding
    pi_f(x + sqrt(x)) - pi_f(x)."""
    if x < 3:
        raise ValueError("need x >= 3")
    return 28.0 * float(delta_f(f)) * math.sqrt(x) / (enumerate_reduced_forms(f.D).h * math.log(x))


def prime_gap_scan(f: QuadraticForm, X: float,
                   min_p: int = 100) -> tuple[int, np.ndarray, np.ndarray]:
    """Consecutive represented primes up to X with normalized gaps
    (p' - p)/(sqrt(p) log p); the maximum is taken over p >= min_p (over
    all p when no pair starts there) to keep small-prime log noise out.
    Returns (i, primes, gaps): primes is the sorted array of represented
    primes, gaps = normalized_gaps(primes) holds the gap of each
    pair (primes[k], primes[k + 1]), and i indexes the first maximum."""
    primes = represented_primes(f, X)
    if primes.size < 2:
        raise ValueError(f"fewer than two represented primes up to {X:g}")
    gaps = normalized_gaps(primes)
    first = int(np.searchsorted(primes[:-1], min_p))
    if first == gaps.size:
        first = 0
    return first + int(np.argmax(gaps[first:])), primes, gaps


def normalized_gaps(ps) -> np.ndarray:
    """(q - p)/(sqrt(p) log p) for each consecutive pair (p, q) of ps, a
    list or array of ints below 2^63, bit for bit as the scalar
    (q - p)/(math.sqrt(p) * math.log(p)) gives it: the int-to-float
    conversions, sqrt, * and / are correctly rounded in numpy as in math.
    The logs come from math.log, since np.log differs from it in the last
    ulp on some p; math.log takes an int at its nearest double, so it is
    handed the doubles numpy rounds p to, which are the same."""
    arr = np.asarray(ps, dtype=np.int64)
    p = arr[:-1]
    pf = p.astype(np.float64)
    logs = np.fromiter(map(math.log, pf.tolist()), dtype=np.float64, count=pf.size)
    return (arr[1:] - p) / (np.sqrt(pf) * logs)

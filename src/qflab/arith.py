"""Character and multiplicative-function arithmetic.

Kronecker symbol, the multiplicative density g attached to a form via its
character, the exact residue-count density that extends it to arbitrary
moduli, L(1, chi) by accelerated period sums, the analytic class number,
a prime sieve, and small divisor functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .forms import QuadraticForm, enumerate_reduced_forms

__all__ = [
    "ConvergenceError",
    "ConsistencyError",
    "kronecker",
    "DensityG",
    "g_squarefree",
    "residue_density",
    "is_squarefree",
    "is_fundamental",
    "factorize",
    "divisor_tau",
    "divisor_tau3",
    "dirichlet_l1",
    "class_number_analytic",
    "prime_mask",
]


class ConvergenceError(RuntimeError):
    """Series acceleration failed to reach the requested tolerance."""


class ConsistencyError(RuntimeError):
    """Analytic class number disagrees with exact enumeration."""


def kronecker(m: int, n: int) -> int:
    """Kronecker symbol (m/n) for n >= 1, via quadratic reciprocity."""
    if n < 1:
        raise ValueError("need n >= 1")
    result = 1
    if n % 2 == 0:
        if m % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                result = -result
    # Jacobi loop on odd n
    m %= n
    while m:
        while m % 2 == 0:
            m //= 2
            if n % 8 in (3, 5):
                result = -result
        m, n = n, m
        if m % 4 == 3 and n % 4 == 3:
            result = -result
        m %= n
    return result if n == 1 else 0


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {p: exponent}."""
    if n < 1:
        raise ValueError("need n >= 1")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorize(n).values()) if n > 1 else n == 1


def is_fundamental(D: int) -> bool:
    """True when -D is a fundamental discriminant (D >= 3)."""
    if D < 3:
        return False
    if D % 4 == 3:
        return is_squarefree(D)
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (1, 2) and is_squarefree(m)
    return False


def divisor_tau(n: int) -> int:
    """Number of divisors."""
    out = 1
    for e in factorize(n).values():
        out *= e + 1
    return out


def divisor_tau3(n: int) -> int:
    """Number of ordered triples (d1, d2, d3) with d1*d2*d3 = n."""
    out = 1
    for e in factorize(n).values():
        out *= (e + 1) * (e + 2) // 2
    return out


@dataclass(frozen=True)
class DensityG:
    """Multiplicative density of multiples among values of a form.

    g(p) = (1/p) * (1 + chi(p) - chi(p)/p) with chi the Kronecker symbol
    for -D; extended multiplicatively over squarefree arguments.  For
    non-squarefree moduli use residue_density, which counts residue pairs
    exactly.
    """

    form: QuadraticForm

    @property
    def D(self) -> int:
        return self.form.D

    def chi(self, n: int) -> int:
        return kronecker(-self.D, n)

    def at_prime(self, p: int) -> Fraction:
        ch = self.chi(p)
        return Fraction(p + ch * p - ch, p * p)

    def at_squarefree(self, ell: int) -> Fraction:
        if ell < 1:
            raise ValueError("need ell >= 1")
        primes = factorize(ell)
        if any(e > 1 for e in primes.values()):
            raise ValueError(f"{ell} is not squarefree; use residue_density")
        return math.prod((self.at_prime(p) for p in primes), start=Fraction(1))


def g_squarefree(f: QuadraticForm, ell: int) -> Fraction:
    """Exact rational g(ell) for squarefree ell."""
    return DensityG(f).at_squarefree(ell)


_RESIDUE_BLOCK = 1 << 16
_RESIDUE_ELL_LIMIT = 1 << 21


def residue_density(f: QuadraticForm, ell: int) -> Fraction:
    """(1/ell^2) * #{(u, v) in [0, ell)^2 : ell | f(u, v)}, exact; ell < 2^21."""
    return Fraction(int(_residue_counts([f.triple()], ell)[0]), ell * ell)


def _residue_counts(abc, ell: int) -> np.ndarray:
    """#{(u, v) in [0, ell)^2 : ell | f(u, v)} for each form (a, b, c) in abc."""
    rows = [np.count_nonzero(m, axis=1) for m in _residue_rows(abc, ell)]
    return np.concatenate(rows).reshape(-1, ell).sum(axis=1)


def _residue_rows(abc, ell: int):
    """Yield the indicators m[v, u] = (ell | f(u, v)) over [0, ell)^2 of the
    forms f = (a, b, c), the rows of the (F, 3) array abc, stacked form by
    form (form 0's rows v = 0..ell-1, then form 1's, ...), as boolean
    blocks of consecutive stacked rows.

    Each block holds at most _RESIDUE_BLOCK cells (one row when a row alone
    is longer), so a block may hold the end of one form's rows and the start
    of the next.  The coefficients are reduced mod ell first, so every
    product stays below ell^3 and is exact in int64 for ell < 2^21; larger
    ell is refused with ValueError before anything is allocated.
    """
    if ell < 1:
        raise ValueError("need ell >= 1")
    if ell >= _RESIDUE_ELL_LIMIT:
        raise ValueError(f"ell = {ell} too large for exact 64-bit residue counting "
                         "(need ell < 2^21)")
    a, b, c = (np.array(abc, dtype=object).reshape(-1, 3) % ell).astype(np.int64).T
    # the grid in int32 where ell^3 fits: its remainder is several times faster
    cell = np.int32 if ell ** 3 < 1 << 31 else np.int64
    u = np.arange(ell, dtype=cell)
    u2 = u * u % ell
    step = max(1, _RESIDUE_BLOCK // ell)
    for k0 in range(0, len(a) * ell, step):
        i, v = np.divmod(np.arange(k0, min(k0 + step, len(a) * ell)), ell)
        # a*u^2 + (b*v)*u + c*v^2 with every factor reduced below ell
        A, B, C = (t.astype(cell)[:, None] for t in (a[i], b[i] * v % ell, c[i] * v * v % ell))
        yield (A * u2 + B * u + C) % ell == 0


def _chi_period(D: int) -> np.ndarray:
    """chi_{-D}(n) for n = 1..D (the character has period D when -D is fundamental),
    as the product of the characters of the prime discriminants dividing -D
    (Cohen, GTM 138, 5.1): the Legendre symbol (n/p), from the squares mod p,
    for each odd p | D; and, for even D, that of -4, 8 or -8, from n mod 8."""
    n = np.arange(1, D + 1)
    chi = np.ones(D, dtype=np.int64)
    odd_primes = [p for p in factorize(D) if p > 2]
    for p in odd_primes:
        legendre = -np.sign(np.arange(p))  # 0 at n = 0 mod p, -1 off the squares
        legendre[np.arange(1, p) ** 2 % p] = 1
        chi *= legendre[n % p]
    odd = math.prod(odd_primes)
    two = -D // (odd if odd % 4 == 1 else -odd)
    if two != 1:
        chi *= np.array([kronecker(two, m) for m in range(8, 16)])[n % 8]
    return chi.astype(np.float64)


def dirichlet_l1(D: int, tol: float = 1e-10, max_level: int = 13) -> float:
    """L(1, chi_{-D}) = sum chi(n)/n for fundamental -D.

    The partial sum over k full character periods differs from the limit by
    an asymptotic series in 1/k (the per-period remainder has no 1/k^0 term
    since each period of chi sums to zero), so Richardson extrapolation over
    geometrically doubled period counts k = 1, 2, 4, ... converges fast and
    stably; iterate until two successive extrapolants agree within tol.
    """
    if not is_fundamental(D):
        raise ValueError(f"-{D} is not a fundamental discriminant")
    chi = _chi_period(D)
    partial = 0.0
    k_prev = 0
    xs: list[float] = []
    ys: list[float] = []
    prev = None
    for level in range(max_level):
        k = 1 << level
        n = np.arange(k_prev * D + 1, k * D + 1, dtype=np.float64)
        # numpy's own pairwise sum, not a BLAS dot, so the value does not
        # depend on the BLAS thread count
        partial += float(np.sum((1.0 / n).reshape(k - k_prev, D) * chi))
        k_prev = k
        xs.append(1.0 / k)
        ys.append(partial)
        if level < 2:
            continue
        est = _neville_at_zero(xs, ys)
        if prev is not None and abs(est - prev) < 0.5 * tol:
            return est
        prev = est
    raise ConvergenceError(
        f"L(1, chi) did not reach tol={tol} within 2^{max_level - 1} periods")


def _neville_at_zero(xs, ys) -> float:
    """Neville polynomial extrapolation of (xs, ys) to x = 0."""
    t = list(ys)
    n = len(t)
    for j in range(1, n):
        for i in range(n - j):
            t[i] = (xs[i + j] * t[i] - xs[i] * t[i + 1]) / (xs[i + j] - xs[i])
    return t[0]


def class_number_analytic(D: int, tol: float = 1e-10) -> int:
    """h(-D) = w*sqrt(D)*L(1,chi)/(2*pi) for fundamental -D, cross-checked
    against exact enumeration."""
    from .forms import unit_count

    w = unit_count(D)
    value = w * math.sqrt(D) * dirichlet_l1(D, tol=tol) / (2.0 * math.pi)
    h = round(value)
    h_exact = len(enumerate_reduced_forms(D))
    if h != h_exact:
        raise ConsistencyError(
            f"analytic h(-{D}) = {value:.6f} rounds to {h}, enumeration gives {h_exact}"
        )
    return h


def prime_mask(x: int) -> np.ndarray:
    """Boolean array m of length x+1 with m[n] True iff n is prime."""
    if x < 1:
        return np.zeros(max(x + 1, 1), dtype=bool)
    mask = np.ones(x + 1, dtype=bool)
    mask[:2] = False
    if x >= 4:
        mask[4::2] = False
    for p in range(3, math.isqrt(x) + 1, 2):
        if mask[p]:
            mask[p * p :: 2 * p] = False
    return mask

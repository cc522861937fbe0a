"""Character and multiplicative-function arithmetic.

Kronecker symbol, the multiplicative density g attached to a form via its
character, the exact residue-count density that extends it to arbitrary
moduli, L(1, chi) from Dirichlet's finite formula, the analytic class
number, a prime sieve, and small divisor functions.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .forms import QuadraticForm, enumerate_reduced_forms, unit_count

__all__ = [
    "ConsistencyError",
    "kronecker",
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


def g_squarefree(f: QuadraticForm, ell: int) -> Fraction:
    """Multiplicative density of multiples of ell among values of f, exact,
    for squarefree ell: g(ell) = prod over p | ell of (p + chi(p)*(p - 1))/p^2,
    with chi the Kronecker symbol for -D.  For non-squarefree moduli use
    residue_density, which counts residue pairs exactly."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    primes = factorize(ell)
    if any(e > 1 for e in primes.values()):
        raise ValueError(f"{ell} is not squarefree; use residue_density")
    return Fraction(math.prod(_local_factors(f.D, primes)), ell * ell)


def _local_factors(D: int, primes) -> list[int]:
    """N(p) = g(p) * p^2 = p + chi(p)*(p - 1), chi(p) = (-D/p), for each prime p."""
    return [p + kronecker(-D, p) * (p - 1) for p in primes]


_RESIDUE_BLOCK = 1 << 16
_RESIDUE_ELL_LIMIT = 1 << 21


def residue_density(f: QuadraticForm, ell: int) -> Fraction:
    """(1/ell^2) * #{(u, v) in [0, ell)^2 : ell | f(u, v)}, exact; ell < 2^21.
    The count walks d(ell) residue rows of ell cells (see _residue_counts),
    not the whole ell^2 grid."""
    return Fraction(int(_residue_counts([f.triple()], ell)[0]), ell * ell)


def _residue_counts(abc, ell: int) -> np.ndarray:
    """#{(u, v) in [0, ell)^2 : ell | f(u, v)} for each form (a, b, c) in abc,
    counted by gcd class of the row v, directly mod the composite ell.

    A row v with gcd(v, ell) = g is v = g*t mod ell for a unit t mod ell, and
    f(t*u, t*g) = t^2 * f(u, g), so u -> t*u carries the zeros of row g onto
    those of row v.  The phi(ell/g) rows of class g thus hold as many zeros
    as row g, and the count is the sum over g | ell of phi(ell/g) times the
    zeros of row g (row ell is row 0): d(ell) rows of ell cells per form."""
    _check_residue_modulus(ell)
    primes = factorize(ell)
    g = np.array([1], dtype=np.int64)
    for p, e in primes.items():
        g = np.outer(g, p ** np.arange(e + 1, dtype=np.int64)).ravel()
    n = ell // g
    phi = n  # phi(ell/g), from the primes of ell dividing ell/g
    for p in primes:
        phi = np.where(n % p == 0, phi // p * (p - 1), phi)
    rows = [np.count_nonzero(m, axis=1) for m in _residue_rows(abc, ell, g % ell)]
    return np.concatenate(rows).reshape(-1, len(g)) @ phi


def _check_residue_modulus(ell: int) -> None:
    """Refuse ell < 1, and ell >= 2^21, past the residue kernel's exact int64 range."""
    if ell < 1:
        raise ValueError("need ell >= 1")
    if ell >= _RESIDUE_ELL_LIMIT:
        raise ValueError(f"ell = {ell} too large for exact 64-bit residue counting "
                         "(need ell < 2^21)")


def _residue_rows(abc, ell: int, v=None):
    """Yield the indicators m[v, u] = (ell | f(u, v)), u in [0, ell), of the
    residue rows v (all of 0..ell-1 by default, else the int64 array v of
    rows below ell) of the forms f = (a, b, c), the rows of the (F, 3) array
    abc, stacked form by form (form 0's rows, then form 1's, ...), as
    boolean blocks of consecutive stacked rows.

    Each block holds at most _RESIDUE_BLOCK cells (one row when a row alone
    is longer), so a block may hold the end of one form's rows and the start
    of the next.  The coefficients are reduced mod ell first, so each row's
    B = b*v mod ell and C = c*v^2 mod ell are formed in int64 below ell^3,
    exact for ell < 2^21; larger ell is refused with ValueError before
    anything is allocated.  Each cell A*u^2 + B*u + C has every factor
    reduced below ell, so it stays below 2*ell^2, and the cells take the
    narrowest type that holds that: int16 up to ell = 128, int32 up to
    ell = 32768, int64 beyond.
    """
    _check_residue_modulus(ell)
    a, b, c = (np.array(abc, dtype=object).reshape(-1, 3) % ell).astype(np.int64).T
    v = np.arange(ell, dtype=np.int64) if v is None else v
    # the narrower the cells, the faster their remainder
    cell = np.int16 if ell <= 128 else np.int32 if ell <= 32768 else np.int64
    u = np.arange(ell, dtype=cell)
    u2 = u * u % ell
    step = max(1, _RESIDUE_BLOCK // ell)
    for k0 in range(0, len(a) * len(v), step):
        i, j = np.divmod(np.arange(k0, min(k0 + step, len(a) * len(v))), len(v))
        # a*u^2 + (b*v)*u + c*v^2 with every factor reduced below ell
        A, B, C = (t.astype(cell)[:, None]
                   for t in (a[i], b[i] * v[j] % ell, c[i] * v[j] * v[j] % ell))
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
    return chi


@functools.lru_cache(maxsize=1)
def _chi_moment(D: int) -> int:
    """S = sum_{n=1}^{D} n*chi_{-D}(n) for fundamental -D, an exact int64 sum
    (|S| < D^2/2, far below 2^63 for any table that fits in memory).  The
    last S is kept, so class_number_analytic(D) and dirichlet_l1(D) at one D
    compute it once."""
    if not is_fundamental(D):
        raise ValueError(f"-{D} is not a fundamental discriminant")
    return int(np.dot(np.arange(1, D + 1, dtype=np.int64), _chi_period(D)))


def dirichlet_l1(D: int) -> float:
    """L(1, chi_{-D}) for fundamental -D, from Dirichlet's finite formula for
    an odd real character of period D (Davenport, Multiplicative Number
    Theory, ch. 6): L(1, chi) = -pi * S / D^(3/2), S from _chi_moment.

    S is exact, so the value carries only the roundings of the final
    multiply and divides; D * sqrt(D) keeps libm's pow out of the digits.
    """
    return -math.pi * _chi_moment(D) / (D * math.sqrt(D))


def class_number_analytic(D: int) -> int:
    """h(-D) = w*sqrt(D)*L(1,chi)/(2*pi) = -w*S/(2D) for fundamental -D, in
    exact integers (S from _chi_moment), cross-checked against exact
    enumeration."""
    ws = unit_count(D) * _chi_moment(D)
    h, rem = divmod(-ws, 2 * D)
    h_exact = len(enumerate_reduced_forms(D))
    if rem or h != h_exact:
        raise ConsistencyError(
            f"analytic h(-{D}) = {-ws}/{2 * D}, enumeration gives {h_exact}"
        )
    return h


def prime_mask(x: int) -> np.ndarray:
    """Boolean array m of length x+1 with m[n] True iff n is prime."""
    mask = np.zeros(max(x + 1, 1), dtype=bool)
    mask[1::2] = _odd_prime_mask(x)
    mask[2:3] = x >= 2
    return mask


def _odd_prime_mask(x: int) -> np.ndarray:
    """Boolean array m of length (x+1)//2 with m[k] True iff 2k + 1 is prime:
    the segmented sieve _clear_odd_composites run on every odd n <= x but 1."""
    mask = np.ones(max(x + 1, 0) // 2, dtype=bool)
    mask[:1] = False
    return _clear_odd_composites(mask)


# odd entries per sieve segment: 1 MiB of bool, half of a 2 MiB L2 cache; a
# strike costs one slice assignment per (segment, prime), so fewer segments
# cut the sieve's Python overhead
_SEGMENT = 1 << 20


def _clear_odd_composites(mask: np.ndarray) -> np.ndarray:
    """Clear in place each entry mask[k] whose 2k + 1 is an odd composite,
    keep the others, and return mask: a segmented odd-only sieve of
    Eratosthenes (Bays and Hudson, BIT 17, 1977).

    Each segment of _SEGMENT entries, a view of mask, is struck by each odd
    prime p <= sqrt(2 * mask.size - 1) from p^2 on; those primes come from
    the same sieve run up to the root, and no prime's own entry is struck.
    Run on a mask of all odd n, it leaves the odd primes; run on the marks
    of the odd values of a form, the odd primes among them."""
    n = mask.size
    root = math.isqrt(max(2 * n - 1, 0))
    base = _odd_prime_mask(root) if root >= 3 else np.zeros(0, dtype=bool)
    primes = 2 * np.flatnonzero(base) + 1
    squares = primes * primes >> 1  # the entries of p^2, ascending
    nxt = squares.copy()  # the entry of each prime's next odd multiple to strike
    for k0 in range(0, n, _SEGMENT):
        seg = mask[k0:k0 + _SEGMENT]
        live = int(np.searchsorted(squares, k0 + seg.size))  # p^2 within or before seg
        step, start = primes[:live], nxt[:live] - k0
        for p, s in zip(step.tolist(), start.tolist()):
            seg[s::p] = False
        nxt[:live] += step * -((start - seg.size) // step)  # past this segment
    return mask

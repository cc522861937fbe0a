"""Scalar test oracles for the library's vectorized paths.

Unlike the brute-force oracles of conftest.py, these share kernels with
the library: chi_hat sums one Fourier coefficient over the residue pairs
that qflab.latticesums._residue_keys lists, the oracle of the whole-table
FFT in _chi_hat_tables; PrimeGapRecord gives one normalized gap by the
scalar formula that sieve.normalized_gaps must match bit for bit;
marked_values_by_rows marks the odd values of a form row by row from
qflab.latticesums._lattice_rows, the oracle of sieve._marked_values,
which marks them one value block at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from qflab.forms import QuadraticForm, reduce_form
from qflab.latticesums import BudgetError, _lattice_rows, _residue_keys
from qflab.sieve import _MASK_BUDGET


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


@dataclass(frozen=True)
class PrimeGapRecord:
    p_n: int
    p_next: int

    @property
    def normalized_gap(self) -> float:
        return (self.p_next - self.p_n) / (math.sqrt(self.p_n) * math.log(self.p_n))


def marked_values_by_rows(f: QuadraticForm, x: float) -> np.ndarray:
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
    is odd at u = 1 + cv (mod 2); if not, at every u (cv odd) or at none."""
    X = math.floor(x)
    if X > _MASK_BUDGET:
        raise BudgetError(f"representation mask of size {X} exceeds budget")
    mask = np.zeros(max(X + 1, 0) // 2, dtype=bool)
    if X < 1:
        return mask
    g = reduce_form(f)
    a, b, c = g.a, g.b, g.c
    for v, lo, hi in _lattice_rows(g, X):
        if b % a == 0:
            lo = np.maximum(lo, -((b // a) * v // 2))
            if a == c:
                lo = np.maximum(lo, v)
        step = 1 + ((a + b * v) & 1)
        lo = np.where(step == 2, lo + ((1 + c * v - lo) & 1), np.where(c * v & 1, lo, hi + 1))
        full = lo <= hi  # the cuts leave about half the rows empty
        for vi, l, h, st in zip(*(t[full].tolist() for t in (v, lo, hi, step))):
            u = np.arange(l, h + 1, st, dtype=np.int64)
            n = (a * u + b * vi) * u + c * vi * vi
            mask[n >> 1] = True
    mask[0] = False
    return mask

"""Scalar test oracles for the library's vectorized paths.

Unlike the brute-force oracles of conftest.py, these share kernels with
the library: chi_hat sums one Fourier coefficient over the residue pairs
that qflab.latticesums._residue_keys lists, the oracle of the whole-table
FFT in _chi_hat_tables; PrimeGapRecord gives one normalized gap by the
scalar formula that sieve.normalized_gaps must match bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from qflab.forms import QuadraticForm
from qflab.latticesums import _residue_keys


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

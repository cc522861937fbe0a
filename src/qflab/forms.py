"""Exact integer arithmetic for positive definite binary quadratic forms.

A triple (a, b, c) stands for f(u, v) = a*u^2 + b*u*v + c*v^2.  All
operations here are exact: Gauss reduction, enumeration of reduced forms of
a given discriminant, representation counts, and the symmetry data (unit
count, mirror-equivalence factor, lattice realization) consumed by the
sieve and Fourier layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "DefinitenessError",
    "InvalidDiscriminantError",
    "QuadraticForm",
    "FormClassSet",
    "FormLattice",
    "is_reduced",
    "reduce_form",
    "enumerate_reduced_forms",
    "representation_count",
    "delta_f",
    "unit_count",
    "lattice_basis",
]


class DefinitenessError(ValueError):
    """Coefficients do not define a positive definite form."""


class InvalidDiscriminantError(ValueError):
    """No forms exist for this discriminant (need D == 0 or 3 mod 4, D >= 3)."""


@dataclass(frozen=True, order=True)
class QuadraticForm:
    """f(u, v) = a*u^2 + b*u*v + c*v^2 with b^2 - 4ac < 0 and a, c >= 1."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a < 1 or self.c < 1:
            raise DefinitenessError(f"need a >= 1 and c >= 1, got {self.triple()}")
        if self.b * self.b - 4 * self.a * self.c >= 0:
            raise DefinitenessError(f"{self.triple()} is not positive definite")

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def D(self) -> int:
        """Positive discriminant datum D = 4ac - b^2 (so disc = -D)."""
        return 4 * self.a * self.c - self.b * self.b

    def __call__(self, u: int, v: int) -> int:
        return self.a * u * u + self.b * u * v + self.c * v * v

    def is_primitive(self) -> bool:
        return math.gcd(self.a, self.b, self.c) == 1

    def transform(self, p: int, q: int, r: int, s: int) -> "QuadraticForm":
        """Form g(u, v) = f(pu + qv, ru + sv); proper equivalence when ps - qr = 1."""
        a2 = self(p, r)
        c2 = self(q, s)
        b2 = 2 * self.a * p * q + self.b * (p * s + q * r) + 2 * self.c * r * s
        return QuadraticForm(a2, b2, c2)


@dataclass(frozen=True)
class FormClassSet:
    """All primitive reduced forms of discriminant -D, sorted by (a, b, c)."""

    D: int
    forms: tuple[QuadraticForm, ...]

    @property
    def h(self) -> int:
        return len(self.forms)

    def __len__(self) -> int:
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)


@dataclass(frozen=True)
class FormLattice:
    """Planar lattice basis realizing f as a squared norm, plus its dual basis.

    omega_i . dual_j = delta_ij, and the dual fundamental cell has area
    sqrt(4/D).
    """

    omega1: tuple[float, float]
    omega2: tuple[float, float]
    dual1: tuple[float, float]
    dual2: tuple[float, float]


def is_reduced(f: QuadraticForm) -> bool:
    """|b| <= a <= c, with b >= 0 whenever |b| = a or a = c."""
    a, b, c = f.a, f.b, f.c
    if not (abs(b) <= a <= c):
        return False
    if (abs(b) == a or a == c) and b < 0:
        return False
    return True


def reduce_form(f: QuadraticForm) -> QuadraticForm:
    """Gauss reduction: properly equivalent reduced form (idempotent)."""
    a, b, c = f.a, f.b, f.c
    while True:
        if b > a or b <= -a:
            # translate b into (-a, a]; c tracks f(k, 1) for the shift k
            k = (a - b) // (2 * a)
            c = a * k * k + b * k + c
            b = b + 2 * a * k
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        break
    return QuadraticForm(a, b, c)


def enumerate_reduced_forms(D: int) -> FormClassSet:
    """All primitive reduced forms of discriminant -D (finite scan a <= sqrt(D/3))."""
    if D < 3 or D % 4 not in (0, 3):
        raise InvalidDiscriminantError(f"no forms of discriminant -{D}")
    found = []
    for a in range(1, math.isqrt(D // 3) + 1):
        for b in range(-a, a + 1):
            if (b * b + D) % (4 * a):
                continue
            c = (b * b + D) // (4 * a)
            if c < a:
                continue
            if b < 0 and (b == -a or a == c):
                continue
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            found.append(QuadraticForm(a, b, c))
    return FormClassSet(D, tuple(sorted(found)))


def representation_count(f: QuadraticForm, n: int) -> int:
    """Number of integer pairs (u, v) with f(u, v) = n: the one-value window
    (n - 1, n] of the lattice kernel's r_f histogram on the reduced form, which
    has the same count.  The kernel refuses 4an > 2^52 with BudgetError."""
    from .latticesums import _window_histogram  # latticesums imports this module

    if n < 0:
        raise ValueError("n must be >= 0")
    _, r = next(_window_histogram(reduce_form(f), n - 1, n))
    return int(r[0])


def delta_f(f: QuadraticForm) -> Fraction:
    """1/2 if f is properly equivalent to its mirror f(u, -v), else 1."""
    if not f.is_primitive():
        raise ValueError(f"{f.triple()} is not primitive")
    mirror = QuadraticForm(f.a, -f.b, f.c)
    if reduce_form(mirror) == reduce_form(f):
        return Fraction(1, 2)
    return Fraction(1)


def unit_count(D: int) -> int:
    """Number of proper automorphs: 6 for D=3, 4 for D=4, 2 otherwise."""
    if D < 3:
        raise ValueError("need D >= 3")
    if D == 3:
        return 6
    if D == 4:
        return 4
    return 2


def lattice_basis(f: QuadraticForm) -> FormLattice:
    """Lattice basis with |omega1|^2 = a, 2 omega1.omega2 = b, |omega2|^2 = c.

    omega1 sits on the positive x-axis; the dual pair satisfies
    omega_i . dual_j = delta_ij.
    """
    sa = math.sqrt(f.a)
    o1 = (sa, 0.0)
    o2 = (f.b / (2.0 * sa), math.sqrt(f.D) / (2.0 * sa))
    D = float(f.D)
    d1 = ((4 * f.c * o1[0] - 2 * f.b * o2[0]) / D, (4 * f.c * o1[1] - 2 * f.b * o2[1]) / D)
    d2 = ((4 * f.a * o2[0] - 2 * f.b * o1[0]) / D, (4 * f.a * o2[1] - 2 * f.b * o1[1]) / D)
    return FormLattice(o1, o2, d1, d2)

"""Shared brute-force oracles and random generators for the test suite.

Oracles here deliberately avoid the library's fast paths: representation
counts and congruence sums come from plain double loops, and equivalence
is certified by explicit unimodular matrices.
"""

import math
import random

from qflab.forms import QuadraticForm


def brute_rf(f: QuadraticForm, n: int) -> int:
    """Representation count by direct search over a safe box."""
    if n == 0:
        return 1
    bound = math.isqrt(4 * max(f.a, f.c) * n // f.D) + 2
    count = 0
    for u in range(-bound, bound + 1):
        for v in range(-bound, bound + 1):
            if f(u, v) == n:
                count += 1
    return count


def brute_congruence_sum(f: QuadraticForm, ell: int, x: float) -> int:
    """Direct double loop over a box covering the ellipse f <= x."""
    X = math.floor(x)
    if X < 1:
        return 0
    bu = math.isqrt(4 * f.c * X // f.D) + 2
    bv = math.isqrt(4 * f.a * X // f.D) + 2
    count = 0
    for u in range(-bu, bu + 1):
        for v in range(-bv, bv + 1):
            n = f(u, v)
            if 1 <= n <= X and n % ell == 0:
                count += 1
    return count


def equivalent_via_unimodular(f: QuadraticForm, g: QuadraticForm,
                              bound: int = 5) -> bool:
    """Exhaustive search for (p, q, r, s) with ps - qr = 1 carrying g to f."""
    rng = range(-bound, bound + 1)
    for p in rng:
        for q in rng:
            for r in rng:
                for s in rng:
                    if p * s - q * r != 1:
                        continue
                    if g.transform(p, q, r, s) == f:
                        return True
    return False


def random_form(rng: random.Random, max_a: int = 30, max_extra: int = 40) -> QuadraticForm:
    """Random positive definite form with smallish coefficients."""
    while True:
        a = rng.randint(1, max_a)
        b = rng.randint(-max_a, max_a)
        c_min = b * b // (4 * a) + 1
        c = c_min + rng.randint(0, max_extra)
        if b * b - 4 * a * c < 0:
            return QuadraticForm(a, b, c)


def random_unimodular(rng: random.Random, bound: int = 3):
    """Random (p, q, r, s) with entries in [-bound, bound] and det 1."""
    while True:
        p = rng.randint(-bound, bound)
        q = rng.randint(-bound, bound)
        r = rng.randint(-bound, bound)
        if p == 0:
            continue
        if (1 + q * r) % p == 0:
            s = (1 + q * r) // p
            if abs(s) <= bound:
                return p, q, r, s


def random_big_form(rng: random.Random) -> QuadraticForm:
    """Random non-reduced form, sheared so that c exceeds 1e12."""
    f = random_form(rng, max_a=9, max_extra=15).transform(*random_unimodular(rng))
    return f.transform(1, rng.randint(10**6, 10**7), 0, 1)

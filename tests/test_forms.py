import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from conftest import brute_rf, equivalent_via_unimodular, random_form, random_unimodular
from qflab.forms import (
    DefinitenessError,
    InvalidDiscriminantError,
    QuadraticForm,
    delta_f,
    enumerate_reduced_forms,
    is_reduced,
    lattice_basis,
    reduce_form,
    representation_count,
    unit_count,
)
from qflab.latticesums import BudgetError, _window_histogram


def test_discriminant_values():
    assert QuadraticForm(1, 0, 1).discriminant == -4
    assert QuadraticForm(1, 1, 1).discriminant == -3
    assert QuadraticForm(1, 0, 27).discriminant == -108


def test_construction_rejects_indefinite():
    with pytest.raises(DefinitenessError):
        QuadraticForm(1, 5, 1)
    with pytest.raises(DefinitenessError):
        QuadraticForm(0, 0, 1)
    with pytest.raises(DefinitenessError):
        QuadraticForm(2, 4, 2)  # discriminant 0


def test_is_reduced():
    assert is_reduced(QuadraticForm(1, 0, 1))
    assert not is_reduced(QuadraticForm(2, -2, 3))  # |b| = a needs b >= 0
    assert not is_reduced(QuadraticForm(1, 2, 3))   # |b| > a


def test_reduce_examples():
    assert reduce_form(QuadraticForm(1, 0, 1)) == QuadraticForm(1, 0, 1)
    g = reduce_form(QuadraticForm(2, -2, 3))
    assert g == QuadraticForm(2, 2, 3)
    assert equivalent_via_unimodular(QuadraticForm(2, -2, 3), g)
    h = reduce_form(QuadraticForm(3, 8, 6))
    assert is_reduced(h)
    assert h.discriminant == -8


def test_reduce_idempotent_and_disc_preserving():
    rng = random.Random(42)
    for _ in range(10_000):
        f = random_form(rng, max_a=60, max_extra=400)
        if f.D > 10**5:
            continue
        g = reduce_form(f)
        assert is_reduced(g)
        assert g.discriminant == f.discriminant
        assert reduce_form(g) == g


def test_enumerate_reduced_forms():
    cls = enumerate_reduced_forms(4)
    assert [f.triple() for f in cls] == [(1, 0, 1)]
    assert cls.h == 1

    cls = enumerate_reduced_forms(108)
    assert cls.h == 3
    assert QuadraticForm(1, 0, 27) in cls.forms

    cls = enumerate_reduced_forms(3)
    assert [f.triple() for f in cls] == [(1, 1, 1)]

    with pytest.raises(InvalidDiscriminantError):
        enumerate_reduced_forms(5)
    with pytest.raises(InvalidDiscriminantError):
        enumerate_reduced_forms(6)


def _brute_reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Every b in [-a, a] for each a <= sqrt(D/3): the primitive (a, b, c)
    with 4ac - b^2 = D, |b| <= a <= c, and b >= 0 when |b| = a or a = c."""
    found = []
    for a in range(1, math.isqrt(D // 3) + 1):
        for b in range(-a, a + 1):
            c = (b * b + D) // (4 * a)
            if 4 * a * c - b * b != D or c < a or math.gcd(a, b, c) != 1:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            found.append((a, b, c))
    return sorted(found)


def test_enumerate_reduced_forms_property_matches_brute_list():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None)
    @hypothesis.given(st.integers(1, 1249), st.sampled_from((0, 3)))
    def check(k, r):
        D = 4 * k + r  # 4 <= D < 5000, D = 0 or 3 mod 4
        assert [f.triple() for f in enumerate_reduced_forms(D)] == _brute_reduced_forms(D)

    check()


def _class_count_by_orbits(D: int) -> int:
    """Independent oracle: partition all forms of discriminant -D inside a
    coefficient box into proper-equivalence orbits via the two reduction
    generators, then count components."""
    cap = max(40, 3 * D)
    nodes = []
    index = {}
    for a in range(1, cap + 1):
        bmax = math.isqrt(4 * a * cap)
        for b in range(-bmax, bmax + 1):
            if (b * b + D) % (4 * a):
                continue
            c = (b * b + D) // (4 * a)
            if c < 1 or c > cap:
                continue
            if math.gcd(a, math.gcd(b, c)) != 1:
                continue
            index[(a, b, c)] = len(nodes)
            nodes.append((a, b, c))
    parent = list(range(len(nodes)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i, j):
        parent[find(i)] = find(j)

    for (a, b, c), i in index.items():
        for m in (-1, 1):  # translation neighbors
            nb = (a, b + 2 * a * m, a * m * m + b * m + c)
            if nb in index:
                union(i, index[nb])
        swap = (c, -b, a)  # swap neighbor
        if swap in index:
            union(i, index[swap])
    return len({find(i) for i in range(len(nodes))})


def test_class_count_matches_orbit_detection():
    for D in range(3, 201):
        if D % 4 not in (0, 3):
            continue
        assert enumerate_reduced_forms(D).h == _class_count_by_orbits(D), D


def test_rf_examples_and_brute_force():
    f = QuadraticForm(1, 0, 1)
    assert representation_count(f, 0) == 1
    assert representation_count(f, 1) == 4
    assert representation_count(f, 3) == 0
    rng = random.Random(3)
    for _ in range(25):
        g = random_form(rng, max_a=5, max_extra=8)
        for n in rng.sample(range(61), 6):
            assert representation_count(g, n) == brute_rf(g, n), (g, n)


def test_rf_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(30):
        f = random_form(rng, max_a=6, max_extra=10)
        p, q, r, s = random_unimodular(rng)
        g = f.transform(p, q, r, s)
        # r_f(0..200) of each form as it is, unreduced
        (_, rf_f), (_, rf_g) = (next(_window_histogram(h, -1, 200)) for h in (f, g))
        for n in range(0, 201):
            assert rf_f[n] == rf_g[n]


def _chi(D, p):
    """Kronecker symbol (-D/p) for a prime p."""
    if D % p == 0:
        return 0
    if p == 2:
        return 1 if -D % 8 in (1, 7) else -1
    return 1 if pow(-D % p, (p - 1) // 2, p) == 1 else -1


def test_rf_against_divisor_sum_for_class_number_one():
    """For h(-D) = 1, r_f(n) = w * sum over d | n of (-D/d), a product over
    the prime powers p^e of n of 1 + chi(p) + ... + chi(p)^e (w the unit
    count); checked up to n near 1e12 on n built from small primes."""
    exponents = ({2: 2, 3: 4, 5: 3, 7: 1, 13: 2, 29: 3},  # ~ 1.2e12
                 {2: 3, 3: 2, 5: 4, 7: 3, 11: 2, 13: 1},  # ~ 2.4e10
                 {3: 1, 5: 2, 7: 2, 11: 1, 17: 2, 23: 1},  # ~ 2.7e8
                 {5: 3, 13: 2, 29: 1, 37: 1, 41: 1})  # ~ 9.3e8
    for abc in ((1, 0, 1), (1, 1, 1), (1, 1, 2), (1, 0, 2)):
        f = QuadraticForm(*abc)
        assert enumerate_reduced_forms(f.D).h == 1
        for powers in exponents:
            n = math.prod(p**e for p, e in powers.items())
            want = unit_count(f.D) * math.prod(sum(_chi(f.D, p) ** i for i in range(e + 1))
                                               for p, e in powers.items())
            assert representation_count(f, n) == want, (abc, n)


def test_rf_refuses_past_exact_64_bit_range():
    # 4an > 2^52 is refused by the lattice kernel before any row is built
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        for f in (QuadraticForm(1, 0, 1), QuadraticForm(3, 2, 5)):
            n = (1 << 50) // f.a + 1
            with pytest.raises(BudgetError):
                representation_count(f, n)
            assert representation_count(f, 0) == 1
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 1 << 20
    # a is 10^16 + 1 here, but the count is taken on the reduced u^2 + v^2
    assert representation_count(QuadraticForm(10**16 + 1, 2 * 10**8, 1), 5) == 8


def test_min_represented_is_a_for_reduced_forms():
    for D in range(3, 501):
        if D % 4 not in (0, 3):
            continue
        for f in enumerate_reduced_forms(D):
            assert f.a <= math.isqrt(D // 3)
            _, rf = next(_window_histogram(f, 0, f.a))  # r_f(1..a)
            smallest = next(n for n in range(1, f.a + 1) if rf[n - 1] > 0)
            assert smallest == f.a


def test_delta_f():
    assert delta_f(QuadraticForm(1, 0, 1)) == Fraction(1, 2)
    assert delta_f(QuadraticForm(2, 1, 3)) == Fraction(1)
    assert delta_f(QuadraticForm(1, 1, 6)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        delta_f(QuadraticForm(2, 2, 14))  # gcd 2


def test_unit_count():
    assert unit_count(3) == 6
    assert unit_count(4) == 4
    assert unit_count(23) == 2


def test_lattice_basis_examples():
    lat = lattice_basis(QuadraticForm(1, 0, 1))
    assert lat.omega1 == (1.0, 0.0)
    assert lat.omega2 == (0.0, 1.0)
    assert lat.dual1 == pytest.approx((1.0, 0.0))
    assert lat.dual2 == pytest.approx((0.0, 1.0))

    lat = lattice_basis(QuadraticForm(1, 1, 1))
    assert lat.omega2 == pytest.approx((0.5, math.sqrt(3) / 2))


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def test_lattice_basis_invariants():
    rng = random.Random(5)
    forms = [QuadraticForm(2, 1, 3)] + [random_form(rng) for _ in range(50)]
    for f in forms:
        lat = lattice_basis(f)
        assert _dot(lat.omega1, lat.omega1) == pytest.approx(f.a, rel=1e-12)
        assert 2 * _dot(lat.omega1, lat.omega2) == pytest.approx(f.b, rel=1e-12, abs=1e-12)
        assert _dot(lat.omega2, lat.omega2) == pytest.approx(f.c, rel=1e-12)
        for i, w in enumerate((lat.omega1, lat.omega2)):
            for j, d in enumerate((lat.dual1, lat.dual2)):
                assert _dot(w, d) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
        det = lat.dual1[0] * lat.dual2[1] - lat.dual1[1] * lat.dual2[0]
        assert abs(det) == pytest.approx(math.sqrt(4 / f.D), rel=1e-12)


def test_lattice_norms_reproduce_rf():
    # squared norms of lattice points grouped by value match the counts
    for D in range(3, 101):
        if D % 4 not in (0, 3):
            continue
        for f in enumerate_reduced_forms(D):
            counts = {}
            bu = math.isqrt(4 * f.c * 100 // f.D) + 2
            bv = math.isqrt(4 * f.a * 100 // f.D) + 2
            lat = lattice_basis(f)
            for u in range(-bu, bu + 1):
                for v in range(-bv, bv + 1):
                    w = (u * lat.omega1[0] + v * lat.omega2[0],
                         u * lat.omega1[1] + v * lat.omega2[1])
                    nsq = _dot(w, w)
                    n = round(nsq)
                    if abs(nsq - n) < 1e-9 and 0 <= n <= 100:
                        counts[n] = counts.get(n, 0) + 1
            _, rf = next(_window_histogram(f, -1, 100))  # r_f(0..100)
            for n in range(0, 101):
                assert counts.get(n, 0) == rf[n], (f, n)

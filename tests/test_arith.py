import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_big_form, random_form
from qflab import arith
from qflab.arith import (
    ConsistencyError,
    _residue_rows,
    class_number_analytic,
    dirichlet_l1,
    divisor_tau,
    divisor_tau3,
    g_squarefree,
    is_fundamental,
    is_squarefree,
    kronecker,
    prime_mask,
    residue_density,
)
from qflab.forms import QuadraticForm, enumerate_reduced_forms, unit_count


def test_kronecker_examples():
    assert kronecker(-4, 5) == 1
    assert kronecker(-4, 2) == 0
    assert kronecker(-4, 3) == -1


def test_kronecker_against_euler_criterion():
    for p in [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]:
        for m in range(-20, 21):
            expected = pow(m % p, (p - 1) // 2, p)
            expected = {0: 0, 1: 1, p - 1: -1}[expected]
            assert kronecker(m, p) == expected, (m, p)


def test_kronecker_multiplicative_and_periodic():
    rng = random.Random(9)
    for _ in range(10_000):
        D = rng.choice([3, 4, 7, 8, 11, 15, 20, 23, 24])
        m = rng.randint(1, 10**6)
        n = rng.randint(1, 10**6)
        assert kronecker(-D, m * n) == kronecker(-D, m) * kronecker(-D, n)
        assert kronecker(-D, m + 4 * D) == kronecker(-D, m)


def test_kronecker_char_type():
    # n -> (-D/n) is a character mod D: values in {-1, 0, 1}, zero iff
    # gcd(n, D) > 1, completely multiplicative
    rng = random.Random(21)
    for D in (3, 4, 23, 108):
        for _ in range(300):
            n = rng.randint(1, 10**5)
            v = kronecker(-D, n)
            assert v in (-1, 0, 1)
            assert (v == 0) == (math.gcd(n, D) > 1)
            m = rng.randint(1, 10**4)
            assert kronecker(-D, n * m) == v * kronecker(-D, m)


def test_g_squarefree_examples():
    f = QuadraticForm(1, 0, 1)
    assert g_squarefree(f, 1) == Fraction(1)
    assert g_squarefree(f, 2) == Fraction(1, 2)
    assert g_squarefree(f, 5) == Fraction(9, 25)
    with pytest.raises(ValueError):
        g_squarefree(f, 4)


def test_residue_density_examples():
    f = QuadraticForm(1, 0, 1)
    assert residue_density(f, 1) == Fraction(1)
    assert residue_density(f, 5) == Fraction(9, 25)
    assert residue_density(f, 2) == Fraction(1, 2)


def test_residue_density_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        f = random_form(rng, max_a=9, max_extra=15)
        ell = rng.randint(1, 12)
        count = sum(1 for u in range(ell) for v in range(ell)
                    if f(u, v) % ell == 0)
        assert residue_density(f, ell) == Fraction(count, ell * ell)


def test_density_identity_on_small_range():
    # exact rational equality on squarefree moduli (full range in acceptance)
    sf = [l for l in range(1, 31) if is_squarefree(l)]
    for D in range(3, 61):
        if D % 4 not in (0, 3):
            continue
        for f in enumerate_reduced_forms(D):
            for ell in sf:
                assert g_squarefree(f, ell) == residue_density(f, ell)


def test_density_bound_tau_over_ell():
    f = QuadraticForm(2, 1, 3)
    for ell in range(1, 1001):
        if not is_squarefree(ell):
            continue
        assert abs(g_squarefree(f, ell)) <= Fraction(divisor_tau(ell), ell)


def test_residue_density_multiplicative():
    f = QuadraticForm(1, 1, 6)
    for l1 in range(1, 101):
        for l2 in range(1, 101 // l1):
            if math.gcd(l1, l2) != 1 or l1 * l2 > 100:
                continue
            assert residue_density(f, l1 * l2) == \
                residue_density(f, l1) * residue_density(f, l2)


def python_int_grid(f, ell):
    """m[v, u] = (ell | f(u, v)) by Python-int arithmetic on the raw coefficients."""
    return np.array([[f(u, v) % ell == 0 for u in range(ell)] for v in range(ell)])


def test_residue_rows_match_python_int_grid():
    rng = random.Random(31)
    for f in (random_big_form(rng) for _ in range(20)):
        assert f.c >= 10**12
        ell = rng.randint(1, 60)
        grid = np.concatenate(list(_residue_rows([f.triple()], ell)))
        want = python_int_grid(f, ell)
        assert grid.dtype == bool and np.array_equal(grid, want), (f, ell)
        assert residue_density(f, ell) == Fraction(int(want.sum()), ell * ell)


@pytest.mark.parametrize("block", [7, 64])
def test_residue_rows_in_blocks(monkeypatch, block):
    rng = random.Random(block)
    cases = [(random_big_form(rng), ell) for _ in range(6) for ell in (1, 2, 7, 8, 30, 59)]
    whole = [(np.concatenate(list(_residue_rows([f.triple()], ell))), residue_density(f, ell))
             for f, ell in cases]
    monkeypatch.setattr(arith, "_RESIDUE_BLOCK", block)
    for (f, ell), (grid, density) in zip(cases, whole):
        blocks = list(_residue_rows([f.triple()], ell))
        rows = max(1, block // ell)
        assert len(blocks) == -(-ell // rows)
        assert all(m.shape[0] <= rows and m.shape[1] == ell for m in blocks)
        assert np.array_equal(np.concatenate(blocks), grid)
        assert residue_density(f, ell) == density


@pytest.mark.parametrize("block", [None, 7, 64])
def test_stacked_residue_rows_match_python_int_grids(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(arith, "_RESIDUE_BLOCK", block)
    rng = random.Random(53)
    split = 0
    for F in (1, 2, 5):
        for ell in (1, 2, 7, 8, 30, 59):
            forms = [random_big_form(rng) for _ in range(F - 1)]
            # one form with c > 2^63, so the stack needs Python-int reduction
            forms.append(random_big_form(rng).transform(1, 10**10, 0, 1))
            rng.shuffle(forms)
            grids = [python_int_grid(f, ell) for f in forms]
            blocks = list(_residue_rows([f.triple() for f in forms], ell))
            rows = max(1, arith._RESIDUE_BLOCK // ell)
            assert len(blocks) == -(-F * ell // rows)
            assert all(m.dtype == bool and m.shape[0] <= rows and m.shape[1] == ell
                       for m in blocks)
            assert np.array_equal(np.concatenate(blocks), np.concatenate(grids)), (F, ell)
            assert arith._residue_counts([f.triple() for f in forms], ell).tolist() == \
                [int(g.sum()) for g in grids]
            ends = np.cumsum([len(m) for m in blocks])[:-1]
            split += int(np.count_nonzero(ends % ell))
    assert (split > 0) == (block is not None)


def int64_grid(abc, ell, rows):
    """m[v, u] = (ell | f(u, v)) for the first stacked rows, evaluated in
    int64 on the coefficients reduced mod ell."""
    a, b, c = (np.array(abc, dtype=object).reshape(-1, 3) % ell).astype(np.int64).T
    i, v = np.divmod(np.arange(rows), ell)
    u = np.arange(ell, dtype=np.int64)
    vals = a[i, None] * u * u + (b[i] * v)[:, None] * u + (c[i] * v * v)[:, None]
    return vals % ell == 0


def test_residue_counts_across_the_int16_seam():
    # the cells are int16 up to ell = 128 and int32 beyond; forms that are
    # -1 mod ell in every coefficient put cells next to the 2*ell^2 bound,
    # past the int16 range at ell = 200
    rng = random.Random(128)
    for ell in (127, 128, 129, 200):
        forms = [random_big_form(rng) for _ in range(4)]
        forms.append(QuadraticForm(10**15 * ell - 1, 10**15 * ell - 1, 10**20 * ell - 1))
        abc = [f.triple() for f in forms]
        want = int64_grid(abc, ell, len(abc) * ell).reshape(len(abc), -1).sum(axis=1)
        assert arith._residue_counts(abc, ell).tolist() == want.tolist(), ell


@pytest.mark.parametrize("ell", [32768, 32769, 40000])
def test_residue_rows_across_the_int32_seam(monkeypatch, ell):
    # int32 cells up to ell = 32768 and int64 beyond, where int32 cells would
    # wrap by ell = 40000; the first block, with four rows so that b*v and
    # c*v^2 are nonzero, against int64 evaluation.  Coefficients -64 mod ell
    # keep the cells near 2*ell^2, and as 64 | 2^32, a wrapped cell at
    # ell = 40000 = 64 * 625 is divisible with odds 1/625, not 1/ell
    monkeypatch.setattr(arith, "_RESIDUE_BLOCK", 4 * ell)
    abc = [(10**15 * ell - 64, 10**15 * ell - 64, 10**20 * ell - 64)]
    first = next(_residue_rows(abc, ell))
    assert first.shape == (4, ell)
    assert np.array_equal(first, int64_grid(abc, ell, 4))


def test_residue_rows_exact_at_largest_ell():
    # ell = 2^21 - 1 = 7^2 * 127 * 337 and a = -1 mod ell (a itself is near
    # 2^81), so the first row (v = 0) is ell | u^2, i.e. 7 * 127 * 337 | u;
    # the kernel works in int64 here, where c*v^2 may reach ell^3 ~ 2^63
    ell = (1 << 21) - 1
    f = QuadraticForm(10**18 * ell - 1, 0, 1)
    first = next(_residue_rows([f.triple()], ell))
    assert first.shape == (1, ell)
    assert np.array_equal(np.flatnonzero(first[0]), np.arange(0, ell, 7 * 127 * 337))


def grid_counts(abc, ell):
    """The residue counts from the whole ell^2 grid of every form in abc."""
    rows = [np.count_nonzero(m, axis=1) for m in _residue_rows(abc, ell)]
    return np.concatenate(rows).reshape(-1, ell).sum(axis=1)


def test_residue_counts_by_gcd_class_match_the_whole_grid():
    # every form of the density identity (D <= 500) at every ell <= 60: the
    # non-squarefree ell and the primes dividing 2D included
    abc = [f.triple() for D in range(3, 501) if D % 4 in (0, 3)
           for f in enumerate_reduced_forms(D)]
    for ell in range(1, 61):
        assert arith._residue_counts(abc, ell).tolist() == grid_counts(abc, ell).tolist(), ell


def test_residue_counts_by_gcd_class_on_big_coefficients():
    rng = random.Random(400)
    for _ in range(20):
        f = random_big_form(rng)
        assert f.c >= 10**12
        ell = rng.randint(1, 400)
        assert arith._residue_counts([f.triple()], ell).tolist() == \
            grid_counts([f.triple()], ell).tolist(), (f, ell)


def test_residue_rows_of_one_gcd_class_are_unit_multiples():
    # a row v with gcd(v, ell) = g is v = g*t for a unit t mod ell, and its
    # zeros are t times those of row g, which _residue_counts counts instead
    rng = random.Random(12)
    for ell in (1, 8, 9, 12, 36, 45, 49, 60):
        for f in [random_form(rng, max_a=9, max_extra=15) for _ in range(3)]:
            grid = np.concatenate(list(_residue_rows([f.triple()], ell)))
            units = [t for t in range(ell) if math.gcd(t, ell) == 1]
            for v in range(ell):
                g = math.gcd(v, ell)
                t = next(t for t in units if g * t % ell == v)
                image = sorted(t * u % ell for u in np.flatnonzero(grid[g % ell]))
                assert np.flatnonzero(grid[v]).tolist() == image, (f, ell, v)


def test_residue_density_at_a_large_prime_ell():
    # 100003 is prime and divides neither 2D, so the count is g_squarefree's;
    # two rows of 100003 cells where the whole grid had 10^10
    ell = 100003
    t0 = time.perf_counter()
    for f in (QuadraticForm(1, 0, 2), QuadraticForm(1, 1, 1)):
        assert residue_density(f, ell) == g_squarefree(f, ell)
    assert time.perf_counter() - t0 < 1.0


def test_chi_table_matches_scalar_kronecker():
    # every fundamental D <= 5000, so every two-part (1, -4, 8, -8) and many
    # odd primes; all n for D <= 600, else n <= 64 and 64 random n <= D
    rng = random.Random(5000)
    seen = set()
    for D in range(3, 5001):
        if not is_fundamental(D):
            continue
        table = arith._chi_period(D)
        assert table.shape == (D,) and table.dtype == np.int64
        ns = range(1, D + 1) if D <= 600 else \
            sorted({*range(1, 65), *(rng.randint(65, D) for _ in range(64))})
        assert [table[n - 1] for n in ns] == [kronecker(-D, n) for n in ns], D
        # the two-part of -D: 1 for odd D, -4 for D = 4m (m odd), else 8 or -8
        seen.add(1 if D % 2 else -4 if D % 8 == 4 else 8 if D // 8 % 4 == 3 else -8)
    assert seen == {1, -4, 8, -8}


def test_l1_chi_closed_forms():
    def ulps(got, want):
        return abs(got - want) / math.ulp(want)

    assert ulps(dirichlet_l1(3), math.pi / (3 * math.sqrt(3))) <= 2
    assert ulps(dirichlet_l1(4), math.pi / 4) <= 2
    assert ulps(dirichlet_l1(8), math.pi / (2 * math.sqrt(2))) <= 2
    v = dirichlet_l1(23)
    w = 2
    assert round(w * math.sqrt(23) * v / (2 * math.pi)) == 3


def test_class_number_formula_up_to_3000():
    """w*sqrt(D)*L(1, chi)/(2*pi) lands within 1e-9 of the enumerated h(-D)
    for every fundamental D <= 3000, not only within rounding distance."""
    worst = 0.0
    for D in range(3, 3001):
        if is_fundamental(D):
            value = unit_count(D) * math.sqrt(D) * dirichlet_l1(D) / (2 * math.pi)
            worst = max(worst, abs(value - len(enumerate_reduced_forms(D))))
    assert worst < 1e-9


# L(1, chi) as the Richardson-extrapolated period sums gave it (tol 1e-10);
# those were within 3.4e-12 of the finite formula evaluated in mpmath
_L1_EXTRAPOLATED = {
    3: 0.6045997880780806, 4: 0.7853981634008139, 7: 1.1874104117262858,
    8: 1.1107207345419725, 11: 0.9472258251015013, 15: 1.6223114703911938,
    20: 1.4049629462096511, 23: 1.9652020541092716, 24: 1.2825498301632385,
    47: 2.291241928529604, 71: 2.6098691771586506, 163: 0.2460685275534842,
    231: 2.4804194535635222, 420: 1.2263521999254705, 995: 0.7967614610402857,
    2999: 4.1877861855059635,
}


def test_l1_chi_matches_extrapolated_values():
    for D, want in _L1_EXTRAPOLATED.items():
        assert abs(dirichlet_l1(D) - want) < 1e-10, D


_L1_VALUES = """
from qflab.arith import dirichlet_l1, is_fundamental
print([dirichlet_l1(D).hex() for D in range(3, 3001) if is_fundamental(D)])
"""


def test_l1_chi_independent_of_blas_threads():
    """The sum over the character table is exact in integers, not a float
    BLAS dot whose summation order follows the thread count."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    procs = [subprocess.Popen([sys.executable, "-c", _L1_VALUES], stdout=subprocess.PIPE,
                              text=True, env=dict(os.environ, PYTHONPATH=src,
                                                  OPENBLAS_NUM_THREADS=threads))
             for threads in ("1", "2")]
    outs = [proc.communicate(timeout=300)[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] == outs[1] and outs[0].count("0x") == 911


def test_l1_chi_errors():
    with pytest.raises(ValueError):
        dirichlet_l1(108)  # 108 = 4*27, 27 = 3 mod 4: not fundamental


def test_class_number_analytic():
    assert class_number_analytic(4) == 1
    assert class_number_analytic(23) == 3
    with pytest.raises(ValueError):
        class_number_analytic(108)


def test_class_number_analytic_is_exact(monkeypatch):
    """h(-D) = -w*S/(2D) in integers: every fundamental D <= 3000 divides
    exactly and equals enumeration; a moment that 2D does not divide is
    refused rather than rounded."""
    for D in range(3, 3001):
        if is_fundamental(D):
            assert class_number_analytic(D) == len(enumerate_reduced_forms(D)), D
    real = arith._chi_moment
    monkeypatch.setattr(arith, "_chi_moment", lambda D: real(D) + 1)
    with pytest.raises(ConsistencyError, match=r"^analytic h\(-23\) = 136/46, "):
        class_number_analytic(23)


def test_prime_mask_counts():
    def primes(x):
        return np.flatnonzero(prime_mask(x)).tolist()

    assert primes(10) == [2, 3, 5, 7]
    assert primes(2) == [2]
    assert primes(1) == [] and primes(0) == [] and primes(-3) == []
    assert int(prime_mask(10**6).sum()) == 78498
    # spot checks by trial division
    for p in primes(2000)[::97]:
        assert all(p % d for d in range(2, math.isqrt(p) + 1))


def test_prime_mask_agrees_with_trial_division():
    mask = prime_mask(5000)
    assert [n for n in range(5001) if mask[n]] == \
        [n for n in range(2, 5001) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def test_odd_prime_mask_is_the_odd_half():
    # entry k stands for 2k + 1; the even prime 2 is no entry
    for x in (-3, 0, 1, 2, 3, 4, 9, 10, 25, 26, 4999, 5000):
        odd = arith._odd_prime_mask(x)
        assert odd.size == max(x + 1, 0) // 2
        assert np.array_equal(odd, prime_mask(x)[1::2]), x


def _eratosthenes(x):
    """m[n] True iff n <= x is prime: plain Eratosthenes over every n."""
    m = np.ones(max(x + 1, 0), dtype=bool)
    m[:2] = False
    for p in range(2, math.isqrt(max(x, 0)) + 1):
        if m[p]:
            m[p * p::p] = False
    return m


def test_odd_prime_mask_at_segment_edges():
    # a segment holds the odd entries of 2 * _SEGMENT integers; small x cover
    # the first primes struck and their squares, large x the segment seams
    span = 2 * arith._SEGMENT
    edges = [k * span + d for k in (1, 2, 3) for d in range(-2, 3)]
    for x in list(range(401)) + edges:
        assert np.array_equal(arith._odd_prime_mask(x), _eratosthenes(x)[1::2]), x


def test_clear_odd_composites_on_any_marks():
    """On arbitrary marks, the sieve keeps exactly the marked entries whose
    2k + 1 is 1 or an odd prime, within one segment and across the seams;
    each size runs twice, with entries 0..6 (n = 1, 3, ..., 13) flipped."""
    rng = np.random.default_rng(31)
    sizes = list(range(65)) + [k * arith._SEGMENT + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    for size in sizes:
        keep = _eratosthenes(2 * size - 1)[1::2]
        keep[:1] = True
        marks = rng.random(size) < 0.5
        for _ in range(2):
            got = arith._clear_odd_composites(marks.copy())
            assert np.array_equal(got, marks & keep), size
            marks[:7] = ~marks[:7]


def test_divisor_functions():
    assert divisor_tau(1) == 1 and divisor_tau3(1) == 1
    assert divisor_tau(12) == 6
    assert divisor_tau3(4) == 6
    for n in range(1, 61):
        triples = sum(1 for d1 in range(1, n + 1) for d2 in range(1, n + 1)
                      if n % d1 == 0 and (n // d1) % d2 == 0)
        assert divisor_tau3(n) == triples
        assert divisor_tau(n) == sum(1 for d in range(1, n + 1) if n % d == 0)


def test_is_fundamental():
    assert is_fundamental(3) and is_fundamental(4) and is_fundamental(23)
    assert is_fundamental(8) and is_fundamental(20)
    assert not is_fundamental(108)
    assert not is_fundamental(12)  # 4*3, 3 = 3 mod 4
    assert not is_fundamental(9)

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import brute_rf, random_form, random_unimodular
from oracles import PrimeGapRecord, marked_values_by_rows
from qflab import sieve
from qflab.arith import factorize, g_squarefree, prime_mask, residue_density
from qflab.forms import (
    QuadraticForm,
    delta_f,
    enumerate_reduced_forms,
    reduce_form,
    representation_count,
    unit_count,
)
from qflab.latticesums import (BudgetError, _lattice_rows, _window_histogram, congruence_sum_exact,
                               poisson_identity_check)
from qflab.sieve import (
    _marked_values,
    _sieve_walk,
    bt_theoretical_bound,
    cor_brun_bound,
    count_represented_primes,
    normalized_gaps,
    prime_gap_scan,
    represented_mask,
    represented_primes,
    selberg_j,
    sieve_upper_bound,
    sieved_sum_exact,
)


def test_selberg_j_examples():
    f = QuadraticForm(1, 0, 1)
    assert selberg_j(f, 2) == Fraction(1)
    assert selberg_j(f, 3) == Fraction(2)
    values = [selberg_j(f, z) for z in range(2, 31)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_prime_densities_below_one():
    """0 < N(p) < p^2, so M(p) = p^2 - N(p) > 0 and every Selberg weight
    N(p)/M(p) = g(p)/(1 - g(p)) is finite, for each prime p <= 500 and each
    D <= 2000; chi(p) = (N(p) - p)/(p - 1) = 1, 0, -1 all occur."""
    chis = set()
    primes = np.flatnonzero(prime_mask(500)).tolist()
    for D in range(3, 2001):
        if D % 4 not in (0, 3):
            continue
        f = QuadraticForm(1, D % 2, (D + D % 2) // 4)  # the principal form
        assert f.D == D
        carried = [(ell, n, m) for ell, k, n, m in _sieve_walk(f, 500, 500) if k == 1]
        assert [p for p, _, _ in carried] == primes
        assert all(0 < n < p * p and m == p * p - n for p, n, m in carried)
        chis.update((n - p) // (p - 1) for p, n, _ in carried)
    assert chis == {1, 0, -1}


def _selberg_j_recursion(f, z):
    # oracle: selberg_j's recursion before the shared squarefree walk
    primes = np.flatnonzero(prime_mask(int(z))).tolist()
    weights = [g_squarefree(f, p) / (1 - g_squarefree(f, p)) for p in primes]
    total = Fraction(0)

    def extend(idx: int, prod: int, hval: Fraction):
        nonlocal total
        total += hval
        for i in range(idx, len(primes)):
            nxt = prod * primes[i]
            if nxt < z:
                extend(i + 1, nxt, hval * weights[i])

    extend(0, 1, Fraction(1))
    return total


def _error_moduli_recursion(primes: list[int], z: float) -> list[tuple[int, int]]:
    # oracle, kept verbatim: _error_moduli's recursion before the shared squarefree walk
    out: list[tuple[int, int]] = []

    def realizable(factors: tuple[int, ...]) -> bool:
        total = math.prod(factors)
        # some split d * (total/d) with both parts < z
        for msk in range(1 << len(factors)):
            d = math.prod(factors[i] for i in range(len(factors)) if msk >> i & 1) if msk else 1
            if d < z and total // d < z:
                return True
        return False

    def extend(idx: int, prod: int, factors: tuple[int, ...]):
        if realizable(factors):
            out.append((prod, len(factors)))
        for i in range(idx, len(primes)):
            nxt = prod * primes[i]
            if nxt < z * z:
                extend(i + 1, nxt, factors + (primes[i],))

    extend(0, 1, ())
    return out


def test_squarefree_walk_matches_the_recursions():
    """selberg_j, the J that sieve_upper_bound takes from its walk to z^2,
    and the remainder moduli with their prime counts, in the order error_sum
    adds them, against the two recursions they replaced: every reduced form
    with D <= 200 and z from 2 to 60 in steps of 1/4."""
    zs = [k / 4 for k in range(8, 241)]
    forms = [g for D in range(3, 201) if D % 4 in (0, 3) for g in enumerate_reduced_forms(D)]
    for j, f in enumerate(forms):
        for z in zs[j % 47::47]:
            assert selberg_j(f, z) == _selberg_j_recursion(f, z), (f, z)
    for i, z in enumerate(zs):
        f = forms[i * 7 % len(forms)]
        primes = np.flatnonzero(prime_mask(int(z))).tolist()
        moduli = _sieve_walk(f, z, z * z)
        assert [(ell, k) for ell, k, _, _ in moduli] == _error_moduli_recursion(primes, z)
        assert sum((Fraction(n, m) for ell, _, n, m in moduli if ell < z),
                   start=Fraction(0)) == _selberg_j_recursion(f, z), (f, z)


def test_walk_carries_each_modulus_integers():
    """Each entry (ell, k, N, M) of the walk to z^2 against independent code,
    on every reduced form with D <= 200, z cycling up to 40: N/ell^2 is
    g_squarefree(f, ell), bit for bit as a float too; N/M is the product of
    g(p)/(1 - g(p)) over ell's primes, k their number; for ell < 200, N/ell^2
    is the residue density, which counts residue pairs."""
    zs = (2, 3.5, 6, 10, 17.25, 25, 40)
    forms = [g for D in range(3, 201) if D % 4 in (0, 3) for g in enumerate_reduced_forms(D)]
    checked = 0
    for j, f in enumerate(forms):
        z = zs[j % len(zs)]
        weights = {p: g_squarefree(f, p) / (1 - g_squarefree(f, p))
                   for p in np.flatnonzero(prime_mask(int(z))).tolist()}
        for ell, k, n, m in _sieve_walk(f, z, z * z):
            g = g_squarefree(f, ell)
            assert Fraction(n, ell * ell) == g and n / (ell * ell) == float(g), (f, ell)
            ps = factorize(ell)
            h = math.prod((weights[p] for p in ps), start=Fraction(1))
            assert Fraction(n, m) == h and k == len(ps), (f, ell)
            if ell < 200:
                assert g == residue_density(f, ell), (f, ell)
            checked += 1
    assert checked > 10_000


def test_sieve_bound_degenerate_z2():
    f = QuadraticForm(1, 0, 1)
    x, y = 10_000.0, 1_000.0
    sb = sieve_upper_bound(f, x, y, 2.0)
    e1 = (congruence_sum_exact(f, 1, x) - congruence_sum_exact(f, 1, x - y)) \
        - 2 * math.pi * y / math.sqrt(f.D)
    assert sb.main == pytest.approx(2 * math.pi * y / math.sqrt(f.D), rel=1e-14)
    assert sb.error_sum == pytest.approx(abs(e1), rel=1e-12)


def test_sieve_bound_main_term_monotone_in_z():
    f = QuadraticForm(1, 0, 1)
    m5 = sieve_upper_bound(f, 10_000.0, 1_000.0, 5.0).main
    m7 = sieve_upper_bound(f, 10_000.0, 1_000.0, 7.0).main
    assert m7 <= m5


def test_sieve_bound_dominates_brute_force():
    rng = random.Random(99)
    checked = 0
    while checked < 10:
        f = reduce_form(random_form(rng, max_a=6, max_extra=12))
        x = rng.uniform(2_000.0, 40_000.0)
        y = rng.uniform(100.0, x / 2)
        z = rng.uniform(2.0, 15.0)
        bound = sieve_upper_bound(f, x, y, z).bound
        assert bound >= sieved_sum_exact(f, x, y, z)
        checked += 1


def test_weighted_prime_count_inequality():
    # exact rational comparison of the weighted short-interval prime count
    # against the sieved sum plus the small-prime allowance
    f = QuadraticForm(1, 0, 1)
    x, y = 1e5, 1e4
    w = unit_count(f.D)
    df = delta_f(f)
    lhs = Fraction(w, 1) / df * (count_represented_primes(f, x)
                                 - count_represented_primes(f, x - y))
    for z in (5.0, 10.0, 20.0):
        sieved = sieved_sum_exact(f, x, y, z)
        pi_z = int(prime_mask(int(z)).sum())
        assert lhs <= sieved + Fraction(w, 1) / df * pi_z


def test_pi_f_examples():
    f = QuadraticForm(1, 0, 1)
    assert count_represented_primes(f, 10) == 2   # 2, 5
    assert count_represented_primes(f, 20) == 4   # 2, 5, 13, 17
    assert 31 in represented_primes(QuadraticForm(1, 0, 27), 31).tolist()


def test_pi_f_consistency_with_per_prime_rf():
    """Every reduced form with D <= 100, forms that represent 2 and forms
    that do not, and one non-reduced input, prime by prime against r_f."""
    mask = prime_mask(2000)
    twos = set()
    forms = [f for D in range(3, 101) if D % 4 in (0, 3) for f in enumerate_reduced_forms(D)]
    for f in forms + [QuadraticForm(2, 2, 3).transform(2, 1, 1, 1)]:  # the last not reduced
        _, rf = next(_window_histogram(reduce_form(f), -1, 2000))  # r_f(0..2000)
        via_rf = [p for p in range(2, 2001) if mask[p] and rf[p] > 0]
        for X in (0, 1, 2, 3, 4, 5, 1000, 2000):
            want = [p for p in via_rf if p <= X]
            assert represented_primes(f, X).tolist() == want, (f, X)
            assert count_represented_primes(f, X) == len(want), (f, X)
        twos.add(2 in via_rf)
    assert twos == {True, False}


def test_pi_f_class_number_two_by_residues():
    """D = 20 has two classes, told apart by p mod 20 (Cox, Primes of the
    Form x^2 + ny^2, Ch. 1, 3): u^2 + 5v^2 represents 5 and the p = 1, 9
    (mod 20); 2u^2 + 2uv + 3v^2 represents 2 and the p = 3, 7 (mod 20)."""
    x = 10**6
    primes = np.flatnonzero(prime_mask(x))
    for f, ramified, classes in ((QuadraticForm(1, 0, 5), 5, (1, 9)),
                                 (QuadraticForm(2, 2, 3), 2, (3, 7))):
        want = np.union1d([ramified], primes[np.isin(primes % 20, classes)])
        assert np.array_equal(represented_primes(f, x), want), f
        assert count_represented_primes(f, x) == want.size


def test_pi_f_odd_path_matches_whole_masks():
    """The odd-only marks and sieve against the whole represented mask, r_f > 0
    from the window histogram, ANDed with the whole prime mask, for
    u^2 + 14v^2 at 2e5 (D = 56 has two classes per genus, which no residue
    rule tells apart)."""
    x = 200_000
    f = QuadraticForm(1, 0, 14)
    want = np.flatnonzero(represented_mask(f, x) & prime_mask(x))
    assert np.array_equal(represented_primes(f, x), want)
    assert count_represented_primes(f, x) == want.size


def test_pi_f_keeps_the_presieved_primes_a_form_represents():
    """The in-place sieve strikes each odd prime's multiples from its square
    on, so the smallest primes keep their marks: against the whole masks,
    for forms that represent some of 3, 5, 7, 11 and 13 (3, 7, 13 by
    u^2 + uv + v^2; 3, 5, 11 by u^2 + uv + 3v^2; 5, 13 by u^2 + v^2) and
    miss the others, at sizes from below 13^2 to 3 * 2^18 + 1."""
    forms = [QuadraticForm(1, 1, 1), QuadraticForm(1, 1, 3), QuadraticForm(1, 0, 1)]
    small = [set(represented_primes(f, 13).tolist()) for f in forms]
    assert small == [{3, 7, 13}, {3, 5, 11}, {2, 5, 13}]
    for x in (12, 13, 400, 3 * 2 ** 18 + 1):
        for f in forms:
            want = np.flatnonzero(represented_mask(f, x) & prime_mask(x))
            assert np.array_equal(represented_primes(f, x), want), (f, x)


def test_bt_bound_example():
    f = QuadraticForm(1, 0, 1)
    bt = bt_theoretical_bound(f, 1e18, 1e8, "cuberoot_range", 0.01)
    assert bt.theta == pytest.approx(0.8511, abs=2e-4)
    assert bt.constant == pytest.approx(26.87, abs=0.01)
    assert bt.range_ok


def test_bt_constant_windows():
    rng = random.Random(4)
    forms = [g for D in range(3, 61) if D % 4 in (0, 3)
             for g in enumerate_reduced_forms(D)]
    for _ in range(300):
        g = rng.choice(forms)
        lD, la = math.log(g.D), math.log(g.a)
        eps = rng.uniform(0.002, 0.049)
        lx = (2 * lD - la) / (1 / 9 - eps) * rng.uniform(1.05, 3.0) + 5.0
        ly_lo = 2 * lD - la + (1 / 3 + eps) * lx
        ly_hi = (4 / 9) * lx
        ly = ly_lo + (ly_hi - ly_lo) * rng.uniform(0.01, 0.99)
        bt = bt_theoretical_bound(g, math.exp(lx), math.exp(ly),
                                  "cuberoot_range", eps)
        assert bt.range_ok
        assert 16.0 < bt.constant < 16.0 / (9.0 * eps)

        lx = 18.0 * lD * rng.uniform(1.001, 1.6) + rng.uniform(1.0, 40.0)
        ly = lx * rng.uniform(4 / 9 + 1e-4, 0.6 - 1e-4)
        bt = bt_theoretical_bound(g, math.exp(lx), math.exp(ly), "mid_range")
        assert bt.range_ok
        assert 12.0 < bt.constant <= 672.0 / 11.0 + 1e-9


def test_bt_out_of_range_flagged_not_rejected():
    f = QuadraticForm(1, 0, 1)
    bt = bt_theoretical_bound(f, 1e6, 10.0, "sqrt_range", 0.01)
    assert not bt.range_ok
    assert math.isfinite(bt.constant)
    with pytest.raises(ValueError):
        bt_theoretical_bound(f, 1e6, 1e3, "cuberoot_range", 0.2)
    with pytest.raises(ValueError):
        bt_theoretical_bound(f, 1e6, 1e3, "bogus")


def test_cor_brun_bound():
    f = QuadraticForm(1, 0, 1)
    assert cor_brun_bound(f, 1e6) == pytest.approx(14 * 1000 / math.log(1e6), rel=1e-12)
    # D = 23 has h = 3, delta = 1/2
    g = QuadraticForm(1, 1, 6)
    expected = 28 * 0.5 * 1000 * (23 / 4) ** 0 / (3 * math.log(1e6))
    assert cor_brun_bound(g, 1e6) == pytest.approx(expected, rel=1e-12)
    # sqrt-dominated scaling: ratio tends to 2 from below as x grows
    r1 = cor_brun_bound(f, 4e8) / cor_brun_bound(f, 1e8)
    r2 = cor_brun_bound(f, 4e250) / cor_brun_bound(f, 1e250)
    assert r1 < r2 < 2.0
    assert r2 == pytest.approx(2.0, abs=5e-3)
    with pytest.raises(ValueError):
        cor_brun_bound(f, 2.0)


def test_prime_gap_scan_small():
    f = QuadraticForm(1, 0, 1)
    i, primes, gaps = prime_gap_scan(f, 100.0)
    assert primes[:4].tolist() == [2, 5, 13, 17]
    assert primes.tolist() == represented_primes(f, 100.0).tolist()
    # chain property: the maximum is a pair of consecutive primes
    assert np.all(np.diff(primes) > 0)
    assert gaps.size == primes.size - 1 and 0 <= i < gaps.size
    with pytest.raises(ValueError):
        prime_gap_scan(f, 3.0)


def test_prime_gap_scan_max_matches_scalar_scan():
    # the maximum over all pair records by the scalar formula, first one on ties
    for f, X, min_p in ((QuadraticForm(1, 0, 1), 1e5, 100), (QuadraticForm(1, 1, 2), 3e4, 10),
                        (QuadraticForm(2, 1, 3), 5e4, 100), (QuadraticForm(1, 0, 1), 90.0, 100)):
        i, primes, gaps = prime_gap_scan(f, X, min_p)
        ps = primes.tolist()
        records = [PrimeGapRecord(p, q) for p, q in zip(ps, ps[1:])]
        pool = [r for r in records if r.p_n >= min_p] or records
        assert records[i] == max(pool, key=lambda r: r.normalized_gap)
        assert gaps.tolist() == [r.normalized_gap for r in records]


def test_prime_gap_scan_normalized_max():
    i, primes, gaps = prime_gap_scan(QuadraticForm(1, 0, 1), 1e5)
    assert primes[i] >= 100
    assert gaps[i] < 1.837


def test_empirical_short_interval_bound():
    # recorded fixture: observed count within 1.5x the leading-term bound
    f = QuadraticForm(1, 0, 1)
    for x in (1e6, 1e7):
        hi = count_represented_primes(f, x + math.sqrt(x))
        lo = count_represented_primes(f, x)
        assert hi - lo <= 1.5 * cor_brun_bound(f, x)


def test_sieved_sum_matches_brute_rf():
    rng = random.Random(5)
    for _ in range(12):
        f = reduce_form(random_form(rng, max_a=6, max_extra=10))
        x = rng.uniform(50.0, 400.0)
        y = rng.uniform(1.0, x + 20.0)
        z = rng.uniform(0.0, 12.0)
        primes = [p for p in range(2, int(z) + 1) if all(p % d for d in range(2, p))]
        lo = max(math.floor(x - y), -1)
        want = sum(brute_rf(f, n) for n in range(lo + 1, math.floor(x) + 1)
                   if all(n % p for p in primes))
        assert sieved_sum_exact(f, x, y, z) == want


def test_sieve_bound_recorded_values():
    # error sums recorded from the two-congruence-sum implementation; the
    # z = 320 and 640 records from the subset-search moduli and Fraction g(ell)
    sb = sieve_upper_bound(QuadraticForm(2, 1, 3), 1e5, 1e3, 10)
    assert sb.error_sum == 922.2418527282213
    assert sieved_sum_exact(QuadraticForm(2, 1, 3), 1e5, 1e3, 10) == 142
    sb = sieve_upper_bound(QuadraticForm(1, 0, 2), 9.9e6, 1e5, 20)
    assert sb.error_sum == 27533.031922034745
    assert sb.main == 43251.19033813049
    for f, z, main, error_sum, exact in ((QuadraticForm(2, 1, 3), 320, 878.925809781376,
                                          439221.1235808739, 634),
                                         (QuadraticForm(1, 1, 6), 640, 807.0930013704993,
                                          737549.0442499958, 518)):
        sb = sieve_upper_bound(f, 1e6, 1e4, z)
        assert (sb.main, sb.error_sum) == (main, error_sum), (f, z)
        assert sieved_sum_exact(f, 1e6, 1e4, z) == exact, (f, z)


@pytest.mark.parametrize("block", [None, 37])
def test_sieve_bound_gathered_progressions_match_strided_sums(monkeypatch, block):
    # _SHORT_TERMS = 0 sums every modulus's progression strided; 40 gathers
    # every one once blocks hold 37 numbers; block 37 splits the windows
    import qflab.latticesums as latticesums
    import qflab.sieve as sieve

    if block is not None:
        monkeypatch.setattr(latticesums, "_WINDOW_BLOCK", block)
    rng = random.Random(8)
    cases = [(reduce_form(random_form(rng, max_a=3, max_extra=4)),
              rng.uniform(1e3, 2e4), rng.uniform(5.0, 2000.0), rng.uniform(2.0, 40.0))
             for _ in range(10)]
    monkeypatch.setattr(sieve, "_SHORT_TERMS", 0)
    strided = [sieve_upper_bound(*case) for case in cases]
    for terms in (1, 3, 8, 40):
        monkeypatch.setattr(sieve, "_SHORT_TERMS", terms)
        assert [sieve_upper_bound(*case) for case in cases] == strided, terms


def test_sieve_bound_refuses_before_the_walk(monkeypatch):
    import qflab.sieve as sieve

    def no_walk(*args):
        raise AssertionError("walked before refusing")

    monkeypatch.setattr(sieve, "_sieve_walk", no_walk)
    f = QuadraticForm(1, 0, 1)
    for x, y, z in ((1e4, 1e3, 1.5), (1e4, -1.0, 10), (1e4, 2e4, 10)):
        with pytest.raises(ValueError):
            sieve_upper_bound(f, x, y, z)


def test_sieve_bound_checks_window_total(monkeypatch):
    import qflab.sieve as sieve

    real = sieve._window_histogram

    def one_point_lost(f, lo, hi):
        for n0, r in real(f, lo, hi):
            r = r.copy()
            r[np.flatnonzero(r)[0]] -= 1
            yield n0, r

    f = QuadraticForm(2, 1, 3)
    sieve_upper_bound(f, 1e4, 1e3, 7)
    monkeypatch.setattr(sieve, "_window_histogram", one_point_lost)
    with pytest.raises(RuntimeError, match="window histogram"):
        sieve_upper_bound(f, 1e4, 1e3, 7)


def test_sieve_routines_reduce_first():
    # (1, 2*10^8, 10^16 + 1) is properly equivalent to u^2 + v^2
    f, g = QuadraticForm(1, 2 * 10**8, 10**16 + 1), QuadraticForm(1, 0, 1)
    assert reduce_form(f) == g
    assert count_represented_primes(f, 1e4) == count_represented_primes(g, 1e4)
    assert sieved_sum_exact(f, 1e4, 1e3, 10) == sieved_sum_exact(g, 1e4, 1e3, 10)
    assert sieve_upper_bound(f, 1e4, 1e3, 10) == sieve_upper_bound(g, 1e4, 1e3, 10)


def _box_counts(f, X):
    """r_f(n) for 0 <= n <= X, counted on the box |u| <= sqrt(4cX/D), |v| <=
    sqrt(4aX/D), which holds the ellipse f <= X of any form."""
    bu, bv = (math.isqrt(4 * k * X // f.D) + 1 for k in (f.c, f.a))
    u, v = np.meshgrid(np.arange(-bu, bu + 1), np.arange(-bv, bv + 1))
    vals = f.a * u * u + f.b * u * v + f.c * v * v
    return np.bincount(vals[vals <= X], minlength=X + 1)


def _box_mask(f, X):
    """The values 1 <= n <= X of f on the box of _box_counts."""
    want = _box_counts(f, X) > 0
    want[0] = False
    return want


def test_represented_mask_matches_brute_values():
    """Every reduced form with D <= 300, the b = 0 and b = a forms (half
    rows in the odd marks) and the others (whole rows), against the values
    on a box: the whole mask, and the odd marks at the odd n >= 3."""
    rng = random.Random(300)
    kinds = set()
    for D in range(3, 301):
        if D % 4 in (1, 2):
            continue
        for f in enumerate_reduced_forms(D):
            X = rng.randint(1, 5000)
            want = _box_mask(f, X)
            x = X + rng.random()
            assert np.array_equal(represented_mask(f, x), want), (f, X)
            assert np.array_equal(_marked_values(f, x)[1:], want[3::2]), (f, X)
            kinds.add("b = 0" if f.b == 0 else "b = a" if f.b == f.a else "other")
    assert kinds == {"b = 0", "b = a", "other"}


def test_represented_mask_matches_rf():
    """Six random forms, three of them not reduced, against r_f counted on
    the box that holds the ellipse f <= 600: representation_count at every
    n <= 600, the whole mask as r_f > 0, and the odd marks at the odd n >= 3."""
    rng = random.Random(8)
    for _ in range(6):
        f = random_form(rng, max_a=8, max_extra=15)
        rf = _box_counts(f, 600)
        assert [representation_count(f, n) for n in range(601)] == rf.tolist(), f
        want = rf > 0
        want[0] = False
        assert np.array_equal(represented_mask(f, 600), want), f
        assert np.array_equal(_marked_values(f, 600)[1:], want[3::2]), f


def _full_row_mask(f, X):
    """Values of f on every row of the ellipse f <= X, both signs of v and
    the whole u-range: no symmetry of the form is used beyond the row
    kernel's own, whose row -v is row v mirrored."""
    want = np.zeros(X + 1, dtype=bool)
    for v, lo, hi in _lattice_rows(f, X):
        for vi, l, h in zip(v.tolist(), lo.tolist(), hi.tolist()):
            for sign in (1, -1):
                u = sign * np.arange(l, h + 1, dtype=np.int64)
                want[f.a * u * u + f.b * (sign * vi) * u + f.c * vi * vi] = True
    want[0] = False
    return want


def test_represented_mask_swap_symmetric_forms():
    """(a, 0, a) and (a, a, a), whose rows the odd marks take for u >= v
    only, and their SL2(Z) transforms, against every row of the form: the
    whole mask, and the odd marks at the odd n >= 3."""
    rng = random.Random(9)
    for a in range(1, 31):
        for f in (QuadraticForm(a, 0, a), QuadraticForm(a, a, a)):
            g = f.transform(*random_unimodular(rng))
            X = rng.randint(3 * a, 4000)
            top = int(np.flatnonzero(_full_row_mask(f, X))[-1])  # represented, = X at most
            for x in (1, 2, a, top, X + rng.random()):
                for h in (f, g):
                    want = _full_row_mask(h, math.floor(x))
                    assert np.array_equal(represented_mask(h, x), want), (h, x)
                    assert np.array_equal(_marked_values(h, x)[1:], want[3::2]), (h, x)


@pytest.mark.parametrize("block", [1, 3, 64, sieve._MARK_BLOCK])
def test_block_marker_matches_the_row_oracle(monkeypatch, block):
    """The value blocks against the row-by-row marker, at every X <= 64 and
    on either side of the ends of the first blocks: b = 0, b = a with and
    without a = c, and a not dividing b, with b of either sign, reduced and
    transformed."""
    monkeypatch.setattr(sieve, "_MARK_BLOCK", block)
    rng = random.Random(block)
    forms = [QuadraticForm(*t) for t in ((1, 0, 1), (2, 0, 5), (1, 1, 1), (3, 3, 3), (2, 2, 3),
                                          (1, 1, 6), (2, 1, 3), (2, -1, 3), (13, 7, 20))]
    forms += [f.transform(*random_unimodular(rng)) for f in forms[::2]]
    kinds = set()
    for f in forms:
        g = reduce_form(f)
        kinds.add("b = 0" if g.b == 0 else ("a = c" if g.a == g.c else "b = a") if g.b == g.a
                  else "other")
        edges = [k * 2 * block + d for k in (1, 2, 3) for d in (-1, 0, 1)]
        for X in sorted(set(range(65)) | set(edges)):
            assert np.array_equal(_marked_values(f, X), marked_values_by_rows(f, X)), (f, X)
    assert kinds == {"b = 0", "a = c", "b = a", "other"}


def test_pi_f_of_the_three_classes_of_discriminant_23():
    """h(-23) = 3, with classes (1,1,6) and (2,+-1,3): a prime p with
    (-23/p) = 1 is represented by (1,1,6) or the pair (2,+-1,3), never both,
    and 23 by (1,1,6) alone.  The pair's rows ask for both half-rows, across
    about 10 blocks of the odd mask at 5e6."""
    x = 5_000_000
    primes = np.flatnonzero(prime_mask(x)).tolist()
    # for p = 2, pow gives 1, the Kronecker symbol (-23/2), as -23 = 1 (mod 8)
    split = sum(pow(-23 % p, (p - 1) // 2, p) == 1 for p in primes)
    principal = count_represented_primes(QuadraticForm(1, 1, 6), x)
    pair = count_represented_primes(QuadraticForm(2, 1, 3), x)
    assert pair == count_represented_primes(QuadraticForm(2, -1, 3), x)
    assert principal + pair == split + 1 == 174137


def test_non_finite_x_refused_before_any_work():
    """+inf refused with BudgetError and NaN in x or y with ValueError, each
    before a mask, a row or a modulus is built; -inf answers as x = -1 does."""
    f = QuadraticForm(1, 0, 1)
    of_x = {
        "count_represented_primes": lambda x: count_represented_primes(f, x),
        "represented_primes": lambda x: represented_primes(f, x).tolist(),
        "prime_gap_scan": lambda x: prime_gap_scan(f, x),
        "represented_mask": lambda x: represented_mask(f, x).tolist(),
        "congruence_sum_exact": lambda x: congruence_sum_exact(f, 3, x),
        "sieved_sum_exact": lambda x: sieved_sum_exact(f, x, 10.0, 40),
        "sieve_upper_bound": lambda x: sieve_upper_bound(f, x, 10.0, 40),
    }
    of_y = {
        "sieved_sum_exact": lambda y: sieved_sum_exact(f, 1e4, y, 40),
        "sieve_upper_bound": lambda y: sieve_upper_bound(f, 1e4, y, 40),
    }

    def outcome(call, x):
        try:
            return call(x)
        except (ValueError, BudgetError) as e:
            return type(e)

    probes = [(name, call, x, want) for name, call in of_x.items()
              for x, want in ((math.inf, BudgetError), (math.nan, ValueError),
                              (-math.inf, outcome(call, -1.0)))]
    probes += [(name + " y", call, math.nan, ValueError) for name, call in of_y.items()]
    for name, call, x, want in probes:
        tracemalloc.start()
        try:
            got = outcome(call, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want, (name, x)
        assert peak < 1 << 20, (name, x, peak)


def test_discriminant_past_int64_refused_before_any_work():
    """A form whose D is 2^63 or more, which int64 cannot hold, is refused
    with BudgetError by the row kernel before any mask, histogram block or
    grid is built, as is one whose 4ax passes 2^52; D = 2^63 - 4 still
    answers as before."""
    for f in (QuadraticForm(1, 0, 2**61), QuadraticForm(2**40, 1, 2**40)):
        calls = {
            "count_represented_primes": lambda: count_represented_primes(f, 1e8),
            "represented_primes": lambda: represented_primes(f, 1e8),
            "prime_gap_scan": lambda: prime_gap_scan(f, 1e8),
            "represented_mask": lambda: represented_mask(f, 1e8),
            "congruence_sum_exact": lambda: congruence_sum_exact(f, 3, 1e8),
            "sieved_sum_exact": lambda: sieved_sum_exact(f, 1e8, 10.0, 40),
            "sieve_upper_bound": lambda: sieve_upper_bound(f, 1e8, 10.0, 40),
            "representation_count": lambda: representation_count(f, 9),
            "poisson_identity_check": lambda: poisson_identity_check(f, 3, 1.0),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError, match="64-bit"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (f, name, peak)
    f = QuadraticForm(1, 0, 2**61 - 1)
    assert count_represented_primes(f, 100) == 0
    assert congruence_sum_exact(f, 3, 100) == 6
    assert sieved_sum_exact(f, 100, 50, 5) == 0
    assert representation_count(f, 9) == 2


def test_normalized_gaps_match_the_scalar_formula():
    ps = represented_primes(QuadraticForm(1, 0, 1), 4e5).tolist()
    # np.log would be an ulp off math.log here, which normalized_gaps must not follow
    assert any(float(l) != math.log(p) for p, l in zip(ps, np.log(np.array(ps, dtype=float))))
    assert normalized_gaps(ps).tolist() == [PrimeGapRecord(p, q).normalized_gap
                                            for p, q in zip(ps, ps[1:])]
    assert normalized_gaps(ps[:1]).tolist() == normalized_gaps([]).tolist() == []


def test_sieved_sum_budget():
    with pytest.raises(BudgetError):
        sieved_sum_exact(QuadraticForm(1, 0, 1), 1e18, 1e6, 5.0)


def test_sieve_level_limit():
    # z = 4096 is the last level accepted; past it each entry point refuses
    # before it sieves primes or walks moduli (1e300 broke numpy's mask)
    f = QuadraticForm(1, 0, 1)
    assert selberg_j(f, 4096) > 1
    for z in (4097, 1e300):
        for call in (lambda: selberg_j(f, z),
                     lambda: sieve_upper_bound(f, 1e4, 1e3, z),
                     lambda: sieved_sum_exact(f, 1e4, 1e3, z)):
            tracemalloc.start()
            try:
                with pytest.raises(BudgetError, match="4096"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20

import math
import random
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    brute_congruence_sum,
    brute_rf,
    random_big_form,
    random_form,
    random_unimodular,
)
from oracles import chi_hat
from qflab import arith
from qflab.arith import divisor_tau, residue_density
from qflab import latticesums
from qflab.forms import QuadraticForm, enumerate_reduced_forms, reduce_form, representation_count
from qflab.latticesums import (
    BudgetError,
    TestFunctionG,
    _window_histogram,
    congruence_main_term,
    congruence_sum_exact,
    error_scaling_report,
    hankel_transform,
    hat_g_at_zero,
    poisson_identity_check,
    translation_exception_count,
)
from qflab.quadrature import ToleranceError, quad_segments


def reduced_forms_up_to(dmax):
    out = []
    for D in range(3, dmax + 1):
        if D % 4 in (0, 3):
            out.extend(enumerate_reduced_forms(D).forms)
    return out


# ---- congruence sums ---------------------------------------------------------


def test_congruence_sum_examples():
    f = QuadraticForm(1, 0, 1)
    assert congruence_sum_exact(f, 1, 5) == 20
    assert congruence_sum_exact(f, 2, 5) == 8
    assert congruence_sum_exact(f, 1, 0.5) == 0


def test_congruence_sum_brute_force():
    rng = random.Random(23)
    for _ in range(40):
        f = random_form(rng, max_a=5, max_extra=9)
        ell = rng.randint(1, 8)
        x = rng.uniform(0.5, 400.0)
        assert congruence_sum_exact(f, ell, x) == brute_congruence_sum(f, ell, x)
    for _ in range(20):  # moduli beyond most rows' lengths
        f = random_form(rng, max_a=5, max_extra=9)
        ell = rng.randint(9, 60)
        x = rng.uniform(0.5, 400.0)
        assert congruence_sum_exact(f, ell, x) == brute_congruence_sum(f, ell, x)


def test_counts_reduce_first():
    # properly equivalent to u^2 + v^2, with a far beyond the row kernel's range
    f = QuadraticForm(10**16 + 1, 2 * 10**8, 1)
    assert congruence_sum_exact(f, 1, 10) == 36
    assert representation_count(f, 5) == 8


def test_congruence_sum_budget():
    with pytest.raises(BudgetError):
        congruence_sum_exact(QuadraticForm(1, 0, 1), 1, 1e18)


def test_congruence_sum_builds_only_the_residue_rows_it_meets():
    # the rows v = 0..vmax meet the residue rows v mod ell <= vmax alone, so
    # an ell past vmax + 1 builds vmax + 1 of its ell residue rows
    for f, vmax in ((QuadraticForm(1, 0, 2), 70), (QuadraticForm(2, 1, 3), 58)):  # at x = 1e4
        for ell in (vmax - 1, vmax, vmax + 1, vmax + 2, vmax + 3, 1009):
            assert congruence_sum_exact(f, ell, 1e4) == brute_congruence_sum(f, ell, 1e4), (f, ell)
    f = QuadraticForm(1, 0, 2)
    assert congruence_sum_exact(f, 16001, 1e5) == brute_congruence_sum(f, 16001, 1e5)
    # all 16001^2 = 2.6e8 residue cells took about 2 s; x = 1e6 meets 708 rows
    t0 = time.perf_counter()
    got = congruence_sum_exact(f, 16001, 1e6)
    elapsed = time.perf_counter() - t0
    u, v = np.ogrid[-1002:1003, -709:710]
    n = u * u + 2 * v * v
    assert got == np.count_nonzero((n >= 1) & (n <= 10**6) & (n % 16001 == 0)) == 272
    assert elapsed < 0.5


def test_exact_isqrt_at_square_boundaries():
    # near 2^26 the float sqrt of k^2 - 1 lies one ulp below k, the closest
    # the truncated root comes to a miss; (2^26 - 1)^2 + 1 is still below 2^52
    k = np.concatenate([np.arange(1, 200), np.arange(2 ** 26 - 200, 2 ** 26)]).astype(np.int64)
    rng = np.random.default_rng(26)
    m = np.concatenate([k * k - 1, k * k, k * k + 1, rng.integers(0, 2 ** 52, 200_000)])
    t = latticesums._exact_isqrt(m)
    assert all(r * r <= v < (r + 1) * (r + 1) for r, v in zip(t.tolist(), m.tolist()))


def test_exact_isqrt_at_both_ends_of_every_run_to_2_52():
    # a correctly rounded sqrt is monotone, so exact roots at k^2 - 1 and
    # k^2 for every k = 1..2^26 make the truncated root exact on all m <= 2^52
    step = 1 << 22
    for start in range(1, (1 << 26) + 1, step):
        k = np.arange(start, start + step, dtype=np.int64)
        sq = k * k
        assert np.array_equal(latticesums._exact_isqrt(sq), k)
        assert np.array_equal(latticesums._exact_isqrt(sq - 1), k - 1)
    assert k[-1] * k[-1] == 1 << 52


def test_lattice_rows_match_box_search():
    # the kernel yields the rows v >= 0; their mirror (-u, -v) is the rest
    rng = random.Random(31)
    for _ in range(30):
        f = random_form(rng, max_a=9, max_extra=20)
        N = rng.randint(0, 300)
        got = {(u, v) for vs, lo, hi in latticesums._lattice_rows(f, N)
               for v, l, h in zip(vs.tolist(), lo.tolist(), hi.tolist())
               for u in range(l, h + 1)}
        bu = math.isqrt(4 * f.c * N // f.D) + 2
        bv = math.isqrt(4 * f.a * N // f.D) + 2
        want = {(u, v) for u in range(-bu, bu + 1) for v in range(-bv, bv + 1)
                if f(u, v) <= N}
        assert got == {(u, v) for u, v in want if v >= 0}
        assert got | {(-u, -v) for u, v in got} == want


def test_half_plane_kernel_matches_brute_oracles(monkeypatch):
    """Every consumer of the half-plane rows against a full-plane oracle,
    with chunks of 5 rows, so that row 0 and the chunk seams are crossed."""
    monkeypatch.setattr(latticesums, "_ROW_CHUNK", 5)
    monkeypatch.setattr(latticesums, "_WINDOW_BLOCK", 40)
    rng = random.Random(1616)
    for _ in range(12):
        f = reduce_form(random_form(rng, max_a=4, max_extra=8))
        ell, x = rng.randint(1, 9), rng.uniform(30.0, 500.0)
        assert congruence_sum_exact(f, ell, x) == brute_congruence_sum(f, ell, x), (f, ell, x)
        lo = rng.randint(-2, 150)
        hi = lo + rng.randint(0, 120)
        assert _histogram(f, lo, hi)[1] == [brute_rf(f, n) for n in range(max(lo, -1) + 1, hi + 1)]
        ell = rng.randint(2, 5)
        r, s = rng.randrange(ell), rng.randrange(1, ell)  # s != 0: V's rows kept are lopsided
        assert translation_exception_count(f, ell, r, s) == brute_exception_count(f, ell, r, s)
        # the Poisson direct side equals the full-plane box sum bit for bit
        t = rng.choice((0.5, 1.0, 2.0))
        ncut = int(46.0 / (math.pi * t)) + 40
        box = math.isqrt(4 * max(f.a, f.c) * ncut // f.D) + 2
        want = math.fsum(math.exp(-math.pi * t * n)
                         for u in range(-box, box + 1) for v in range(-box, box + 1)
                         for n in (f(u, v),) if n <= ncut and n % ell == 0)
        assert poisson_identity_check(f, ell, t)[0] == want, (f, ell, t)


def _histogram(f, lo, hi):
    """The window (lo, hi] as one list, with the blocks' starts."""
    starts, values = [], []
    for n0, r in latticesums._window_histogram(f, lo, hi):
        starts.append(n0)
        values.extend(r.tolist())
    return starts, values


def test_window_histogram_matches_brute_rf(monkeypatch):
    rng = random.Random(17)
    for block in (1 << 17, 7, 64):
        monkeypatch.setattr(latticesums, "_WINDOW_BLOCK", block)
        for _ in range(8):
            f = reduce_form(random_form(rng, max_a=6, max_extra=12))
            lo = rng.randint(-3, 250)
            hi = lo + rng.randint(0, 150)
            starts, values = _histogram(f, lo, hi)
            first = max(lo, -1) + 1
            assert starts == list(range(first, hi + 1, block))
            assert values == [brute_rf(f, n) for n in range(first, hi + 1)]


def test_window_histogram_property_matches_brute_rf(monkeypatch):
    """Generated reduced forms, windows and block sizes against brute_rf.
    Windows from lo = -1 start with the block n0 = 0, where every row misses
    the inner ellipse f <= -1; short blocks at small n0 have rows v > 0
    that miss the inner ellipse and meet the outer one only near its vertex."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def reduced_forms(draw):
        a = draw(st.integers(1, 6))
        return reduce_form(QuadraticForm(a, draw(st.integers(-a, a)), draw(st.integers(a, a + 10))))

    @hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
    @hypothesis.given(reduced_forms(), st.one_of(st.just(-1), st.integers(-1, 160)),
                      st.integers(0, 40), st.sampled_from((1, 2, 5, 1 << 17)))
    def check(f, lo, width, block):
        monkeypatch.setattr(latticesums, "_WINDOW_BLOCK", block)
        values = _histogram(f, lo, lo + width)[1]
        assert values == [brute_rf(f, n) for n in range(max(lo, -1) + 1, lo + width + 1)]

    check()


def test_window_strided_counts_match_brute_congruence(monkeypatch):
    monkeypatch.setattr(latticesums, "_WINDOW_BLOCK", 50)
    rng = random.Random(29)
    for _ in range(20):
        f = reduce_form(random_form(rng, max_a=5, max_extra=9))
        lo = rng.randint(0, 200)
        hi = lo + rng.randint(1, 200)
        ell = rng.randint(1, 12)
        count = sum(int(r[-n0 % ell::ell].sum())
                    for n0, r in latticesums._window_histogram(f, lo, hi))
        assert count == brute_congruence_sum(f, ell, hi) - brute_congruence_sum(f, ell, lo)


def test_window_histogram_memory_is_one_block():
    # a window of 3.5 blocks comes in blocks of at most _WINDOW_BLOCK numbers
    # that together hold every lattice point of the annulus
    f = QuadraticForm(1, 1, 3)
    block = latticesums._WINDOW_BLOCK
    hi, lo = 4 * block, block // 2
    sizes, total = [], 0
    for n0, r in latticesums._window_histogram(f, lo, hi):
        sizes.append(r.size)
        total += int(r.sum())
    assert sizes == [block, block, block, block // 2]
    assert total == congruence_sum_exact(f, 1, hi) - congruence_sum_exact(f, 1, lo)


def test_main_term_examples():
    f = QuadraticForm(1, 0, 1)
    assert congruence_main_term(f, 1, 5) == pytest.approx(5 * math.pi, rel=1e-15)
    assert congruence_main_term(f, 2, 5) == pytest.approx(5 * math.pi / 2, rel=1e-15)
    assert congruence_main_term(QuadraticForm(1, 1, 1), 1, 10) == \
        pytest.approx(20 * math.pi / math.sqrt(3), rel=1e-15)


def test_error_scaling_report():
    f = QuadraticForm(1, 0, 1)
    rep = error_scaling_report(f, 1, [1000.0])
    assert rep.slope is None and len(rep.rows) == 1

    rep = error_scaling_report(f, 1, np.logspace(3, 5, 6))
    assert rep.slope is not None and rep.slope <= 0.40

    rep = error_scaling_report(f, 6, np.logspace(4, 6, 5))
    assert all(abs(r.record()["normalized_half"]) <= 5.0 for r in rep.rows)


def test_prefix_sum_identity():
    # per-n summation equals lattice-interval counting, exactly
    rng = random.Random(31)
    for _ in range(1000):
        f = random_form(rng, max_a=4, max_extra=6)
        x = rng.uniform(1, 250)
        _, rf = next(_window_histogram(reduce_form(f), 0, math.floor(x)))  # r_f(1..x)
        direct = int(rf.sum())
        assert congruence_sum_exact(f, 1, x) == direct


def test_weighted_bump_sum_two_routes():
    # sum of r_f(n) G(sqrt(n)) over multiples of ell: by-n route vs lattice route
    f = QuadraticForm(2, 1, 3)
    g = TestFunctionG(50.0, 9.0)
    ell = 3
    by_n = math.fsum(representation_count(f, n) * g(math.sqrt(n))
                     for n in range(0, 60, ell))
    bu = math.isqrt(4 * f.c * 59 // f.D) + 2
    bv = math.isqrt(4 * f.a * 59 // f.D) + 2
    by_lattice = math.fsum(
        g(math.sqrt(f(u, v)))
        for u in range(-bu, bu + 1) for v in range(-bv, bv + 1)
        if f(u, v) <= 59 and f(u, v) % ell == 0)
    assert by_n == pytest.approx(by_lattice, rel=1e-12)


def test_congruence_error_sandwich():
    # recorded fixture: |exact - main| <= C1 * tau(ell) * ell * sqrt(x)
    C1 = 6.0
    rng = random.Random(7)
    for _ in range(30):
        f = random_form(rng, max_a=4, max_extra=8)
        ell = rng.randint(1, 6)
        x = rng.uniform(50, 5000)
        err = abs(congruence_sum_exact(f, ell, x) - congruence_main_term(f, ell, x))
        assert err <= C1 * divisor_tau(ell) * ell * math.sqrt(x)


# ---- Fourier coefficients and the Poisson identity ---------------------------


def test_chi_hat_examples():
    f = QuadraticForm(1, 0, 1)
    assert chi_hat(f, 1, 0, 0) == pytest.approx(1.0)
    assert chi_hat(f, 2, 0, 0) == pytest.approx(0.5)
    ghat5 = float(residue_density(f, 5))
    for r in range(5):
        for s in range(5):
            assert abs(chi_hat(f, 5, r, s)) <= ghat5 + 1e-12
    with pytest.raises(ValueError):
        chi_hat(f, 2, 2, 0)


def test_chi_hat_matches_direct_sum():
    f = QuadraticForm(2, 1, 3)
    ell = 6
    for r, s in [(0, 0), (1, 0), (2, 3), (5, 5)]:
        acc = 0j
        for u in range(ell):
            for v in range(ell):
                if f(u, v) % ell == 0:
                    acc += np.exp(-2j * math.pi * (u * s + v * r) / ell)
        assert chi_hat(f, ell, r, s) == pytest.approx(acc / ell**2, abs=1e-12)


def test_chi_hat_reduces_coefficients_first():
    # (1, 2e8, 1e16 + 1) is equivalent to u^2 + v^2; f.c * u^2 on the raw
    # coefficients wraps int64 from ell = 40 on
    f = QuadraticForm(1, 2 * 10**8, 10**16 + 1)
    for ell, count in ((40, 72), (97, 193)):
        pairs = [(u, v) for u in range(ell) for v in range(ell) if f(u, v) % ell == 0]
        assert len(pairs) == count
        # DFT oracle: integer phases (u*s + v*r) mod ell into the ell-th roots
        us, vs = (np.array(t, dtype=np.int64) for t in zip(*pairs))
        k = np.arange(ell, dtype=np.int64)
        phase = (k[:, None, None] * us + k[None, :, None] * vs) % ell  # [s, r, pair]
        roots = np.exp(-2j * np.pi * np.arange(ell) / ell)
        oracle = roots[phase].sum(axis=2) / ell**2
        assert np.abs(latticesums._chi_hat_tables([f.triple()], ell)[0] - oracle).max() < 1e-12
        for r, s in ((0, 0), (1, 0), (3, 5), (ell - 1, ell - 2)):
            assert abs(chi_hat(f, ell, r, s) - oracle[s, r]) < 1e-12


def test_chi_hat_needs_no_coefficient_table():
    # the whole ell^2 table at ell = 2000 peaks near 157 MB; one coefficient
    # sums over the residue pairs alone
    f = QuadraticForm(1, 1, 1)
    ell = 2000
    tracemalloc.start()
    try:
        got = chi_hat(f, ell, 3, 1999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    v, u = np.divmod(latticesums._residue_keys(f, ell), ell)
    want = sum(np.exp(-2j * math.pi * ((int(a) * 1999 + int(b) * 3) % ell) / ell)
               for a, b in zip(u, v)) / ell**2
    assert abs(got - want) < 1e-12


def old_u_residues(f, ell):
    """The per-v reference the row kernel replaced."""
    a, b, c = f.a % ell, f.b % ell, f.c % ell
    u = np.arange(ell, dtype=np.int64)
    au2 = (a * u * u) % ell
    return [np.flatnonzero((au2 + (b * v) * u + c * v * v) % ell == 0).astype(np.int64)
            for v in range(ell)]


@pytest.mark.parametrize("block", [None, 7, 64])
def test_residue_kernel_callers_match_references(monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(arith, "_RESIDUE_BLOCK", block)
    rng = random.Random(41)
    for _ in range(12):
        f = random_big_form(rng)
        ell = rng.randint(2, 60)
        got = latticesums._residue_keys(f, ell)
        want = old_u_residues(f, ell)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.concatenate([v * ell + us for v, us in enumerate(want)]))
        table = np.zeros((ell, ell))
        for v, us in enumerate(want):
            table[us, v] = 1.0
        assert np.abs(latticesums._chi_hat_tables([f.triple()], ell)[0]
                      - np.fft.fft2(table) / ell**2).max() < 1e-12


def test_residue_kernel_refuses_ell_beyond_int64_bound():
    f = QuadraticForm(1, 0, 1)
    ell = 1 << 21
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        for call in (lambda: next(arith._residue_rows([f.triple()], ell)),
                     lambda: residue_density(f, ell),
                     lambda: chi_hat(f, ell, 0, 0),
                     lambda: congruence_sum_exact(f, ell, 100),
                     lambda: congruence_main_term(f, ell, 100.0)):
            with pytest.raises(ValueError, match="2\\^21"):
                call()
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.5 and peak < 1 << 20


def test_chi_hat_table_refuses_ell_past_its_memory_budget():
    # the complex table is 16 ell^2 bytes, 64 MiB at ell = 2048 (its whole
    # Poisson check peaked near 195 MB there); 2049 is refused unallocated
    f = QuadraticForm(1, 1, 1)
    tracemalloc.start()
    try:
        for call in (lambda: latticesums._chi_hat_tables([f.triple()], 2049),
                     lambda: poisson_identity_check(f, 2049, 0.7)):
            with pytest.raises(BudgetError, match="2048"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_poisson_dual_box_refused_past_its_budget():
    """The dual grid's bounding box grows with t and sqrt(c): past
    _POISSON_BOX_BUDGET points it is refused before it is built, and t = inf
    with it; t = 1e4 on (1,1,1), about 600,000 points, still answers."""
    tracemalloc.start()
    try:
        for f, t in ((QuadraticForm(1, 1, 1), 1e9), (QuadraticForm(1, 0, 2**61 - 1), 1.0),
                     (QuadraticForm(1, 1, 1), math.inf)):
            with pytest.raises(BudgetError, match="dual grid"):
                poisson_identity_check(f, 3, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    lhs, rhs = poisson_identity_check(QuadraticForm(1, 1, 1), 3, 1e4)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_poisson_refuses_nan_t_as_not_positive():
    # a NaN t is not > 0: refused as such, alone or in a stack, before any grid
    f = QuadraticForm(1, 1, 1)
    with pytest.raises(ValueError, match="need t > 0"):
        poisson_identity_check(f, 3, math.nan)
    with pytest.raises(ValueError, match="need t > 0"):
        latticesums._poisson_sides([f], (3,), (0.7, math.nan))


def test_poisson_sides_pinned():
    """(lhs, rhs) of seven checks, exact: the values the dual disk gave when
    it was cut from its bounding box, which the dual rows, listed in the
    box's order, reproduce bit for bit.  The two forms with large a have
    4a*n_dual past 2^52, beyond exact 64-bit rows, and still answer.  A
    stack of the same t values, unsorted and repeated, gives each t's pair
    in its own place."""
    pinned = {
        ((1, 1, 1), 3, 0.7): (1.0081839264262837, 1.0081839264262835),
        ((1, 1, 1), 3, 1e4): (1.0, 0.9999999999999999),
        ((1, 0, 10**8), 3, 1.0): (1.0000000000010512, 1.0000000000010512),
        ((2, 1, 3), 6, 0.7): (1.0000037209250785, 1.0000037209250785),
        ((1, 0, 1), 3, 1e-4): (1111.111111111111, 1111.111111111111),
        ((10000, 1, 10**6), 3, 1.0): (1.0, 1.0),
        ((131072, 1, 131072), 3, 1.0): (1.0, 1.0),
    }
    for (abc, ell, t), want in pinned.items():
        assert poisson_identity_check(QuadraticForm(*abc), ell, t) == want, (abc, ell, t)
    sides = latticesums._poisson_sides([QuadraticForm(1, 1, 1)], (3,), (0.7, 1e4, 0.7))[0]
    assert sides == {3: [pinned[(1, 1, 1), 3, 0.7], pinned[(1, 1, 1), 3, 1e4],
                         pinned[(1, 1, 1), 3, 0.7]]}


def test_poisson_grid_bounds_past_float_range_refused():
    """t so small that 46/(pi t), or so large that the dual disk's bound
    D*radius^2/4, passes the float range is refused with BudgetError, not
    OverflowError, in a message that names t and its grid."""
    for t, side in ((1e-320, "direct"), (1e307, "dual")):
        with pytest.raises(BudgetError, match=re.escape(f"t = {t:g}: the {side} grid")):
            poisson_identity_check(QuadraticForm(1, 0, 1), 3, t)


def test_poisson_identity_selfdual_closed_form():
    theta = math.fsum(math.exp(-math.pi * n * n) for n in range(-40, 41))
    lhs, rhs = poisson_identity_check(QuadraticForm(1, 0, 1), 1, 1.0)
    assert lhs == pytest.approx(theta * theta, rel=1e-12)
    assert abs(lhs - rhs) / lhs < 1e-12


def test_poisson_identity_cases():
    for f, ell, t in [(QuadraticForm(1, 0, 1), 2, 1.0),
                      (QuadraticForm(1, 1, 1), 3, 0.7)]:
        lhs, rhs = poisson_identity_check(f, ell, t)
        assert type(lhs) is float and type(rhs) is float
        assert abs(lhs - rhs) / lhs < 1e-10


def test_poisson_identity_grid_subset():
    ts = (0.5, 1.0, 2.0)
    big = QuadraticForm(1, 2 * 10**8, 10**16 + 1)  # u^2 + v^2, not reduced
    for f in reduced_forms_up_to(24) + [big]:
        # every (ell, t) from one enumeration and one stacked dual pass per t,
        # bit for bit what a lone (ell, t) call gives
        sides = latticesums._poisson_sides([f], range(1, 7), ts)[0]
        assert list(sides) == list(range(1, 7))
        for ell, pairs in sides.items():
            assert len(pairs) == len(ts)
            for t, (lhs, rhs) in zip(ts, pairs):
                assert (lhs, rhs) == poisson_identity_check(f, ell, t), (f, ell, t)
                assert abs(lhs - rhs) / abs(lhs) < 1e-9, (f, ell, t)


def test_stacked_poisson_sides_match_one_form_calls():
    # the 45 forms of the poisson-identity check (D <= 50) at once, bit for
    # bit what each form gives alone
    ts = (0.5, 1.0, 2.0)
    forms = reduced_forms_up_to(50)
    assert len(forms) == 45
    stacked = latticesums._poisson_sides(forms, range(1, 7), ts)
    assert len(stacked) == len(forms)
    for f, sides in zip(forms, stacked):
        assert sides == latticesums._poisson_sides([f], range(1, 7), ts)[0], f


def test_stacked_chi_hat_tables_match_lone_tables():
    # the stacked FFT against a lone 2-D FFT of each form's indicator, bit for
    # bit, and against the form's table on a stack of one
    forms = reduced_forms_up_to(200)
    abc = [f.triple() for f in forms]
    for ell in range(1, 13):
        tables = latticesums._chi_hat_tables(abc, ell)
        assert tables.shape == (len(forms), ell, ell)
        for f, table in zip(forms, tables):
            indicator = np.concatenate(list(arith._residue_rows([f.triple()], ell))).T
            assert np.array_equal(table, np.fft.fft2(indicator.astype(np.float64)) / ell**2)
            assert np.array_equal(table, latticesums._chi_hat_tables([f.triple()], ell)[0])


def test_chi_hat_stack_refused_past_its_memory_budget(monkeypatch):
    # a budget of seven ell = 6 tables admits seven of the 45 forms of the
    # poisson-identity check; a larger stack is refused unallocated, by the
    # tables and by the Poisson sides
    monkeypatch.setattr(latticesums, "_CHI_TABLE_BYTES", 16 * 6 * 6 * 7)
    forms = reduced_forms_up_to(50)
    abc = [f.triple() for f in forms]
    assert latticesums._chi_hat_tables(abc[:7], 6).shape == (7, 6, 6)
    tracemalloc.start()
    try:
        for call in (lambda: latticesums._chi_hat_tables(abc[:8], 6),
                     lambda: latticesums._chi_hat_tables(abc, 6),
                     lambda: latticesums._poisson_sides(forms, range(1, 7), (0.5, 1.0, 2.0))):
            with pytest.raises(BudgetError, match="memory budget"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_poisson_direct_side_matches_box_sum():
    rng = random.Random(77)
    for _ in range(12):
        f = reduce_form(random_form(rng, max_a=6, max_extra=20))
        ell, t = rng.randint(1, 8), rng.choice((0.5, 1.0, 2.0))
        ncut = int(46.0 / (math.pi * t)) + 40
        box = math.isqrt(4 * max(f.a, f.c) * ncut // f.D) + 2
        want = math.fsum(math.exp(-math.pi * t * n)
                         for u in range(-box, box + 1) for v in range(-box, box + 1)
                         for n in (f(u, v),) if n <= ncut and n % ell == 0)
        lhs, _ = poisson_identity_check(f, ell, t)
        assert abs(lhs - want) <= 1e-15 * want, (f, ell, t)


def per_shift_dual_side(f, ell, t):
    """The dual side one (s, r) shift at a time, as the loop it replaced."""
    a, c = f.a, f.c
    lat = latticesums.lattice_basis(f)
    d1, d2 = np.array(lat.dual1), np.array(lat.dual2)
    table = latticesums._chi_hat_tables([f.triple()], ell)[0]
    radius = math.sqrt(46.0 * t / math.pi) + np.linalg.norm(d1) + np.linalg.norm(d2)
    mrange = np.arange(-math.ceil(radius * math.sqrt(a)) - 1,
                       math.ceil(radius * math.sqrt(a)) + 2, dtype=np.float64)
    nrange = np.arange(-math.ceil(radius * math.sqrt(c)) - 1,
                       math.ceil(radius * math.sqrt(c)) + 2, dtype=np.float64)
    px = mrange[:, None] * d1[0] + nrange[None, :] * d2[0]
    py = mrange[:, None] * d1[1] + nrange[None, :] * d2[1]
    acc = []
    for s in range(ell):
        for r in range(ell):
            coeff = table[s, r]
            if abs(coeff) < 1e-18:
                continue
            shift = (s * d1 + r * d2) / ell
            sq = (px - shift[0]) ** 2 + (py - shift[1]) ** 2
            acc.append(coeff * float(np.sum(np.exp(-math.pi * sq / t))) / t)
    return math.sqrt(4.0 / f.D) * float(sum(acc).real)


@pytest.mark.parametrize("cap", [None, 1, 5000])
def test_poisson_dual_side_blocks_match_per_shift_loop(monkeypatch, cap):
    if cap is not None:  # 1: one shift per block; 5000: a few shifts per block
        monkeypatch.setattr(latticesums, "_DUAL_BLOCK", cap)
    rng = random.Random(1200)
    forms = reduced_forms_up_to(200)
    for _ in range(8):
        f, ell, t = rng.choice(forms), rng.randint(1, 12), rng.choice((0.5, 1.0, 2.0))
        _, rhs = poisson_identity_check(f, ell, t)
        want = per_shift_dual_side(f, ell, t)
        assert abs(rhs - want) <= 1e-14 * abs(want), (f, ell, t)


def test_poisson_identity_reduces_first():
    """(1, 2e8, 1e16+1) is u^2 + v^2 in disguise; sized from its own
    coefficients the dual-side grid would have ~4e24 cells."""
    big, square = QuadraticForm(1, 2 * 10**8, 10**16 + 1), QuadraticForm(1, 0, 1)
    t0 = time.perf_counter()
    for ell in (1, 2, 5):
        lhs, rhs = poisson_identity_check(big, ell, 1.0)
        assert (lhs, rhs) == poisson_identity_check(square, ell, 1.0)
        assert abs(lhs - rhs) / lhs < 1e-10
    assert time.perf_counter() - t0 < 1.0


def test_poisson_identity_equivalence_invariant():
    rng = random.Random(20260)
    for _ in range(25):
        g = random_form(rng).transform(*random_unimodular(rng))
        ell, t = rng.randint(1, 6), rng.choice((0.5, 1.0, 2.0))
        assert poisson_identity_check(g, ell, t) == \
            poisson_identity_check(reduce_form(g), ell, t), (g, ell, t)


# ---- translation exceptions --------------------------------------------------


def brute_exception_count(f, ell, r, s, box=10):
    count = 0
    for u in range(-box, box + 1):
        for v in range(-box, box + 1):
            lhs = f(u * ell - r, v * ell - s) * Fraction(1, ell * ell)
            if lhs < Fraction(f(u, v), 2):
                count += 1
    return count


def test_translation_exceptions_examples(monkeypatch):
    f = QuadraticForm(1, 0, 1)
    assert translation_exception_count(f, 2, 1, 0) == 1
    assert translation_exception_count(f, 2, 1, 1) == brute_exception_count(f, 2, 1, 1)
    with pytest.raises(ValueError):
        translation_exception_count(f, 2, 0, 0)
    with pytest.raises(ValueError):
        translation_exception_count(QuadraticForm(3, 5, 6), 2, 1, 0)  # not reduced
    with pytest.raises(ValueError):  # the ValueErrors come before the budget
        translation_exception_count(QuadraticForm(3, 5, 6), 1 << 24, 1, 0)
    with pytest.raises(BudgetError):  # 4a*(6c*ell^2 - 1) = 1.5 * 2^52 - 4
        translation_exception_count(f, 1 << 24, 1, 0)
    monkeypatch.setattr(latticesums, "_ROW_CHUNK", 2)  # rows tested 2 points at a time
    g = QuadraticForm(1, 0, 5)
    assert translation_exception_count(g, 5, 2, 3) == brute_exception_count(g, 5, 2, 3) == 6


def test_translation_exceptions_brute_and_bound():
    rng = random.Random(13)
    from qflab.forms import reduce_form

    checked = 0
    while checked < 100:
        f = reduce_form(random_form(rng, max_a=12, max_extra=30))
        if f.D > 10**4:
            continue
        ell = rng.randint(1, 10)
        r, s = rng.randrange(ell), rng.randrange(ell)
        if (r, s) == (0, 0):
            continue
        n = translation_exception_count(f, ell, r, s)
        if checked % 10 == 0:
            assert n == brute_exception_count(f, ell, r, s, box=12)
        assert n <= 40.0 * math.sqrt(f.D) / f.a, (f, ell, r, s, n)
        checked += 1


# ---- the radial bump and its transform --------------------------------------


def test_bump_values():
    g = TestFunctionG(4.0, 1.0)
    assert g(0.0) == 0.0
    assert g(1.5) == 1.0
    assert g(math.sqrt(5.0)) == 0.0
    assert g(10.0) == 0.0
    assert g(0.5) == 0.25
    arr = g(np.array([0.0, 1.0, 2.1]))
    assert arr == pytest.approx([0.0, 1.0, (5 - 2.1**2) / 1.0])


def test_hat_zero_closed_form():
    assert hat_g_at_zero(1, 1) == pytest.approx(math.pi)
    assert hat_g_at_zero(4, 2) == pytest.approx(4.5 * math.pi)


def test_transform_matches_closed_form_at_zero():
    for x, y in [(1, 1), (10, 3), (100, 10)]:
        v = hankel_transform(TestFunctionG(x, y), 0.0)
        assert v == pytest.approx(hat_g_at_zero(x, y), abs=1e-8)


def test_transform_large_argument_values():
    assert hankel_transform(TestFunctionG(100, 10), 0.0) == \
        pytest.approx(104.5 * math.pi, abs=1e-6)
    v = hankel_transform(TestFunctionG(100, 10), 2.0)
    assert abs(v) * 2.0**1.5 / 110.0**0.25 <= 10.0


def test_transform_decay_fixtures():
    for x, y in [(100, 10), (10**4, 10**2)]:
        g = TestFunctionG(x, y)
        for xi in (1.0, 2.0, 4.0, 8.0):
            v = abs(hankel_transform(g, xi))
            assert v * xi**1.5 / (x + y) ** 0.25 <= 0.25
            assert v * xi**2.5 / (1 + x**0.75 / y) <= 0.25


def _mp_hat_g(x, y, xi):
    """The closed form of hankel_transform in 50-digit arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        x, y, k = mpmath.mpf(x), mpmath.mpf(y), 2 * mpmath.pi * mpmath.mpf(xi)
        j = lambda z: mpmath.besselj(2, z) / z**2 if z else mpmath.mpf(1) / 8
        return float(-4 * mpmath.pi * (j(k) - ((x + y) ** 2 * j(k * mpmath.sqrt(x + y))
                                               - x * x * j(k * mpmath.sqrt(x))) / y))


def test_transform_matches_mpmath():
    """Rounding only: within 1e-15 (x + y)^2 / y of 50-digit arithmetic,
    also where the outer terms cancel (large x, small xi)."""
    for x, y in [(1, 1), (4, 1), (10, 3), (50, 9), (100, 10), (1e4, 1e2), (1e6, 1e3)]:
        g = TestFunctionG(x, y)
        for xi in (0.0, 1e-6, 1e-3, 0.1, 1.0, 2.0, 4.0, 8.0, 100.0):
            err = abs(hankel_transform(g, xi) - _mp_hat_g(x, y, xi))
            assert err <= 1e-15 * (x + y) ** 2 / y, (x, y, xi, err)


def test_transform_matches_scipy_quad_of_the_integral():
    """The closed form against 2*pi int r G(r) J0(2*pi*r*xi) dr by
    scipy.integrate.quad, on panels of at most a quarter period within each
    piece of G."""
    from scipy.integrate import quad
    from scipy.special import j0

    for x, y in [(1, 1), (10, 3), (100, 10), (1e4, 1e2)]:
        g = TestFunctionG(x, y)
        pieces = [0.0, 1.0, math.sqrt(x), g.radius]
        for xi in (1e-3, 0.1, 1.0, 2.0, 4.0, 8.0):
            parts = []
            for a, b in zip(pieces, pieces[1:]):
                edges = np.linspace(a, b, math.ceil(4.0 * xi * (b - a)) + 2)
                parts += [quad(lambda r: 2 * math.pi * r * g(r) * j0(2 * math.pi * r * xi),
                               lo, hi, epsabs=1e-12, epsrel=1e-12)[0]
                          for lo, hi in zip(edges, edges[1:])]
            assert abs(hankel_transform(g, xi) - math.fsum(parts)) <= 1e-9, (x, y, xi)


def test_j0_against_series_oracle():
    """The transform against the J0 power series integrated term by term in
    60-digit arithmetic: 2*pi int r G(r) J0(kr) dr = pi sum_k (-(pi xi)^2)^k
    / k!^2 int_0^(x+y) u^k G(sqrt u) du, each moment in closed form.  The
    largest J0 argument k*sqrt(x + y) runs over [0, 30]."""
    import mpmath

    def series(x, y, xi):
        with mpmath.workdps(60):
            x, y, h = mpmath.mpf(x), mpmath.mpf(y), (mpmath.pi * mpmath.mpf(xi)) ** 2
            s, acc = x + y, mpmath.mpf(0)
            for k in range(90):
                moment = (1 / mpmath.mpf(k + 2) + (x ** (k + 1) - 1) / (k + 1)
                          + (s * (s ** (k + 1) - x ** (k + 1)) / (k + 1)
                             - (s ** (k + 2) - x ** (k + 2)) / (k + 2)) / y)
                acc += (-h) ** k / mpmath.factorial(k) ** 2 * moment
            return float(mpmath.pi * acc)

    for x, y in [(1, 1), (4, 1), (10, 3), (50, 9)]:
        g = TestFunctionG(x, y)
        for z in np.linspace(0.0, 30.0, 31):
            xi = z / (2.0 * math.pi * g.radius)
            err = abs(hankel_transform(g, xi) - series(x, y, xi))
            assert err <= 1e-15 * (x + y) ** 2 / y, (x, y, z, err)


def test_j0_against_mpmath_besselj():
    """The transform against 2*pi int r G(r) J0(kr) dr by mpmath.quad with
    mpmath's J0, on quarter-period panels within each piece of G, where
    k*sqrt(x + y) sits on either side of the kernel's switches at 4 and 25
    and in its far branch."""
    import mpmath

    for x, y in [(4, 1), (100, 10)]:
        g = TestFunctionG(x, y)
        for z in (4.0 - 1e-6, 4.0 + 1e-6, 24.999999, 25.000001, 100.0):
            xi = z / (2.0 * math.pi * g.radius)
            with mpmath.workdps(30):
                k, mx, my = 2 * mpmath.pi * mpmath.mpf(xi), mpmath.mpf(x), mpmath.mpf(y)
                pieces = [(0, 1, lambda r: r * r), (1, mpmath.sqrt(mx), lambda r: 1),
                          (mpmath.sqrt(mx), mpmath.sqrt(mx + my), lambda r: (mx + my - r * r) / my)]
                want = 2 * mpmath.pi * mpmath.fsum(
                    mpmath.quad(lambda r: r * G(r) * mpmath.besselj(0, k * r),
                                mpmath.linspace(a, b, math.ceil(2 * float(k * (b - a)) / math.pi) + 2))
                    for a, b, G in pieces)
            err = abs(hankel_transform(g, xi) - float(want))
            assert err <= 1e-15 * (x + y) ** 2 / y, (x, y, z, err)


def test_transform_refuses_negative_xi():
    with pytest.raises(ValueError):
        hankel_transform(TestFunctionG(1, 1), -1e-3)


def test_j2_kernel_against_mpmath():
    """All three branches and both switches, at 4 and 25, against mpmath's
    J2, within 1e-15 absolute."""
    import mpmath

    zs = np.r_[0.0, np.linspace(0.0, 25.0, 51), 4.0 - 1e-6, 4.0 + 1e-6, 24.999999, 25.000001,
               np.geomspace(25.0, 1e6, 60)]
    got = latticesums._j2_over_z2(zs) * zs**2
    with mpmath.workdps(40):
        for z, v in zip(zs.tolist(), got.tolist()):
            assert abs(v - float(mpmath.besselj(2, z))) <= 1e-15, z


def test_j2_kernel_parity_with_scipy():
    from scipy.special import jv

    near = np.linspace(0.0, 200.0, 400_001)
    assert np.max(np.abs(latticesums._j2_over_z2(near) * near**2 - jv(2, near))) <= 2e-15
    far = np.geomspace(200.0, 1e6, 400_001)
    assert np.max(np.abs(latticesums._j2_over_z2(far) * far**2 - jv(2, far))) <= 1e-13


def test_j2_kernel_far_branch_matches_polyval():
    """Beyond 25 the kernel is Hankel's expansion, with P and Q each by
    polyval, bit for bit."""
    polyval = np.polynomial.polynomial.polyval
    z = np.linspace(25.0, 1e6, 500_001)[1:]
    y = 1.0 / (z * z)
    p, q = polyval(y, latticesums._J2_PQ[:, 0]), polyval(y, latticesums._J2_PQ[:, 1]) / z
    cos, sin = np.cos(z), np.sin(z)
    want = (q * (sin - cos) - p * (cos + sin)) / np.sqrt(math.pi * z) * y
    assert np.array_equal(latticesums._j2_over_z2(z), want)


def test_j2_kernel_even_and_shape_preserving():
    assert latticesums._j2_over_z2(0.0) == 0.125
    assert latticesums._j2_over_z2(0.0).shape == ()
    assert latticesums._j2_over_z2(10.0).shape == ()
    assert latticesums._j2_over_z2(30.0).shape == ()
    zs = np.r_[np.linspace(0.0, 40.0, 81), 1e3, 1e6]
    out = latticesums._j2_over_z2(zs)
    assert out.shape == zs.shape
    assert np.array_equal(latticesums._j2_over_z2(-zs), out)


def test_quad_segments_tolerance_error():
    spike = lambda x: np.abs(np.sin(1000.0 * x)) ** 0.2
    with pytest.raises(ToleranceError):
        quad_segments(spike, [0.0, 10.0], tol=1e-14, max_panels=12)

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from qflab.fourier import (
    BandlimitedFn,
    GaussPolyFn,
    dn_estimate,
    eval_h,
    functional_report,
    gap_constant,
    gauss_poly_hat_coeffs,
    gauss_poly_report,
    greedy_search,
    h_l1_norm,
    hat_h,
)
from qflab import fourier
from qflab.fourier import _hat_roots, _hat_tails, _rational_part_roots, _real_roots
from qflab.quadrature import quad_segments
from qflab.verify import TABLE_ROWS

F3_COEFFS = (68.0, 5.0, 1.0)
F3_LAM = 0.98644

_XK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])


def hat_oracle(coeffs, t, X=3_000.0):
    """Independent transform oracle: vectorized panel quadrature of
    2 * H(x) cos(2 pi x t) on [0, X] plus a three-term integration-by-parts
    tail for each frequency 2 pi (1 +- t); the neglected term is
    O(1/(alpha^3 X^4))."""
    per = 0.2 / (1.0 + abs(t))  # <= 0.2 cycles of the fastest component per panel
    edges = np.linspace(0.0, X, math.ceil(X / per) + 1)
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halfs[:, None] * _XK[None, :]).ravel()
    vals = 2.0 * eval_h(coeffs, nodes) * np.cos(2 * math.pi * nodes * t)
    body = float((vals.reshape(-1, 15) @ _WK * halfs).sum())

    def s_val(x):
        return sum(a / ((2 * j - 1) ** 2 - 16 * x * x)
                   for j, a in enumerate(coeffs, 1))

    def s_deriv(x):
        return sum(a * 32 * x / (((2 * j - 1) ** 2 - 16 * x * x) ** 2)
                   for j, a in enumerate(coeffs, 1))

    def s_deriv2(x):
        return sum(a * 32 * ((2 * j - 1) ** 2 + 48 * x * x)
                   / (((2 * j - 1) ** 2 - 16 * x * x) ** 3)
                   for j, a in enumerate(coeffs, 1))

    tail = 0.0
    for alpha in (2 * math.pi * (1 + t), 2 * math.pi * abs(1 - t)):
        if alpha < 1e-9:
            continue
        tail += (-s_val(X) * math.sin(alpha * X) / alpha
                 - s_deriv(X) * math.cos(alpha * X) / alpha**2
                 + s_deriv2(X) * math.sin(alpha * X) / alpha**3)
    return body + tail


def test_eval_h_examples():
    assert eval_h(F3_COEFFS, 0.0) == pytest.approx(68 + 5 / 9 + 1 / 25, rel=1e-14)
    assert eval_h(F3_COEFFS, 0.25) == pytest.approx(17 * math.pi, rel=1e-12)
    rng = random.Random(2)
    for _ in range(100):
        x = rng.uniform(-30, 30)
        assert eval_h(F3_COEFFS, x) == eval_h(F3_COEFFS, -x)


def test_eval_h_near_poles_matches_high_precision():
    import mpmath

    mpmath.mp.dps = 50
    one_term = [tuple(float(k == j) for k in range(1, j + 1)) for j in (1, 2, 3)]
    for coeffs in [(68.0, 5.0, 1.0)] + one_term:
        for j, m in ((1, 1), (2, 3), (3, 5)):
            pole = m / 4.0
            for off in (-9e-4, 1e-7, 1e-5, 3e-4, 9e-4, 2e-3):
                x = pole + off
                exact = sum(
                    mpmath.cos(2 * mpmath.pi * x) * a / ((2 * k - 1) ** 2 - 16 * mpmath.mpf(x) ** 2)
                    for k, a in enumerate(coeffs, 1))
                # one term within 1e-3 of its pole comes from the sinc identity alone
                rel = 1e-15 if coeffs == one_term[j - 1] and abs(off) < 1e-3 else 1e-10
                assert eval_h(coeffs, x) == pytest.approx(float(exact), rel=rel, abs=0), \
                    (coeffs, m, off)


def test_eval_h_off_poles_is_the_direct_quotient():
    """Off the poles every term is cos(2 pi x)/(m^2 - 16x^2), summed in j
    order, bit for bit; no input warns, poles included, and a scalar input
    returns a float."""
    rng = np.random.default_rng(21)
    poles = 0.25 * np.arange(1, 10, 2)
    near = (poles[:, None] + np.linspace(-2e-3, 2e-3, 81)[None, :]).ravel()
    far = rng.uniform(-30.0, 30.0, 500)
    far = far[np.abs(np.abs(far)[:, None] - poles[None, :]).min(axis=1) >= 1e-3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(40):
            n = int(rng.integers(1, 6))
            coeffs = tuple(float(c) for c in rng.integers(-300, 301, n))
            if not any(coeffs):
                continue
            ax = np.abs(far)
            want = np.zeros_like(far)
            for j, aj in enumerate(coeffs, start=1):
                if aj:
                    want = want + aj * (np.cos(2.0 * math.pi * ax)
                                        / ((2 * j - 1) ** 2 - 16.0 * ax * ax))
            assert np.array_equal(eval_h(coeffs, far), want)
            assert np.array_equal(eval_h(coeffs, -far), want)
            for x in (near, -near, np.concatenate((poles, -poles))):
                assert np.isfinite(eval_h(coeffs, x)).all()
            for x in (0.0, 0.25, -0.75, 1.2501, float(far[0]), np.float64(1.75),
                      np.asarray(2.25)):
                assert type(eval_h(coeffs, x)) is float
            assert eval_h(coeffs, float(far[0])) == want[0]


def test_h_at_zero_bit_identical_to_eval_h():
    rng = np.random.default_rng(22)
    for _ in range(3000):
        n = int(rng.integers(1, 6))
        scale = rng.choice([1.0, 1e-8, 1e200])
        coeffs = tuple(float(c) for c in rng.uniform(-1e3, 1e3, n) * scale
                       * (rng.random(n) < 0.8))
        if any(coeffs):
            assert fourier._h_at_zero(coeffs) == eval_h(coeffs, 0.0)
        ints = tuple(float(c) for c in rng.integers(-300, 301, n))
        if any(ints):
            assert fourier._h_at_zero(ints) == eval_h(ints, 0.0)


def _rational_part(coeffs, x):
    return sum(a / ((2 * j - 1) ** 2 - 16 * x * x) for j, a in enumerate(coeffs, 1))


def test_rational_part_roots():
    roots = _rational_part_roots([(270.0, 21.0, 4.0)])[0]
    assert roots == pytest.approx([0.7254, 1.2421], abs=1e-4)
    assert _rational_part_roots([(81.0, -69.0, 0.0)])[0] == pytest.approx([math.sqrt(3.4375)])
    for _, coeffs, _, _ in TABLE_ROWS:
        scale = sum(abs(a) for a in coeffs)
        for r in _rational_part_roots([coeffs])[0]:
            assert abs(_rational_part(coeffs, r)) < 1e-12 * scale, (coeffs, r)


def l1_oracle(coeffs, x0=40.0):
    """Independent ||H||_1: scipy.integrate.quad of |H| on each panel between
    the zeros of cos(2 pi x) and the sign changes of the rational part
    (bracketed on a fine grid, solved by brentq), plus the closed-form tail
    of the mean of |cos| against the rational part beyond x0."""
    from scipy.integrate import IntegrationWarning, quad
    from scipy.optimize import brentq

    terms = [(a, (2 * j - 1) ** 2) for j, a in enumerate(coeffs, 1) if a]

    def numer(x):  # the rational part over a common denominator: same roots, no poles
        return sum(a * math.prod(m2 - 16 * x * x for k, (_, m2) in enumerate(terms) if k != j)
                   for j, (a, _) in enumerate(terms))

    grid = np.linspace(0.0, x0, 4001)
    vals = np.array([numer(x) for x in grid])
    roots = [brentq(numer, grid[i], grid[i + 1], xtol=1e-15)
             for i in np.flatnonzero(vals[:-1] * vals[1:] < 0)]
    assert all(r < x0 - 1.0 for r in roots)
    edges = sorted({0.0, x0, *roots, *np.arange(0.25, x0, 0.5).tolist()})
    with warnings.catch_warnings():
        # eval_h switches to the sinc identity 1e-3 from each pole, where the
        # plain quotient has lost digits to cancellation; quad may report the
        # jump there as roundoff
        warnings.simplefilter("ignore", IntegrationWarning)
        body = math.fsum(
            quad(lambda x: abs(eval_h(coeffs, x)), a, b, epsabs=1e-12, epsrel=1e-12,
                 limit=200)[0]
            for a, b in zip(edges, edges[1:]))
    return 2.0 * body + _model_tail(coeffs, x0)


def _model_tail(coeffs, x0):
    """Mean of |cos| against the exact integral of the rational part beyond x0."""
    tail = math.fsum(
        a / (8.0 * (2 * j - 1)) * math.log((4 * x0 - (2 * j - 1)) / (4 * x0 + (2 * j - 1)))
        for j, a in enumerate(coeffs, 1) if a)
    return 2.0 * (2.0 / math.pi) * abs(tail)


def _x0(roots):
    return 1.5 * roots[-1] + 10.0 if roots and roots[-1] >= 39.0 else 40.0


def l1_by_gk15(coeffs, tol):
    """||H||_1 with |H| integrated by the adaptive GK15 driver on the same
    edges, X0 and tail model as the closed form."""
    roots = _rational_part_roots([coeffs])[0]
    x0 = _x0(roots)
    edges = sorted({0.0, x0, *roots, *np.arange(0.25, x0, 0.5).tolist()})
    body, _ = quad_segments(lambda x: np.abs(eval_h(coeffs, x)), edges, tol=tol,
                            max_panels=len(edges) + 4000)
    return 2.0 * body + _model_tail(coeffs, x0)


@pytest.mark.parametrize("coeffs", [row[1] for row in TABLE_ROWS])
def test_h_l1_norm_against_scipy_oracle(coeffs):
    assert abs(h_l1_norm(coeffs) - l1_oracle(coeffs)) <= 1e-9


def test_h_l1_norm_with_moved_x0_against_scipy_oracle():
    # (9 - 0.9997) / (16 * 0.0003): the rational part changes sign at 40.83,
    # so X0 moves to 1.5 * 40.83 + 10, off the quarter grid
    coeffs = (1.0, -0.9997)
    roots = _rational_part_roots([coeffs])[0]
    assert roots == pytest.approx([40.8256], abs=1e-4)
    assert abs(h_l1_norm(coeffs) - l1_oracle(coeffs, x0=_x0(roots))) <= 1e-9


def test_h_l1_norm_against_gk15():
    rng = random.Random(31)
    for _ in range(200):
        coeffs = _random_tuple(rng)
        want = l1_by_gk15(coeffs, 1e-13)
        assert h_l1_norm(coeffs) == pytest.approx(want, rel=1e-14, abs=0), coeffs


def test_si_against_mpmath():
    import mpmath

    rng = random.Random(13)
    xs = [rng.uniform(0.0, 2000.0) for _ in range(500)] + [
        rng.uniform(0.0, 12.0) for _ in range(200)] + [4.0, 4.0 + 1e-12, 3.999, 5e3, 1e4]
    grid = [0.5 * math.pi * k for k in range(1274)]
    with mpmath.workdps(30):
        for x in xs + grid:
            want = float(mpmath.si(x))
            assert abs(fourier._si(x) - want) <= 2e-15, x
            assert abs(fourier._si(-x) + want) <= 2e-15, x
        for k, x in enumerate(grid):
            assert abs(fourier._si_half_pi(k) - float(mpmath.si(x))) <= 2e-15, k


def test_rational_part_roots_are_scale_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coeffs in [row[1] for row in TABLE_ROWS] + [(1.0, -0.9997), (0.0, 3.0, -7.5)]:
            roots = _rational_part_roots([coeffs])[0]
            for e in (-1000, -3, 900):
                assert _rational_part_roots([[math.ldexp(a, e) for a in coeffs]])[0] == roots
        # once overflowed to inf; the small terms fall below the trim
        big = (1e305, 1.0, 3.0, 2.0, 1.0)
        assert _rational_part_roots([big])[0] == pytest.approx([0.75, 1.25, 1.75, 2.25])
        assert h_l1_norm(big) / 1e305 == pytest.approx(h_l1_norm((1.0,)), rel=1e-14)


@pytest.mark.parametrize("x0", [40.0, 70.25, "moved"])
def test_quarter_grid_matches_si_pair_at_every_edge(x0):
    if x0 == "moved":  # as h_l1_norm moves it for (1, -0.9997): off the grid
        x0 = 1.5 * _rational_part_roots([(1.0, -0.9997)])[0][-1] + 10.0
    for n_terms in range(1, 6):
        edges, phi, steps = fourier._quarter_grid(n_terms, x0)
        assert edges[-1] == x0
        for j in range(1, n_terms + 1):
            plus, minus = np.array([fourier._si_pair(2 * j - 1, x) for x in edges.tolist()]).T
            weight = fourier._phi_weight(j)
            assert phi[j - 1].tobytes() == (weight * (plus - minus)).tobytes(), (n_terms, j)
            want = weight * (np.diff(plus) - np.diff(minus))
            assert steps[j - 1].tobytes() == want.tobytes(), (n_terms, j)


def test_hat_h_inversion_and_support():
    # integral of the transform over [-1, 1] recovers H(0)
    val, _ = quad_segments(lambda t: hat_h(F3_COEFFS, t), [-1.0, 0.0, 1.0], tol=1e-10)
    assert val == pytest.approx(eval_h(F3_COEFFS, 0.0), abs=1e-8)
    # Paley-Wiener support
    assert hat_h(F3_COEFFS, 1.05) == 0.0
    assert hat_h(F3_COEFFS, -1.2) == 0.0
    assert abs(hat_oracle(F3_COEFFS, 1.05)) < 1e-8
    # value at 0 equals the direct integral of H
    assert hat_h(F3_COEFFS, 0.0) == pytest.approx(hat_oracle(F3_COEFFS, 0.0), abs=1e-8)


def test_hat_h_closed_form_against_quadrature_oracle():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 3)
        coeffs = tuple(rng.uniform(-60, 60) for _ in range(n))
        if not any(coeffs):
            continue
        t = rng.uniform(0.0, 0.95) if rng.random() < 0.7 else rng.uniform(1.05, 2.0)
        assert hat_h(coeffs, t) == pytest.approx(hat_oracle(coeffs, t), abs=1e-8)


def tails_oracle(coeffs, lam):
    """Independent (positive-part, absolute) tails: scipy quad of H-hat
    between its sign changes on [lam, 1], bracketed on a dense grid and
    solved by brentq."""
    from scipy.integrate import quad
    from scipy.optimize import brentq

    fun = lambda t: hat_h(coeffs, t)
    grid = np.linspace(lam, 1.0, 2001)
    vals = hat_h(coeffs, grid)
    roots = [brentq(fun, grid[i], grid[i + 1], xtol=1e-15)
             for i in np.flatnonzero(vals[:-1] * vals[1:] < 0)]
    edges = [lam, *roots, 1.0]
    pieces = [quad(fun, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
              for a, b in zip(edges, edges[1:])]
    return 2 * math.fsum(v for v in pieces if v > 0), 2 * math.fsum(abs(v) for v in pieces)


def _random_tuple(rng):
    coeffs = ()
    while not any(coeffs):
        coeffs = tuple(float(rng.randint(-300, 300)) for _ in range(rng.randint(1, 5)))
    return coeffs


def test_hat_tails_against_scipy_oracle():
    rng = random.Random(8)
    for i in range(100):
        coeffs = _random_tuple(rng)
        lam = rng.uniform(0.01, 1.0) if i % 2 else rng.uniform(0.9, 0.999)
        want = tails_oracle(coeffs, lam)
        got = _hat_tails(coeffs, lam)
        scale = sum(map(abs, coeffs))
        assert got == pytest.approx(want, rel=0, abs=1e-14 * scale), (coeffs, lam)


def test_hat_roots_bracket_every_sign_change():
    rng = random.Random(9)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    for _ in range(30):
        coeffs = _random_tuple(rng)
        roots = np.array(_hat_roots([coeffs])[0])
        assert np.all(np.diff(roots) > 0) and np.all((roots > 0) & (roots <= 1))
        vals = hat_h(coeffs, grid)
        for i in np.flatnonzero(vals[:-1] * vals[1:] < 0):
            lo, hi = grid[i] - 1e-9, grid[i + 1] + 1e-9
            assert np.any((roots >= lo) & (roots <= hi)), (coeffs, grid[i])
        scale = sum(map(abs, coeffs))
        assert np.all(np.abs(hat_h(coeffs, roots)) < 1e-9 * scale), coeffs


def test_real_roots_against_polyroots():
    rng = np.random.default_rng(14)
    poly = np.polynomial.polynomial
    for _ in range(300):
        deg = int(rng.integers(1, 7))
        n_real = deg - 2 * int(rng.integers(0, deg // 2 + 1))
        # planted real roots at least 0.1 apart, complex pairs 0.1 or more off the line
        real = np.sort(rng.choice(np.arange(-60, 61), n_real, replace=False) / 10.0)
        n_pairs = (deg - n_real) // 2
        pairs = rng.uniform(-5, 5, n_pairs) + 1j * rng.uniform(0.1, 3, n_pairs)
        coeffs = poly.polyfromroots([*real, *pairs, *pairs.conj()]).real * rng.uniform(-50, 50)
        lo, hi = sorted(rng.uniform(-7, 7, 2))
        got = _real_roots([coeffs], lo, hi)[0]
        want = sorted(r.real for r in poly.polyroots(coeffs)
                      if abs(r.imag) < 1e-9 and lo < r.real < hi)
        assert got == pytest.approx(want, rel=0, abs=1e-12), coeffs
        inside = real[(real > lo + 1e-6) & (real < hi - 1e-6)].tolist()
        assert [r for r in got if lo + 1e-6 < r < hi - 1e-6] == pytest.approx(inside, abs=1e-6)
        # a top coefficient below 1e-13 of the largest counts as zero
        assert _real_roots([[*coeffs, 1e-14 * np.abs(coeffs).max()]], lo, hi)[0] == got
    assert _real_roots([[-3.0, 2.0]], 0.0, 2.0)[0] == [1.5]
    assert _real_roots([[-3.0, 2.0]], 1.5, 2.0)[0] == []
    assert _real_roots([[2.0]], -1.0, 1.0)[0] == _real_roots([[0.0, 0.0]], -1.0, 1.0)[0] == []
    assert _real_roots([[-1.0, 0.0, 1.0]], -2.0, 2.0)[0] == pytest.approx([-1.0, 1.0])


def _real_roots_one_at_a_time(poly, lo, hi):
    """The finder on one polynomial: the same trim, then one eigvals call on
    its own companion matrix, as numpy's polycompanion lays it out."""
    scale = max(map(abs, poly), default=0.0)
    p = [float(c) if abs(c) > 1e-13 * scale else 0.0 for c in poly]
    while p and not p[-1]:
        p.pop()
    if len(p) < 2:
        return []
    if len(p) == 2:
        roots = [-p[0] / p[1]]
    else:
        mat = np.eye(len(p) - 1, k=-1)
        mat[:, -1] -= [c / p[-1] for c in p[:-1]]
        roots = np.linalg.eigvals(mat).tolist()
    return sorted(r.real for r in roots if abs(r.imag) < 1e-9 and lo < r.real < hi)


def test_stacked_real_roots_match_one_eigvals_call_each():
    rng = np.random.default_rng(16)
    polys = []
    for _ in range(600):
        poly = rng.uniform(-50, 50, int(rng.integers(1, 7))) * 10.0 ** rng.integers(-3, 4)
        # zero or sub-trim top coefficients, so some trim to linear or constant
        top = int(rng.integers(0, len(poly)))
        poly[len(poly) - top:] = rng.choice([0.0, 1e-15 * np.abs(poly).max()])
        polys.append(poly.tolist())
    trimmed = {len(np.trim_zeros(np.where(np.abs(p) > 1e-13 * np.abs(p).max(), p, 0.0), "b"))
               for p in polys}
    assert trimmed == {1, 2, 3, 4, 5, 6}
    polys[300:300] = [[0.0, 0.0, 0.0], []]
    for lo, hi in ((-math.inf, math.inf), (0.0, 1.0), (-3.0, 8.0)):
        want = [_real_roots_one_at_a_time(p, lo, hi) for p in polys]
        assert _real_roots(polys, lo, hi) == want
    assert _real_roots([], 0.0, 1.0) == []


def _hat_roots_by_chebroots(coeffs):
    """The sign changes of H-hat as chebroots finds them on the odd Chebyshev
    series in c = cos(pi*t/2), keeping c in (1e-12, 1) within 1e-7 of the line."""
    series = np.zeros(2 * len(coeffs))
    for j, aj in enumerate(coeffs, start=1):
        series[2 * j - 1] = (aj if j % 2 else -aj) * math.pi / (4.0 * (2 * j - 1))
    c = np.polynomial.chebyshev.chebroots(series)
    return sorted(2.0 / math.pi * math.acos(r.real) for r in c
                  if abs(r.imag) < 1e-7 and 1e-12 < r.real < 1.0)


def test_hat_roots_against_chebroots():
    rng = random.Random(14)
    for _ in range(200):
        coeffs = _random_tuple(rng)
        want = _hat_roots_by_chebroots(coeffs)
        assert _hat_roots([coeffs])[0] == pytest.approx(want, rel=0, abs=1e-12), coeffs
    # here c = 0 is a triple root, H-hat = -66 pi c^3 < 0 on (0, 1): chebroots
    # splits the triple root and keeps one piece 2.5e-6 from t = 1
    assert _hat_roots_by_chebroots((-198.0, 198.0)) == pytest.approx([1.0 - 2.466e-6], abs=1e-9)
    assert _hat_roots([(-198.0, 198.0)])[0] == []
    assert np.all(hat_h((-198.0, 198.0), np.linspace(0.0, 1.0, 10001)[:-1]) < 0)


def test_hat_roots_are_scale_free():
    rng = random.Random(15)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coeffs in [row[1] for row in TABLE_ROWS] + [_random_tuple(rng) for _ in range(50)]:
            roots = _hat_roots([coeffs])[0]
            for e in (-1000, -3, 900):
                assert _hat_roots([[math.ldexp(a, e) for a in coeffs]])[0] == roots, (coeffs, e)


def test_hat_tails_edge_cases():
    assert _hat_tails((68.0, 5.0, 1.0), 1.0) == (0.0, 0.0)
    assert _hat_tails((68.0, 5.0, 1.0), 1.05) == (0.0, 0.0)
    # (1,): H-hat = (pi/4) cos(pi t/2) > 0, both tails 1 - sin(pi lam/2)
    assert _hat_roots([(1.0,)])[0] == []
    for lam in (0.1, 0.5, 0.99):
        want = 1.0 - math.sin(0.5 * math.pi * lam)
        assert _hat_tails((1.0,), lam) == pytest.approx((want, want), rel=1e-14)
    # (0, 0, 1): H-hat = (pi/20) cos(5 pi t/2) changes sign at 0.2 and 0.6;
    # its pieces from 0.1 are (1 - sin(pi/4))/50, -2/50 and 2/50
    assert _hat_roots([(0.0, 0.0, 1.0)])[0] == pytest.approx([0.2, 0.6], abs=1e-14)
    first = (1.0 - math.sqrt(0.5)) / 50.0
    assert _hat_tails((0.0, 0.0, 1.0), 0.1) == pytest.approx(
        (2.0 * (first + 0.04), 2.0 * (first + 0.08)), rel=1e-14)
    five = (270.0, 21.0, 4.0, -3.0, 1.0)
    for lam in (0.1, 0.6, 0.95):
        assert _hat_tails(five, lam) == pytest.approx(tails_oracle(five, lam), abs=1e-14 * 299)


def test_functional_report_reference_rows():
    rep = functional_report(BandlimitedFn(F3_COEFFS, F3_LAM), 28.0)
    assert rep.j_plus == pytest.approx(1.0889, abs=5e-4)
    ratio = rep.l1_norm / (rep.f_at_zero - 28.0 * rep.tail_pos)
    assert 0.90 < ratio < 0.91833

    rep1 = functional_report(BandlimitedFn((81.0, -69.0, 0.0), 0.1), 1.0)
    assert rep1.j_plus == pytest.approx(1.9602, abs=5e-4)


def test_report_invariants():
    rng = random.Random(6)
    for _ in range(20):
        coeffs = tuple(rng.uniform(1.0, 90.0) for _ in range(3))  # F(0) > 0
        lam = rng.uniform(0.3, 1.1)
        rep = functional_report(BandlimitedFn(coeffs, lam), rng.uniform(1.0, 30.0))
        assert rep.l1_norm > 0
        assert rep.tail_pos >= 0
        assert rep.tail_abs >= rep.tail_pos - 1e-14
        assert rep.j_plus >= rep.j_abs - 1e-12


def test_scaling_invariance():
    rep = functional_report(BandlimitedFn(F3_COEFFS, F3_LAM), 28.0)
    scaled = tuple(7.5 * c for c in F3_COEFFS)
    rep2 = functional_report(BandlimitedFn(scaled, F3_LAM), 28.0)
    assert rep2.j_plus == pytest.approx(rep.j_plus, rel=1e-10)
    assert rep2.j_abs == pytest.approx(rep.j_abs, rel=1e-10)


def test_best_found_at_least_one_up_to_a_34_5():
    rep = functional_report(BandlimitedFn((270.0, 21.0, 4.0), 0.988182), 34.5)
    assert 1.0 <= rep.j_plus <= 2.0


def test_dilation_covariance_from_scratch():
    rng = random.Random(12)
    for lam in (0.5, 0.9, 1.0):
        coeffs = tuple(rng.uniform(5.0, 80.0) for _ in range(3))
        fn = BandlimitedFn(coeffs, lam)
        rep = functional_report(fn, 3.0)
        assert rep.f_at_zero == pytest.approx(eval_h(coeffs, 0.0), rel=1e-12)
        # L1 norm recomputed directly on the dilated function
        direct_l1, _ = quad_segments(
            lambda x: np.abs(fn(x)),
            np.linspace(0.0, 60.0 * lam, 481), tol=1e-9, max_panels=8000)
        tail_scale = lam * (h_l1_norm(coeffs) * 0.5 - quad_segments(
            lambda x: np.abs(eval_h(coeffs, x)),
            np.linspace(0.0, 60.0, 481), tol=1e-9, max_panels=8000)[0])
        assert 2 * (direct_l1 + tail_scale) == pytest.approx(rep.l1_norm, rel=1e-7)
        # positive tail recomputed on the dilated transform over [1, 1/lam]
        if lam < 1.0:
            fhat = lambda t: lam * hat_h(coeffs, lam * np.asarray(t))
            edges = np.linspace(1.0, 1.0 / lam, 40)
            pos, _ = quad_segments(lambda t: np.maximum(fhat(t), 0.0), edges,
                                   tol=1e-11, max_panels=4000)
            assert 2 * pos == pytest.approx(rep.tail_pos, rel=1e-6, abs=1e-12)


def test_gap_constant_values():
    fn = BandlimitedFn(F3_COEFFS, F3_LAM)
    c1 = gap_constant(fn, 28.0, 0.0, Fraction(1, 2), 1)
    assert 1.80 < c1 < 1.837
    c3 = gap_constant(fn, 28.0, 0.0, Fraction(1, 2), 3)
    assert c3 == pytest.approx(3 * c1, rel=1e-12)
    assert c3 < 5.511
    # alpha scales the constant linearly through (delta + alpha)/delta
    c_alpha = gap_constant(fn, 28.0, 0.5, Fraction(1, 2), 1)
    assert c_alpha == pytest.approx(2 * c1, rel=1e-9)


def test_gap_constant_inadmissible():
    # tiny central value, heavy tail: denominator goes negative
    fn = BandlimitedFn((0.0, 0.0, 1.0), 0.5)
    with pytest.raises(ValueError):
        gap_constant(fn, 28.0, 0.0, Fraction(1, 2), 1)


def test_greedy_search_targets():
    res = greedy_search(28.0, 3, budget=2500)
    assert res.report.j_plus >= 1.0889 - 5e-4
    res = greedy_search(10.0, 3, budget=2500)
    assert res.report.j_plus >= 1.1031 - 5e-4
    res = greedy_search(1.0, 2, budget=1500)
    assert res.report.j_plus >= 1.9602 - 5e-4


def test_greedy_search_budget_flag():
    res = greedy_search(28.0, 3, budget=40)
    assert res.exhausted
    assert res.report.j_plus > 0  # still returns best-so-far
    assert type(res.fn.lam) is float


def test_greedy_search_refuses_budget_below_one(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the search evaluated")

    for name in ("_rational_part_roots", "_hat_roots", "_hat_tails"):
        monkeypatch.setattr(fourier, name, refuse)
    for budget in (0, -5):
        with pytest.raises(ValueError, match="need budget >= 1"):
            greedy_search(5.0, 3, budget=budget)
    for A in (0.5, math.nan):
        with pytest.raises(ValueError, match="need A >= 1"):
            greedy_search(A, 3)
        with pytest.raises(ValueError, match="need A >= 1"):
            functional_report(BandlimitedFn((1.0,), 1.0), A)
    monkeypatch.undo()
    res = greedy_search(5.0, 3, budget=1)
    # the first seed's dilation refinement finishes past the budget
    assert res.exhausted and res.evaluations == 42
    assert res.fn.coeffs == (1.0, 0.0, 0.0)


def test_greedy_search_norm_once_per_tuple(monkeypatch):
    # the search solves for the rational parts' and H-hat's roots of a
    # sweep's candidates in one batch each; the log interleaves those
    # batches with the evaluations, each of which computes the tails
    log = []
    real_rational, real_roots, real_tails = (
        fourier._rational_part_roots, fourier._hat_roots, fourier._hat_tails)

    def counted_rational(tuples):
        log.append(("rational", tuple(tuples)))
        return real_rational(tuples)

    def counted_roots(tuples):
        log.append(("roots", tuple(tuples)))
        return real_roots(tuples)

    def counted_tails(coeffs, lam, roots=None):
        log.append(("eval", coeffs))
        return real_tails(coeffs, lam, roots)

    monkeypatch.setattr(fourier, "_rational_part_roots", counted_rational)
    monkeypatch.setattr(fourier, "_hat_roots", counted_roots)
    monkeypatch.setattr(fourier, "_hat_tails", counted_tails)
    for budget in (40, 100):
        log.clear()
        res = greedy_search(28.0, 3, budget=budget)
        # the final report computes its own norm, tails and sign changes
        best = res.fn.coeffs
        assert log[-3:] == [("rational", (best,)), ("eval", best), ("roots", (best,))]
        search = log[:-3]
        batches = [b for kind, b in search if kind == "rational"]
        # the sign changes of H-hat are found with the norm's, batch for batch
        assert batches == [b for kind, b in search if kind == "roots"]
        computed = [c for b in batches for c in b]
        assert len(computed) == len(set(computed))
        seen, evaluations = set(), 0
        for kind, b in search:
            if kind == "rational":
                seen.update(b)
            elif kind == "eval":
                assert b in seen
                evaluations += 1
        assert evaluations == res.evaluations
        if budget == 40:
            assert res.evaluations == 42  # lam refinement finishes past the budget
    assert len(computed) > 10 and max(map(len, batches)) > 1


def test_greedy_search_memo_matches_single_tuple_calls(monkeypatch):
    # every batched memo entry has the bits of h_l1_norm and _hat_roots
    # called on its tuple alone; the 5-term search mixes companion sizes
    norm_of, roots_of = {}, {}
    real_norm, real_roots = fourier._l1_norm, fourier._hat_roots

    def recorded_norm(coeffs, rational_roots):
        norm_of[coeffs] = real_norm(coeffs, rational_roots)
        return norm_of[coeffs]

    def recorded_roots(tuples):
        roots = real_roots(tuples)
        roots_of.update(zip(tuples, roots))
        return roots

    monkeypatch.setattr(fourier, "_l1_norm", recorded_norm)
    monkeypatch.setattr(fourier, "_hat_roots", recorded_roots)
    for A, *_ in SEARCH_400:
        greedy_search(A, 3, budget=400)
    greedy_search(5.0, 5, budget=80)
    monkeypatch.undo()
    assert norm_of.keys() == roots_of.keys() and len(norm_of) > 500
    for coeffs, norm in norm_of.items():
        assert h_l1_norm(coeffs) == norm, coeffs
        assert _hat_roots([coeffs])[0] == roots_of[coeffs], coeffs


def test_bandlimited_path_needs_no_quadrature(monkeypatch):
    import qflab.quadrature

    def refuse(*args, **kwargs):
        raise AssertionError("quad_segments called")

    # fourier binds no adaptive driver, and neither family reaches it
    assert not hasattr(fourier, "quad_segments")
    monkeypatch.setattr(qflab.quadrature, "quad_segments", refuse)
    res = greedy_search(28.0, 3, budget=400)
    assert (res.fn.coeffs, res.evaluations) == ((66.0, 5.0, 1.0), 437)
    gauss_poly_report(GaussPolyFn((0.3, -0.5, 0.2, 0.7)), 2.0)
    dn_estimate(2, budget=40)


def test_greedy_search_f0_once_per_tuple(monkeypatch):
    scalar = []
    real = fourier._h_at_zero

    def counted(coeffs):
        scalar.append(tuple(coeffs))
        return real(coeffs)

    def refuse(*args):
        raise AssertionError("eval_h called")

    monkeypatch.setattr(fourier, "_h_at_zero", counted)
    monkeypatch.setattr(fourier, "eval_h", refuse)
    res = greedy_search(28.0, 3, budget=400)
    # F(0) is memoised with the norm; the final report evaluates its own
    assert len(scalar) == len(set(scalar[:-1])) + 1 and scalar[-1] == res.fn.coeffs
    # mpmath, with the same X0 and tail model, gives j_plus = 1.08899844223116131
    assert (res.fn.coeffs, res.fn.lam, res.evaluations, res.report.j_plus) == (
        (66.0, 5.0, 1.0), 0.9865185562923403, 437, 1.0889984422311614)


# (A, coeffs, lam, evaluations, j_plus) of greedy_search(A, 3, 400), all
# exhausted; recorded when the tails were integrated by adaptive GK15
SEARCH_400 = [
    (1.0, (64.0, -58.0, 3.0), 0.1, 423, 1.965809770257602),
    (5.0, (83.0, -4.0, -8.0), 0.9020614383339863, 437, 1.1297256711232448),
    (10.0, (100.0, 4.0, -2.0), 0.9592695068425966, 437, 1.1031690837160941),
    (28.0, (66.0, 5.0, 1.0), 0.9865185562923403, 437, 1.0889984422311647),
    (34.5, (261.0, 21.0, 5.0), 0.989153765426526, 437, 1.0876047390232693),
]


@pytest.mark.parametrize("A, coeffs, lam, evaluations, j_plus", SEARCH_400)
def test_greedy_search_budget_400_regression(A, coeffs, lam, evaluations, j_plus):
    res = greedy_search(A, 3, budget=400)
    assert (res.fn.coeffs, res.fn.lam, res.evaluations, res.exhausted) == (
        coeffs, lam, evaluations, True)
    assert res.report.j_plus == pytest.approx(j_plus, rel=0, abs=1e-12)


# (A, coeffs, lam, evaluations, exhausted, j_plus) of greedy_search(A, 3, 4000)
SEARCH_4000 = [
    (1.0, (131.0, -138.0, 15.0), 0.1, 4007, True, 1.9687799678519042),
    (5.0, (101.0, -71.0, -44.0), 0.7060518733946257, 4001, True, 1.1428489517046807),
    (10.0, (349.0, 14.0, -7.0), 0.9592710674162632, 3827, False, 1.1031690845626867),
    (28.0, (197.0, 15.0, 3.0), 0.9865251669884755, 2111, False, 1.0889984452044306),
    (34.5, (265.0, 21.0, 5.0), 0.9891389834605891, 2177, False, 1.0876050686977605),
]


@pytest.mark.parametrize("A, coeffs, lam, evaluations, exhausted, j_plus", SEARCH_4000)
def test_greedy_search_budget_4000_regression(A, coeffs, lam, evaluations, exhausted, j_plus):
    res = greedy_search(A, 3, budget=4000)
    assert (res.fn.coeffs, res.fn.lam, res.evaluations, res.exhausted) == (
        coeffs, lam, evaluations, exhausted)
    assert res.report.j_plus == pytest.approx(j_plus, rel=0, abs=1e-12)


def test_greedy_search_ties_go_to_the_smaller_tuple():
    # with one term every seed is a positive multiple of (1,), so all reach
    # the same j up to rounding; the tie goes to the smallest tuple
    for A in (1.0, 5.0, 10.0, 28.0, 34.5):
        assert greedy_search(A, 1, budget=400).fn.coeffs == (1.0,), A
    assert greedy_search(5.0, 2, budget=1500).fn.coeffs == (236.0, -6.0)


def test_gauss_poly_reports():
    rep = gauss_poly_report(GaussPolyFn((1.0,)), 100.0)
    expected = 1.0 - 100.0 * math.erfc(math.sqrt(math.pi))
    assert rep.j_abs == pytest.approx(expected, abs=1e-6)
    assert rep.j_abs < 0
    rep = gauss_poly_report(GaussPolyFn((1.0,)), 1.0)
    assert rep.j_abs == pytest.approx(1.0 - math.erfc(math.sqrt(math.pi)), abs=1e-9)


def test_gauss_poly_transform_fixed_point_and_eigenbasis():
    assert gauss_poly_hat_coeffs((1.0,)) == pytest.approx([1.0 + 0.0j])
    assert gauss_poly_hat_coeffs((0.0, 1.0)) == pytest.approx([0.0, -1.0j])
    # quadratic: x^2 e^{-pi x^2} transforms to (1/(2 pi) - t^2) e^{-pi t^2}
    got = gauss_poly_hat_coeffs((0.0, 0.0, 1.0))
    assert got == pytest.approx([1 / (2 * math.pi), 0.0, -1.0])


def test_gauss_poly_negative_at_large_a():
    rng = random.Random(8)
    for _ in range(12):
        coeffs = [rng.uniform(-1, 1) for _ in range(5)]
        norm = math.sqrt(sum(c * c for c in coeffs))
        if norm == 0:
            continue
        fn = GaussPolyFn(tuple(c / norm for c in coeffs))
        assert gauss_poly_report(fn, 200.0).j_abs < 0


def _gauss_tail_abs_oracle(p):
    """2 * integral of |F-hat| over [1, inf) for even P, in mpmath at 30
    digits: x^k exp(-pi x^2) transforms to (i/(2 pi))^k times the k-th
    derivative of exp(-pi t^2), so Q(t) = sum p_k (-1)^(k/2) (4 pi)^(-k/2)
    H_k(sqrt(pi) t), with H_k built by its recurrence; |Q| is integrated
    between the real roots of Q."""
    import mpmath

    with mpmath.workdps(30):
        sp = mpmath.sqrt(mpmath.pi)
        q = [mpmath.mpf(0)] * len(p)
        h_prev, h = [], [mpmath.mpf(1)]  # H_(k-1), H_k at sqrt(pi) t, in powers of t
        for k, c in enumerate(p):
            assert k % 2 == 0 or c == 0
            for i, hi in enumerate(h):
                q[i] += c * (-1) ** (k // 2) / (4 * mpmath.pi) ** (k // 2) * hi
            h_prev, h = h, [2 * sp * a - 2 * k * b for a, b in zip([0, *h], [*h_prev, 0, 0])]
        while not q[-1]:
            q.pop()
        roots = sorted(r.real for r in mpmath.polyroots(q[::-1], extraprec=60)
                       if abs(r.imag) < 1e-20 and r.real > 1)
        fhat = lambda t: abs(mpmath.polyval(q[::-1], t)) * mpmath.exp(-mpmath.pi * t * t)
        return 2 * float(mpmath.quad(fhat, [1, *roots, mpmath.inf]))


def test_gauss_poly_tail_abs_against_mpmath():
    rng = random.Random(8)
    for _ in range(12):
        coeffs = [rng.uniform(-1, 1) for _ in range(5)]
        coeffs[1] = coeffs[3] = 0.0
        norm = math.sqrt(sum(c * c for c in coeffs))
        p = tuple(c / norm for c in coeffs)
        got = gauss_poly_report(GaussPolyFn(p), 1.0).tail_abs
        # twice the absolute tolerance of the adaptive integral this replaced
        assert abs(got - _gauss_tail_abs_oracle(p)) <= 2e-10, p


def _gauss_oracle(p):
    """(||F||_1, concentration, tail_pos, tail_abs) of F = P(x) exp(-pi x^2)
    in mpmath at 30 digits.  x^k exp(-pi x^2) transforms to
    (-i/(2 sqrt(pi)))^k H_k(sqrt(pi) t) exp(-pi t^2), so Re Q collects the
    even k and Im Q the odd k.  Each integral breaks at the real roots of
    the polynomials it takes the absolute or positive part of: P for the
    norm, Re Q for tail_pos, and both Re Q and Im Q for tail_abs, between
    whose roots |F-hat| bends sharply."""
    import mpmath

    with mpmath.workdps(30):
        sp, inf = mpmath.sqrt(mpmath.pi), mpmath.inf
        P = [mpmath.mpf(c) for c in p]
        re, im = [mpmath.mpf(0)] * len(p), [mpmath.mpf(0)] * len(p)
        h_prev, h = [], [mpmath.mpf(1)]  # H_(k-1), H_k at sqrt(pi) t, in powers of t
        for k, c in enumerate(P):
            part, sign = (re, 1) if k % 2 == 0 else (im, -1)  # (-i)^k = sign * i^(k % 2) * (-1)^(k//2)
            for i, hi in enumerate(h):
                part[i] += sign * (-1) ** (k // 2) * c / (2 * sp) ** k * hi
            h_prev, h = h, [2 * sp * a - 2 * k * b for a, b in zip([0, *h], [*h_prev, 0, 0])]

        def roots(q, lo):
            q = list(q)
            while q and not q[-1]:
                q.pop()
            found = mpmath.polyroots(q[::-1], maxsteps=200, extraprec=200) if len(q) > 1 else []
            return [r.real for r in found if abs(r.imag) < 1e-25 and r.real > lo]

        gauss = lambda x: mpmath.exp(-mpmath.pi * x * x)
        abs_f = lambda x: abs(mpmath.polyval(P[::-1], x)) * gauss(x)
        re_q = lambda t: mpmath.polyval(re[::-1], t)
        im_q = lambda t: mpmath.polyval(im[::-1], t)
        p_roots, re_roots, im_roots = roots(P, -inf), roots(re, 1), roots(im, 1)
        l1 = mpmath.quad(abs_f, [-inf, *sorted(p_roots), inf])
        inner = mpmath.quad(abs_f, [-1, *sorted(r for r in p_roots if -1 < r < 1), 1])
        tail_pos = 2 * mpmath.quad(lambda t: max(re_q(t), 0) * gauss(t), [1, *sorted(re_roots), inf])
        tail_abs = 2 * mpmath.quad(lambda t: mpmath.hypot(re_q(t), im_q(t)) * gauss(t),
                                   [1, *sorted(re_roots + im_roots), inf])
        return float(l1), float(inner / l1), float(tail_pos), float(tail_abs)


def _gauss_fixtures():
    """Unit-norm P: random ones of degree 0-8, even, odd and of mixed
    parity, and four with a root where an integral is cut: near 1 (the
    concentration's edge), near 8 (the norm's cut), and, through the
    transform of an even Q, a root of Re Q just past the tails' edge 1."""
    rng = random.Random(20)
    polys = [(1.0,)]
    for deg in range(1, 9):
        for parity in (0, 1, None):
            p = [rng.uniform(-1, 1) if parity is None or k % 2 == parity else 0.0
                 for k in range(deg + 1)]
            polys.append(p if p[-1] else p[:-1])  # the top degree has the other parity
    polys.append(np.polynomial.polynomial.polyfromroots([1 + 2.0**-30, -0.5]))
    polys.append(np.polynomial.polynomial.polyfromroots([-1 - 2.0**-30, 0.3, 2.0]))
    polys.append(np.polynomial.polynomial.polyfromroots([8 - 2.0**-20, -3.0, 0.5]))
    polys.append(gauss_poly_hat_coeffs((-(1 + 1e-9) ** 2, 0.0, 1.0, 0.0, 0.3)).real)
    return [tuple(c / math.sqrt(sum(x * x for x in p)) for c in p) for p in polys]


GAUSS_FIXTURES = _gauss_fixtures()


@pytest.mark.parametrize("p", GAUSS_FIXTURES)
def test_gauss_family_against_mpmath(p):
    rep = gauss_poly_report(GaussPolyFn(p), 1.0)
    got = (rep.l1_norm, fourier._concentration(list(p)), rep.tail_pos, rep.tail_abs)
    want = _gauss_oracle(p)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-14, (got, want)


def test_gauss_family_rule_constants(monkeypatch):
    def values():
        reps = [gauss_poly_report(GaussPolyFn(p), 1.0) for p in GAUSS_FIXTURES]
        return np.array([(r.l1_norm, r.tail_pos, r.tail_abs) for r in reps]
                        + [[fourier._concentration(list(p))] * 3 for p in GAUSS_FIXTURES])

    base = values()
    # twice the nodes on panels half as wide change nothing: 15 nodes and
    # 1/4 are past where the rule has converged
    nodes, weights = np.polynomial.legendre.leggauss(30)
    with monkeypatch.context() as m:
        m.setattr(fourier, "_GL_NODES", nodes)
        m.setattr(fourier, "_GL_WEIGHTS", weights)
        m.setattr(fourier, "_GL_PANEL", 0.125)
        assert np.abs(values() - base).max() <= 1e-15
    # one panel over each piece misses by far more, 15 nodes or 40: the
    # panel width, not the order, sets the error
    for order in (15, 40):
        nodes, weights = np.polynomial.legendre.leggauss(order)
        with monkeypatch.context() as m:
            m.setattr(fourier, "_GL_NODES", nodes)
            m.setattr(fourier, "_GL_WEIGHTS", weights)
            m.setattr(fourier, "_GL_PANEL", 16.0)
            assert np.abs(values() - base).max() > 1e-12, order


def test_gauss_family_tail_abs_near_a_complex_root():
    # Q has roots at 1.0360 - 0.0066i and 1.4217 - 0.0250i: |F-hat| is smooth
    # but bends sharply there, and 15 nodes on panels of 1/4 cut only at the
    # real roots of Re Q and Im Q were 1e-11 off; the panels graded toward
    # each complex root bring it within 1e-17
    p = (0.334885184569857, 0.30211904321907496, 0.5061872655869555, 0.3219065606411051,
         0.4563587985107136, 0.2585519476696607, -0.03427356577204491, -0.3455907515056528,
         0.20250063652968994)
    want = _gauss_oracle(p)
    assert abs(gauss_poly_report(GaussPolyFn(p), 1.0).tail_abs - want[3]) <= 1e-16


def test_dn_estimates():
    assert dn_estimate(0) == pytest.approx(math.erf(math.sqrt(math.pi)), rel=0, abs=1e-14)
    vals = [dn_estimate(n, budget=400) for n in range(5)]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
    assert all(v < 1.0 for v in vals)


def test_bandlimited_validation():
    with pytest.raises(ValueError):
        BandlimitedFn((0.0, 0.0), 0.9)
    with pytest.raises(ValueError):
        BandlimitedFn((1.0,), 1.5)
    with pytest.raises(ValueError):
        GaussPolyFn((0.0,))


import math

import numpy as np
import pytest

from qflab.quadrature import (GAUSS_INDICES, GAUSS_WEIGHTS, KRONROD_NODES, KRONROD_WEIGHTS,
                              ToleranceError, quad_segments)


def test_polynomial_exact():
    val, err = quad_segments(lambda x: x**5 - 3 * x**2 + 1, [-1.0, 2.0], tol=1e-12)
    exact = (2.0**6 - 1.0) / 6 - (2.0**3 + 1.0) + 3.0
    assert val == pytest.approx(exact, abs=1e-12)


def test_oscillatory():
    val, _ = quad_segments(lambda x: np.sin(40.0 * x), [0.0, math.pi], tol=1e-11)
    exact = (1.0 - math.cos(40.0 * math.pi)) / 40.0
    assert val == pytest.approx(exact, abs=1e-10)


def test_kink_refinement():
    val, _ = quad_segments(lambda x: np.abs(x - 0.3), [0.0, 1.0], tol=1e-10)
    assert val == pytest.approx(0.5 * (0.3**2 + 0.7**2), abs=1e-9)


def test_segments_and_budget():
    val, _ = quad_segments(lambda x: np.exp(-x), [0.0, 1.0, 5.0, 30.0], tol=1e-12)
    assert val == pytest.approx(1.0 - math.exp(-30.0), rel=1e-12)
    with pytest.raises(ToleranceError):
        quad_segments(lambda x: np.abs(np.sin(300.0 * x)) ** 0.3, [0.0, 20.0],
                      tol=1e-13, max_panels=10)


def _recording(f):
    calls = []

    def g(x):
        calls.append(np.array(x, copy=True))
        return f(x)

    return g, calls


def test_one_integrand_call_per_refinement_round():
    g, calls = _recording(lambda x: np.abs(x - 0.3))
    val, err = quad_segments(g, [0.0, 1.0], tol=1e-10)
    assert val == pytest.approx(0.5 * (0.3**2 + 0.7**2), abs=1e-9)
    assert err <= 1e-10
    assert len(calls) > 10
    widths = []
    for x in calls:
        assert x.ndim == 1 and x.size % 15 == 0
        panels = x.reshape(-1, 15)
        widths.append(float(np.min(panels[:, -1] - panels[:, 0])))
    # |x - 0.3| is linear off the kink, so each round bisects only the panel
    # holding 0.3: call i sees panels of width 2**-i, one call per round
    width0 = widths[0]
    assert widths == pytest.approx([width0 / 2**i for i in range(len(widths))], rel=1e-9)
    assert all(x.size == 30 for x in calls[1:])


def test_initial_panels_share_one_call():
    g, calls = _recording(lambda x: np.exp(-x))
    quad_segments(g, [0.0, 1.0, 1.0, 5.0, 30.0], tol=1e-12)
    assert calls[0].shape == (3 * 15,)  # the empty panel [1, 1] is dropped
    assert all(x.ndim == 1 and x.size % 30 == 0 for x in calls[1:])


def test_tolerance_error_at_max_panels():
    g, calls = _recording(lambda x: np.abs(np.sin(300.0 * x)) ** 0.3)
    with pytest.raises(ToleranceError, match=r"error estimate .* > tol .* after 10 panels"):
        quad_segments(g, [0.0, 5.0, 10.0, 20.0], tol=1e-13, max_panels=10)
    # 3 initial panels plus 7 bisections, each adding two halves
    assert sum(x.size for x in calls) == 15 * (3 + 2 * 7)


def test_qk15_constants_to_full_double_precision():
    assert abs(math.fsum(KRONROD_WEIGHTS) - 2.0) <= 4e-16
    assert abs(math.fsum(GAUSS_WEIGHTS) - 2.0) <= 4e-16
    gauss_nodes = KRONROD_NODES[GAUSS_INDICES]
    for nodes, weights, degree in ((KRONROD_NODES, KRONROD_WEIGHTS, 22),
                                   (gauss_nodes, GAUSS_WEIGHTS, 13)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(math.fsum(weights * nodes**k) - exact) <= 1e-15, (degree, k)
    # no bias left: 15-digit constants gave 0.999999999999997 here
    assert quad_segments(lambda x: np.ones_like(x), [0.0, 1.0])[0] == 1.0

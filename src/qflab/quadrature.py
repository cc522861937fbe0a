"""Adaptive Gauss-Kronrod panel quadrature.

Each panel carries QUADPACK's qk15 value and error estimate from a 7/15-point
Kronrod pair.  The driver works in rounds: one call of the integrand
evaluates every initial panel, then each round bisects the largest-error
panels whose estimates together cover the excess of the total error over the
tolerance and evaluates all the new halves in one further call.  Integrands
therefore receive flat 1-D node arrays (15 nodes per panel) and must accept
array input.  Totals run through math.fsum to avoid accumulation noise across
many panels.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["ToleranceError", "quad_segments",
           "KRONROD_NODES", "KRONROD_WEIGHTS", "GAUSS_WEIGHTS", "GAUSS_INDICES"]


class ToleranceError(RuntimeError):
    """Requested accuracy not reached within the panel budget."""


# 15-point Kronrod nodes on [-1, 1] and the embedded 7-point Gauss rule, to
# the 33 digits of QUADPACK's qk15.f (xgk, wgk, wg), mirrored about 0.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG_CENTRE = 0.417959183673469387755102040816327
KRONROD_NODES = np.array([-x for x in _XGK] + [0.0] + list(reversed(_XGK)))
KRONROD_WEIGHTS = np.array([*_WGK, _WGK_CENTRE, *reversed(_WGK)])
GAUSS_WEIGHTS = np.array([*_WG, _WG_CENTRE, *reversed(_WG)])
GAUSS_INDICES = np.arange(1, 15, 2)


def _gk15(f, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """qk15 values and error estimates of the panels [lo[i], hi[i]], from
    one call of f on their flattened (k, 15) node array."""
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * KRONROD_NODES
    fv = np.asarray(f(nodes.ravel()), dtype=np.float64).reshape(nodes.shape)
    ik = half * (fv @ KRONROD_WEIGHTS)
    ig = half * (fv[:, GAUSS_INDICES] @ GAUSS_WEIGHTS)
    diff = np.abs(ik - ig)
    return ik, np.minimum(diff, (200.0 * diff) ** 1.5)


def quad_segments(f, edges, tol: float = 1e-10,
                  max_panels: int = 4000) -> tuple[float, float]:
    """Integrate f to absolute tolerance tol over the panels between
    consecutive edges (an edge list [a, b] is one interval).

    max_panels caps the initial panels plus bisections.  Returns (value,
    error_estimate); raises ToleranceError when the panel budget is
    exhausted with the estimate still above tol.
    """
    edges = np.asarray(edges, dtype=np.float64).ravel()
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return 0.0, 0.0
    val, err = _gk15(f, lo, hi)
    total_err = math.fsum(err)
    while total_err > tol:
        n = lo.size
        if n >= max_panels:
            raise ToleranceError(
                f"error estimate {total_err:.3e} > tol {tol:.3e} after {n} panels")
        # bisect the fewest largest-error panels whose estimates cover the excess
        order = np.argsort(-err, kind="stable")
        need = int(np.searchsorted(np.cumsum(err[order]), total_err - tol)) + 1
        split = order[:min(need, max_panels - n)]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((lo[split], mid))
        new_hi = np.concatenate((mid, hi[split]))
        new_val, new_err = _gk15(f, new_lo, new_hi)
        rest = np.ones(n, dtype=bool)
        rest[split] = False
        lo = np.concatenate((lo[rest], new_lo))
        hi = np.concatenate((hi[rest], new_hi))
        val = np.concatenate((val[rest], new_val))
        err = np.concatenate((err[rest], new_err))
        total_err = math.fsum(err)
    return math.fsum(val), total_err

"""Adaptive Simpson quadrature with batched interval refinement.

The integrand must accept numpy arrays. All pending subintervals (possibly
belonging to several independent integrals) are refined level by level, so
each refinement level costs one vectorized evaluation instead of one Python
call per point.
"""

from __future__ import annotations

import numpy as np


def adaptive_simpson(
    f, a: float, b: float, tol: float, initial_splits: int = 64, max_levels: int = 40
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol."""
    return float(
        adaptive_simpson_batch(f, [(a, b)], tol, initial_splits, max_levels)[0]
    )


def adaptive_simpson_batch(
    f,
    intervals,
    tol: float,
    initial_splits: int = 64,
    max_levels: int = 40,
) -> np.ndarray:
    """Integrate f over several intervals at once; returns one value each.

    Each interval starts on a uniform subdivision and is then refined with
    the classic Simpson halving estimate (|S_fine - S_coarse| < 15 * local
    tolerance, Richardson-corrected on acceptance).
    """
    intervals = np.asarray(intervals, dtype=float)
    totals = np.zeros(len(intervals))
    a = intervals[:, 0]
    b = intervals[:, 1]
    signs = np.where(b >= a, 1.0, -1.0)
    lo_all, hi_all = np.minimum(a, b), np.maximum(a, b)
    tol = max(tol, 1e-300)

    widths = hi_all - lo_all
    live = widths > 0.0
    if not np.any(live):
        return totals

    # Uniform level-0 subdivision of every live interval. Its edges and
    # midpoints are evaluated in one call, an interior edge only once.
    splits = max(1, int(initial_splits))
    edges = np.linspace(lo_all[live], hi_all[live], splits + 1).T
    lo = edges[:, :-1].ravel()
    hi = edges[:, 1:].ravel()
    owner = np.repeat(np.flatnonzero(live), splits)
    # Every pending subinterval has been halved equally often, so one local
    # tolerance serves them all.
    local_tol = tol / splits

    mid = 0.5 * (lo + hi)
    fvals = np.asarray(f(np.concatenate([edges.ravel(), mid])), dtype=float)
    fedges = fvals[: edges.size].reshape(edges.shape)
    flo, fhi, fmid = fedges[:, :-1].ravel(), fedges[:, 1:].ravel(), fvals[edges.size :]
    coarse = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    for level in range(max_levels):
        # Both halves of every pending subinterval, left halves first; their
        # midpoints are evaluated in one call.
        n = len(lo)
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        flo, fhi = np.concatenate([flo, fmid]), np.concatenate([fmid, fhi])
        sixth = (hi[n:] - lo[:n]) / 12.0
        mid = 0.5 * (lo + hi)
        fmid = np.asarray(f(mid), dtype=float)
        halves = np.concatenate([sixth, sixth]) * (flo + 4.0 * fmid + fhi)
        fine = halves[:n] + halves[n:]
        err = fine - coarse
        done = np.abs(err) < 15.0 * local_tol
        if level == max_levels - 1:
            done = np.ones_like(done)
        np.add.at(totals, owner[done], (fine + err / 15.0)[done])
        if done.all():
            break
        # Both halves of each unconverged subinterval go to the next level.
        keep = np.flatnonzero(~done)
        pair = np.concatenate([keep, keep + n])
        lo, mid, hi = lo[pair], mid[pair], hi[pair]
        flo, fmid, fhi = flo[pair], fmid[pair], fhi[pair]
        coarse = halves[pair]
        owner = owner[pair % n]
        local_tol /= 2.0

    return signs * totals

"""Brute-force dense-grid reference values for dim-2 spaces.

This module is the cross-check for the polished search: it scans a plain
theta x phi angular grid over [0, 2pi)^2, maps angles straight to sphere
points through the gauge, and reduces with no refinement step at all.  It
shares nothing with the search module except the gauge itself, so agreement
between the two is meaningful evidence.  Weighted lp takes its directions in
lp's coordinates (Space.scale), so the grid is uniform on the isometric lp
sphere; a raw-coordinate grid crowds onto one axis when the weights are far
apart.

Every pair-norm reduction, the inf-sup of t included, comes from one scan of
the upper triangle of the grid pairs.  Pair (j, i) carries the bits of pair
(i, j): x_j + x_i is the same float vector as x_i + x_j, and x_j - x_i is its
exact negation, which the gauge maps to the same bits (it is even bit for
bit).  The scan runs in row chunks of about _CHUNK_PAIRS pairs, sized so the
gauge's temporaries stay in L2.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spaces import Space

# Pairs per chunk.  The polygon gauge holds a (pairs, facets) float
# temporary: 1 MB per chunk on an 8-facet polygon, which with the combines'
# arrays stays in L2.  With 1 M-pair chunks (64 MB) the gauge ran several
# times slower.
_CHUNK_PAIRS = 16_384

_MODES = ("sup", "inf", "infsup")


@dataclass(frozen=True)
class OracleResult:
    value: float
    theta: float      # first-point angle at the extremum
    phi: float        # second-point angle at the extremum
    grid_size: int


def _unit_circle_points(space: Space, grid_size: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(grid_size) / grid_size
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if space.scale is not None:
        dirs = dirs * space.scale
    return dirs / np.asarray(space.gauge(dirs))[:, None]


def _scan(space: Space, pts: np.ndarray, eta: float):
    """Yield (i0, a, b, excluded) over row chunks of the upper triangle of
    the grid pairs: rows i0:i1 of pts, each paired with the points from row
    i0 onward, a = ||x+y||, b = ||x-y||, and the pairs with a or b below eta
    (none at eta 0, as norms are never negative).  Every pair below the
    triangle is the mirror of a pair an earlier chunk held, with the same
    bits of a and b.  Each chunk has about _CHUNK_PAIRS pairs (at least one
    row), so the gauge works in cache."""
    n = len(pts)
    i0 = 0
    while i0 < n:
        rows = max(1, _CHUNK_PAIRS // (n - i0))
        xs = pts[i0:i0 + rows, None, :]
        ys = pts[None, i0:, :]
        a = np.asarray(space.gauge(xs + ys))
        b = np.asarray(space.gauge(xs - ys))
        yield i0, a, b, (a < eta) | (b < eta)
        i0 += rows


class _RowSups:
    """The sup over every column of each grid row, from upper-triangle chunks.

    Row i of a chunk starting at row i0 holds columns i0 onward; columns
    below i0 are the mirrors held as column i by the earlier chunks, whose
    running column maxima are kept here.  Ties go to the lowest column, so
    each row's value and argmax equal those of a scan of its full row.
    """

    def __init__(self, n: int):
        self.col_best = np.full(n, -np.inf)
        self.col_arg = np.zeros(n, dtype=int)
        self.sup = np.empty(n)
        self.arg = np.empty(n, dtype=int)

    def add(self, i0: int, v: np.ndarray) -> None:
        rows = slice(i0, i0 + len(v))
        ra = v.argmax(axis=1)
        rv = v[np.arange(len(v)), ra]
        below = self.col_best[rows] >= rv     # lower columns win a tie
        self.sup[rows] = np.where(below, self.col_best[rows], rv)
        self.arg[rows] = np.where(below, self.col_arg[rows], ra + i0)
        ca = v.argmax(axis=0)
        cv = v[ca, np.arange(v.shape[1])]
        up = cv > self.col_best[i0:]          # earlier rows win a tie
        self.col_best[i0:][up] = cv[up]
        self.col_arg[i0:][up] = ca[up] + i0


def oracle_pair_norm_extrema(space: Space, combines: dict[str, tuple[Callable, str]],
                             grid_size: int = 3600, eta: float = 0.0
                             ) -> dict[str, OracleResult]:
    """Several pair-norm reductions from one shared scan.

    combines maps name -> (fn(a, b), mode) where a = ||x+y|| and
    b = ||x-y|| over the dense grid.  mode "sup" or "inf" takes the extremum
    over all pairs, ties to the first (theta, phi) in row-major order;
    "infsup" takes the inf over theta of the sup over phi, ties to the
    lowest phi and then the lowest theta.  One scan serves all entries,
    which is what makes sweeping a whole battery against the oracle
    affordable.

    Both pair norms are unchanged by swapping x and y, so each chunk only
    scans second-point indices from its own first row onward: the mirror of
    every skipped pair was already visited in an earlier row, which halves
    the work without touching values, witnesses, or tie order.  An inf-sup
    row takes its skipped columns from the column maxima of those earlier
    rows.
    """
    if space.dim != 2:
        raise ValueError("the oracle supports dim 2 only")
    for name, (_, mode) in combines.items():
        if mode not in _MODES:
            raise ValueError(f"mode of {name!r} must be one of {_MODES}, got {mode!r}")
    pts = _unit_circle_points(space, grid_size)
    n = grid_size
    state = {name: _RowSups(n) if mode == "infsup" else (-np.inf, -1)
             for name, (_, mode) in combines.items()}
    for i0, a, b, excl in _scan(space, pts, eta):
        for name, (fn, mode) in combines.items():
            sign = -1.0 if mode == "inf" else 1.0
            # Degenerate pairs may divide by zero; they are masked here.
            with np.errstate(divide="ignore", invalid="ignore"):
                v = sign * np.asarray(fn(a, b), dtype=float)
            v = np.where(np.isnan(v) | excl, -np.inf, v)
            if mode == "infsup":
                state[name].add(i0, v)
                continue
            flat = int(v.argmax())
            if v.ravel()[flat] > state[name][0]:
                ri, ci = divmod(flat, a.shape[1])
                state[name] = (v.ravel()[flat], (i0 + ri) * n + (i0 + ci))
    out = {}
    for name, (_, mode) in combines.items():
        if mode == "infsup":
            rows = state[name]
            i = int(rows.sup.argmin())
            best, j = rows.sup[i], rows.arg[i]
        else:
            best, flat = state[name]
            i, j = divmod(flat, n)
        if best == -np.inf:   # no admissible pair (in some row, for an inf-sup)
            where = " in a row" if mode == "infsup" else ""
            raise ValueError(f"every oracle grid pair{where} was excluded for {name!r}")
        sign = -1.0 if mode == "inf" else 1.0
        out[name] = OracleResult(float(sign * best), float(2.0 * np.pi * i / n),
                                 float(2.0 * np.pi * j / n), grid_size)
    return out


def oracle_infsup(space: Space, fn, grid_size: int = 3600, eta: float = 0.0) -> OracleResult:
    """inf over theta of sup over phi of fn(||x+y||, ||x-y||), dense grid:
    the "infsup" reduction of oracle_pair_norm_extrema."""
    return oracle_pair_norm_extrema(space, {"infsup": (fn, "infsup")}, grid_size, eta)["infsup"]

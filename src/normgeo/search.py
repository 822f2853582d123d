"""Deterministic extremum search over pairs of unit-sphere points.

Strategy: evaluate the objective on a coarse deterministic grid of sphere
parameters, then hand the best cells to one multistart engine
(refine_starts): golden-section line searches over a fixed direction set,
re-evaluation of the polished points, and one tie-break (extremal value
first, lexicographically smallest parameter tuple among ties).  No
randomness enters the search path, and ties between grid cells go to the
lowest index (top_cells), so the same machine and numpy build reproduce
results bit for bit.  Across numpy's CPU dispatch levels a gauge may round
differently in the last bits (lp's power kernel is dispatched), and then
so may the results.

Sphere parameterization: dim 2 uses one angle per point; dim >= 3 uses raw
direction vectors on the surface lattice of the cube [-1, 1]^dim (coordinates
{-1 + 2i/k : 0 <= i <= k}, max-norm exactly 1), gauge-normalized.  Distinct
surface points are distinct directions, and doubling k refines the lattice in
place, so grids nest.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .spaces import Space

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LINE_EVALS = 24          # golden-section evaluations per line search
_STORED_PAIR_LIMIT = 40_000_000   # largest nx*ny kept as an in-memory table
CHUNK_PAIRS = 2_000_000   # pairs per block of a grid scan

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# Configuration and results
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the grid + polish search.  Defaults target dim 2."""

    grid_per_dim: int = 720
    refine_iters: int = 200   # polish budget per start, in line searches
    multistart: int = 16
    tol: float = 1e-9
    eta: float = 1e-6         # degeneracy exclusion radius

    def __post_init__(self):
        if self.grid_per_dim < 8:
            raise ValueError(f"grid_per_dim must be >= 8, got {self.grid_per_dim}")
        if self.refine_iters < 0:
            raise ValueError(f"refine_iters must be >= 0, got {self.refine_iters}")
        if self.multistart < 1:
            raise ValueError(f"multistart must be >= 1, got {self.multistart}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol}")
        if not (0.0 < self.eta < 1.0):
            raise ValueError(f"eta must lie in (0, 1), got {self.eta}")

    @staticmethod
    def for_dim(dim: int) -> "SearchConfig":
        if dim == 2:
            return SearchConfig()
        if dim == 3:
            return SearchConfig(grid_per_dim=24)
        return SearchConfig(grid_per_dim=8)


@dataclass
class ConstantEstimate:
    """Extremum estimate with witness.  gauge(x) = gauge(y) = 1 up to 1e-9."""

    value: float
    x: np.ndarray | None
    y: np.ndarray | None
    mode: str                      # "sup" | "inf" | "infsup"
    converged: bool
    evaluations: int
    config: SearchConfig
    t: float | None = None         # auxiliary scalar for scaled-pair constants
    near_exclusion: bool = False   # witness within 10*eta of the excluded set

    def witness_dict(self) -> dict:
        d: dict = {}
        if self.x is not None:
            d["x"] = [float(v) for v in self.x]
        if self.y is not None:
            d["y"] = [float(v) for v in self.y]
        if self.t is not None:
            d["t"] = float(self.t)
        return d


class PairNormObjective:
    """Objective that depends on the pair only through ||x+ty|| and ||x-ty||.

    t is fixed (1 for the pair constants, the modulus's t for gamma and rho),
    or None: then t is a third search parameter in [0, 1] and fn takes
    (a, b, t).  At t = 1 the search engine exploits the form: both norms are
    computed once per grid and shared across objectives.
    """

    def __init__(self, fn: Callable[..., np.ndarray],
                 scalar_fn: Callable[..., float] | None = None, t: float | None = 1.0):
        self.fn = fn
        self.scalar_fn = scalar_fn   # float twin for the 2D polish closure
        self.t = t

    def __call__(self, a, b, *t):
        # Degenerate pairs may divide by zero; the scans mask them afterwards.
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.fn(a, b, *t)


# --------------------------------------------------------------------------
# Sphere grids
# --------------------------------------------------------------------------

@dataclass
class SphereGrid:
    params: np.ndarray    # (n, k) parameter rows
    vectors: np.ndarray   # (n, dim) unit vectors
    step: float           # lattice spacing in parameter units


def sphere_point(space: Space, params) -> np.ndarray:
    """Map sphere parameters to a unit vector of the space.

    dim 2 accepts a single angle; any dim accepts a direction vector of
    length dim, which is gauge-normalized.  The zero direction is rejected.
    """
    arr = np.atleast_1d(np.asarray(params, dtype=float))
    if arr.size == 1 and space.dim == 2:
        direction = np.array([math.cos(arr[0]), math.sin(arr[0])])
    elif arr.size == space.dim:
        direction = arr.astype(float)
    else:
        raise ValueError(
            f"expected one angle (dim 2) or {space.dim} direction components, got {arr.size}")
    if np.abs(direction).max() < 1e-12:
        raise ValueError("zero direction has no sphere point")
    return direction / float(space.gauge(direction))


def sphere_grid(space: Space, grid_per_dim: int) -> SphereGrid:
    if space.dim == 2:
        n = grid_per_dim
        thetas = TWO_PI * np.arange(n) / n
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        vectors = dirs / np.asarray(space.gauge(dirs))[:, None]
        return SphereGrid(thetas[:, None], vectors, TWO_PI / n)
    k = grid_per_dim
    axis = -1.0 + 2.0 * np.arange(k + 1) / k
    mesh = np.stack(np.meshgrid(*([axis] * space.dim), indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, space.dim)
    # Keep the cube surface only: interior points duplicate surface directions.
    pts = pts[np.abs(pts).max(axis=1) >= 1.0 - 1e-12]
    vectors = pts / np.asarray(space.gauge(pts))[:, None]
    return SphereGrid(pts, vectors, 2.0 / k)


def sphere_points(space: Space, params: np.ndarray) -> np.ndarray:
    """Row-wise sphere_point for (n, k) parameter rows known to be nonzero."""
    if space.dim == 2 and params.shape[1] == 1:
        direction = np.stack([np.cos(params[:, 0]), np.sin(params[:, 0])], axis=1)
    else:
        direction = params
    return direction / np.asarray(space.gauge(direction))[:, None]


# --------------------------------------------------------------------------
# Pair tables
# --------------------------------------------------------------------------

@dataclass
class PairTable:
    """Stored ||x+y|| and ||x-y|| over the full grid (kept at dim-2 sizes)."""

    grid: SphereGrid
    plus: np.ndarray    # (n, n)
    minus: np.ndarray   # (n, n)


def pair_table(space: Space, cfg: SearchConfig) -> PairTable | None:
    """Precompute pair norms for reuse across objectives; None if too large."""
    grid = sphere_grid(space, cfg.grid_per_dim)
    n = len(grid.vectors)
    if n * n > _STORED_PAIR_LIMIT:
        return None
    plus = np.empty((n, n))
    minus = np.empty((n, n))
    rows = max(1, CHUNK_PAIRS // n)
    for i0 in range(0, n, rows):
        xs = grid.vectors[i0:i0 + rows, None, :]
        ys = grid.vectors[None, :, :]
        plus[i0:i0 + rows] = space.gauge(xs + ys)
        minus[i0:i0 + rows] = space.gauge(xs - ys)
    return PairTable(grid, plus, minus)


# --------------------------------------------------------------------------
# Golden-section polish
# --------------------------------------------------------------------------

def _golden_line(f, p, dvec, w, sign, best_val, counter):
    """Line search along p + s*dvec for s in [-w, w]; improves sign*f.

    Returns the best strictly improving point, or the incoming one when
    nothing beats it (ties keep the incoming point, so flat objectives do not
    drift).
    """
    a, b = -w, w
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    best_p, best = p, best_val

    def probe(s):
        nonlocal best_p, best
        val = f(p + s * dvec)
        counter[0] += 1
        if sign * val > sign * best:
            best_p, best = p + s * dvec, val
        return val

    fc = probe(c)
    fd = probe(d)
    for _ in range(_LINE_EVALS - 2):
        if sign * fc >= sign * fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = probe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = probe(d)
    return best_p, best


def _polish(f, p0, f0, step, sign, cfg: SearchConfig, directions, counter):
    """Cyclic direction-set golden-section refinement.  Returns p, val, converged.

    step: initial bracket half-width, one scalar for all directions or a
    sequence with one entry per direction.
    """
    budget = cfg.refine_iters
    if budget == 0:
        return p0, f0, False
    p, val = p0, f0
    widths = list(step) if np.ndim(step) else [step] * len(directions)
    it = 0
    converged = False
    while it < budget:
        cycle_val = val
        full_cycle = True
        for k, dvec in enumerate(directions):
            if it >= budget:
                full_cycle = False
                break
            p, val = _golden_line(f, p, dvec, widths[k], sign, val, counter)
            widths[k] *= 0.5
            it += 1
        if full_cycle and sign * (val - cycle_val) <= cfg.tol:
            converged = True
            break
    return p, val, converged


def _polish_batch(f, p0, f0, step, sign, cfg: SearchConfig, directions, counter):
    """_polish over B starts in lockstep: returns the (B, k) points, values
    and converged flags.  Each golden-section step is one call f(params,
    rows) on the active starts numbered rows.  Each start follows _polish bit
    for bit when f rounds a row the same in any batch, as element-wise
    gauges such as lp do; the polygon gauge's matrix product can round a row
    differently depending on how many rows share the call."""
    p = np.array(p0, dtype=float)
    val = np.array(f0, dtype=float)
    converged = np.zeros(len(val), dtype=bool)
    active = np.full(len(val), cfg.refine_iters > 0)
    widths = list(step) if np.ndim(step) else [step] * len(directions)
    it = 0
    while it < cfg.refine_iters and active.any():
        cycle_val = val.copy()
        for k, dvec in enumerate(directions):
            if it >= cfg.refine_iters:
                break
            rows = np.flatnonzero(active)
            p[rows], val[rows] = _golden_batch(f, p[rows], rows, dvec, widths[k], sign,
                                               val[rows], counter)
            widths[k] *= 0.5
            it += 1
        else:   # a full cycle: test convergence
            with np.errstate(invalid="ignore"):   # inf - inf never converges
                done = active & (sign * (val - cycle_val) <= cfg.tol)
            converged |= done
            active &= ~done
    return p, val, converged


def _golden_batch(f, p, rows, dvec, w, sign, best, counter):
    """_golden_line for the starts numbered rows; compares sign * f (exact)."""
    a = np.full(len(rows), -w)
    b = np.full(len(rows), w)
    best_p, best = p, sign * best

    def probe(s):
        nonlocal best_p, best
        pts = p + s[:, None] * dvec
        val = sign * np.asarray(f(pts, rows), dtype=float)
        counter[0] += len(rows)
        better = val > best
        best_p = np.where(better[:, None], pts, best_p)
        best = np.where(better, val, best)
        return val

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = probe(c)
    fd = probe(d)
    for _ in range(_LINE_EVALS - 2):
        left = fc >= fd                      # keep [a, d]; else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        t = _INVPHI * (b - a)
        s = np.where(left, b - t, a + t)
        fs = probe(s)
        c, d, fc, fd = (np.where(left, s, d), np.where(left, c, s),
                        np.where(left, fs, fd), np.where(left, fc, fs))
    return best_p, sign * best


# --------------------------------------------------------------------------
# The multistart engine
# --------------------------------------------------------------------------

def _polish_starts(f, starts, values, widths, directions, sign, cfg: SearchConfig,
                   scalar=None):
    """Polish every start: returns the points, values, converged flags and
    the number of objective evaluations.

    The engine's one back-end switch.  scalar is a float closure of one
    parameter tuple; only _pair_float builds one, for 2D pair-norm objectives
    on a space with a scalar gauge, and then the starts run _polish one at a
    time on plain floats.  Every other objective runs _polish_batch in
    lockstep on f(params, rows), rows numbering the starts.
    """
    counter = [0]
    if scalar is None:
        out = _polish_batch(f, starts, values, widths, sign, cfg, directions, counter)
    else:
        out = map(np.array, zip(*[_polish(scalar, p, float(v), widths, sign, cfg, directions,
                                          counter)
                                  for p, v in zip(starts, values)]))
    return (*out, counter[0])


def _wrap(params: np.ndarray, angles: int) -> np.ndarray:
    """Reduce the first `angles` parameter columns into [0, 2pi)."""
    params[:, :angles] = np.mod(params[:, :angles], TWO_PI)
    return params


def refine_starts(f, starts, values, widths, directions, sign: float, cfg: SearchConfig,
                  *, angles: int = 0, scalar=None):
    """Multistart refinement of grid starts: polish each one (_polish_starts),
    wrap its angle parameters, re-evaluate it, and pick the winner by value
    (largest for sign +1, smallest for -1), then by the smallest parameter
    tuple.

    widths holds one initial bracket half-width per direction.  Returns the
    polished points, their re-evaluated values, the converged flags, the
    index of the winner and the evaluation count, each evaluation counted
    once.
    """
    P, _, conv, count = _polish_starts(f, starts, values, widths, directions, sign, cfg,
                                       scalar)
    P = _wrap(P, angles)
    vals = np.array([scalar(p) for p in P] if scalar is not None
                    else f(P, np.arange(len(P))), dtype=float)
    best = min(range(len(P)), key=lambda i: (-sign * vals[i], tuple(P[i])))
    return P, vals, conv, best, count + len(P)


# --------------------------------------------------------------------------
# Pair objectives
# --------------------------------------------------------------------------

_PLUS_MINUS = np.array([1.0, -1.0])


def _pair_values(space: Space, objective, xs, ys, exclude: bool, eta: float, sign: float,
                 t=None, norms=None):
    """Objective at the broadcast pairs, with excluded and NaN pairs scored
    -sign * inf, and the number of the other pairs.  t (one value per row of
    ys) overrides a PairNormObjective's own t; norms, the pair norms
    (||x+y||, ||x-y||) when they are already known, replaces the gauge."""
    pairnorm = isinstance(objective, PairNormObjective)
    if norms is not None:
        plus, minus = norms
    elif pairnorm or exclude:
        if t is not None:
            ys = t[:, None] * ys
        elif pairnorm and objective.t != 1.0:
            ys = objective.t * ys
        if np.ndim(xs) > 2:   # a block of grid rows: one norm array at a time
            plus, minus = np.asarray(space.gauge(xs + ys)), np.asarray(space.gauge(xs - ys))
        else:   # a polish batch: x + (-1 * ty) is exactly x - ty, one gauge call
            plus, minus = np.asarray(space.gauge(xs + _PLUS_MINUS[:, None, None] * ys))
    if not pairnorm:
        vals = objective(xs, ys)
    else:
        vals = objective(plus, minus) if t is None else objective(plus, minus, t)
    vals = np.asarray(vals, dtype=float)
    bad = np.isnan(vals)
    if exclude:
        bad |= (plus < eta) | (minus < eta)
    return np.where(bad, -sign * np.inf, vals), vals.size - int(bad.sum())


def _pair_batch(space: Space, objective, exclude: bool, eta: float, sign: float):
    """Lockstep evaluator f(params, rows) over parameter rows (x, y[, t]).
    Excluded, NaN and out-of-range-t pairs score -sign * inf."""
    k = 1 if space.dim == 2 else space.dim
    search_t = getattr(objective, "t", 1.0) is None

    def f(params, rows):
        xs, ys = sphere_points(space, params[:, :k]), sphere_points(space, params[:, k:2 * k])
        t = params[:, 2 * k] if search_t else None
        vals = _pair_values(space, objective, xs, ys, exclude, eta, sign, t)[0]
        return np.where((t >= 0.0) & (t <= 1.0), vals, -sign * np.inf) if search_t else vals

    return f


def _pair_float(space: Space, objective, exclude: bool, eta: float, sign: float):
    """Pure-float twin of _pair_batch for one start, or None.

    Only 2D pair-norm objectives on a space with a scalar gauge have one;
    the polish makes tens of thousands of single-point calls there, where
    per-call array overhead would dominate the whole search.  Parameters are
    (theta_x, theta_y[, t]).
    """
    sg = space.scalar_gauge if space.dim == 2 else None
    if sg is None or not isinstance(objective, PairNormObjective):
        return None
    sfn = objective.scalar_fn or objective.fn
    t_fixed, search_t = objective.t, objective.t is None
    bad = -sign * math.inf
    cos, sin, isnan = math.cos, math.sin, math.isnan

    def f(params):
        if search_t:
            t = params[2]
            if not 0.0 <= t <= 1.0:
                return bad
        else:
            t = t_fixed
        c, s = cos(params[0]), sin(params[0])
        g = sg(c, s)
        x0, x1 = c / g, s / g
        c, s = cos(params[1]), sin(params[1])
        g = sg(c, s)
        y0, y1 = t * (c / g), t * (s / g)
        a = sg(x0 + y0, x1 + y1)
        b = sg(x0 - y0, x1 - y1)
        if exclude and (a < eta or b < eta):
            return bad
        val = float(sfn(a, b, t) if search_t else sfn(a, b))
        return bad if isnan(val) else val

    return f


def _direction_set(space: Space, search_t: bool) -> list[np.ndarray]:
    """Coordinate axes of the parameters (x, y[, t]); in 2D also the two
    angle diagonals: ridges of min/max objectives tend to run along
    theta_y - theta_x = const, which the axes alone miss."""
    eye = np.eye(2 * (1 if space.dim == 2 else space.dim) + search_t)
    return list(eye) + ([eye[0] + eye[1], eye[0] - eye[1]] if space.dim == 2 else [])


def refine_pairs(space: Space, objective, starts, values, step: float, cfg: SearchConfig,
                 mode: str, *, evaluations: int = 0, exclude: bool = False,
                 t_step: float | None = None) -> ConstantEstimate:
    """Run grid starts (x-params, y-params[, t]) of a pair objective through
    refine_starts and report the winner.

    Non-finite starts are dropped.  Sphere parameters are bracketed by step
    and a searched t (objective.t None) by t_step.  evaluations, the scan's
    count, is added to the engine's.
    """
    sign = 1.0 if mode == "sup" else -1.0
    keep = [i for i, v in enumerate(values) if math.isfinite(v)]
    if not keep:
        raise ValueError("no admissible grid pair; eta is too large for this grid")
    search_t = getattr(objective, "t", 1.0) is None
    directions = _direction_set(space, search_t)
    P, vals, conv, best, count = refine_starts(
        _pair_batch(space, objective, exclude, cfg.eta, sign),
        np.asarray(starts, dtype=float)[keep], np.asarray(values, dtype=float)[keep],
        [t_step if search_t and d[-1] else step for d in directions], directions, sign, cfg,
        angles=2 if space.dim == 2 else 0,
        scalar=_pair_float(space, objective, exclude, cfg.eta, sign))
    k = 1 if space.dim == 2 else space.dim
    x = sphere_point(space, P[best, :k])
    y = sphere_point(space, P[best, k:2 * k])
    a = float(space.gauge(x + y))
    b = float(space.gauge(x - y))
    return ConstantEstimate(
        value=float(vals[best]), x=x, y=y, mode=mode, converged=bool(conv[best]),
        evaluations=evaluations + count, config=cfg,
        t=float(P[best, -1]) if search_t else None,
        near_exclusion=(a < 10.0 * cfg.eta or b < 10.0 * cfg.eta))


# --------------------------------------------------------------------------
# Pair extremization
# --------------------------------------------------------------------------

def top_cells(vals: np.ndarray, sign: float, count: int, cells=None) -> np.ndarray:
    """Flat indices of the first `count` cells of vals (which holds no NaN)
    by value, largest first for sign +1 and smallest first for -1, then by
    flat index.  Row-major flat order makes the index order lexicographic in
    (i, j).

    Exact under any ties: every cell strictly better than the count-th value
    is taken, and the remaining places go to the lowest-index cells at that
    value, so the choice depends on the values alone.  cells, when given,
    holds the index of each value in a larger array (a chunk of given cells,
    or candidates merged from several scans), distinct and in any order, and
    takes the place of the flat index in the order.
    """
    key = -sign * np.ravel(vals)
    count = min(count, key.size)
    if count == 0:
        return np.empty(0, dtype=np.intp)
    kth = np.partition(key, count - 1)[count - 1]
    better = np.flatnonzero(key < kth)
    ties = np.flatnonzero(key == kth)
    if cells is not None:
        cells = np.asarray(cells)
        ties = ties[np.argsort(cells[ties])]
    idx = np.concatenate([better, ties[:count - better.size]])
    return idx[np.lexsort((idx if cells is None else cells[idx], key[idx]))]


def _scan(space: Space, objective, grid: SphereGrid, cache: PairTable | None,
          exclude: bool, eta: float, sign: float):
    """Walk the grid pairs in blocks of whole rows, CHUNK_PAIRS pairs at
    most: yield each block's first row, its (rows, n) values (excluded and
    NaN pairs scored -sign * inf) and its evaluation count.

    The pair norms of a t = 1 pair-norm objective come from the rows of the
    shared table cache when there is one; otherwise from the gauge, which
    needs less memory than building a table for one use.
    """
    n = len(grid.vectors)
    table = cache if getattr(objective, "t", None) == 1.0 else None
    rows = max(1, CHUNK_PAIRS // n)
    for i0 in range(0, n, rows):
        norms = None if table is None else (table.plus[i0:i0 + rows], table.minus[i0:i0 + rows])
        yield i0, *_pair_values(space, objective, grid.vectors[i0:i0 + rows, None, :],
                                grid.vectors, exclude, eta, sign, norms=norms)


def _scan_cells(space: Space, objective, cache: PairTable, exclude: bool, eta: float,
                sign: float, cells: np.ndarray):
    """_scan over the pairs numbered cells (flat indices into the table
    cache) of a t = 1 pair-norm objective, CHUNK_PAIRS at a time: yields each
    chunk's cells, values and evaluation count."""
    plus, minus = cache.plus.ravel(), cache.minus.ravel()
    for c0 in range(0, len(cells), CHUNK_PAIRS):
        chunk = cells[c0:c0 + CHUNK_PAIRS]
        yield chunk, *_pair_values(space, objective, None, None, exclude, eta, sign,
                                   norms=(plus[chunk], minus[chunk]))


def _extremize(space: Space, objective, cfg: SearchConfig, mode: str, exclude: bool,
               cache: PairTable | None, cells: np.ndarray | None = None):
    """Scan, pick the starts and refine them: returns the estimate and the
    flat grid indices of its starts.  cells, when given, limits the scan to
    those pairs of the table cache (see _scan_cells)."""
    sign = 1.0 if mode == "sup" else -1.0
    grid = cache.grid if cache is not None else sphere_grid(space, cfg.grid_per_dim)
    n = len(grid.vectors)
    if cells is None:
        blocks = ((i0 * n, vals, count) for i0, vals, count
                  in _scan(space, objective, grid, cache, exclude, cfg.eta, sign))
    else:
        blocks = _scan_cells(space, objective, cache, exclude, cfg.eta, sign, cells)
    found, values, evaluations = [], [], 0
    for where, vals, count in blocks:
        idx = top_cells(vals, sign, cfg.multistart, None if cells is None else where)
        found.append(where + idx if cells is None else where[idx])
        values.append(vals.ravel()[idx])
        evaluations += count
    found, values = np.concatenate(found), np.concatenate(values)
    best = top_cells(values, sign, cfg.multistart, found)
    starts = found[best]
    i, j = np.divmod(starts, n)
    est = refine_pairs(space, objective, np.hstack([grid.params[i], grid.params[j]]),
                       values[best], grid.step, cfg, mode,
                       evaluations=evaluations, exclude=exclude)
    return est, starts


def maximize_pair(space: Space, objective, cfg: SearchConfig | None = None,
                  exclude_degenerate: bool = False, *,
                  cache: PairTable | None = None) -> ConstantEstimate:
    """sup of objective(x, y) over unit-sphere pairs.

    objective is either a vectorized callable(x, y) on arrays of shape
    (..., dim), or a PairNormObjective with a fixed t.  With
    exclude_degenerate, pairs whose pair norms fall below eta (for t = 1:
    ||x+y|| < eta or ||x-y|| < eta) are skipped.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    return _extremize(space, objective, cfg, "sup", exclude_degenerate, cache)[0]


def minimize_pair(space: Space, objective, cfg: SearchConfig | None = None,
                  exclude_degenerate: bool = False, *,
                  cache: PairTable | None = None) -> ConstantEstimate:
    """inf of objective(x, y) over unit-sphere pairs; see maximize_pair."""
    cfg = cfg or SearchConfig.for_dim(space.dim)
    return _extremize(space, objective, cfg, "inf", exclude_degenerate, cache)[0]


def minimize_cells(space: Space, objective, cfg: SearchConfig, cache: PairTable | None,
                   cells: np.ndarray | None = None) -> tuple[ConstantEstimate, np.ndarray]:
    """minimize_pair for a t = 1 pair-norm objective, scanning only the
    pairs numbered cells (flat indices into the stored table cache) when
    cells is given, or every pair.  Returns the estimate and the flat grid
    indices of its starts: the cfg.multistart best scanned cells, by value
    and then by index."""
    return _extremize(space, objective, cfg, "inf", False, cache, cells)


# --------------------------------------------------------------------------
# inf-sup search
# --------------------------------------------------------------------------

_OUTER_BUDGET = 48       # cap on outer line searches (each one re-solves)
_INNER_STARTS = 4        # best grid cells of each row that the inner zoom refines
_ZOOM_TOL = 1e-12        # the inner zoom stops once its lattice spacing is below this


def _zoom_lattice(dim: int) -> tuple[np.ndarray, float]:
    """Offsets of the inner zoom, in units of its spacing, and the factor
    that shrinks the spacing per level: -4..4 on the angle in 2D, the cube
    {-1, 0, 1}^dim around a direction vector in dim >= 3, both without the
    centre, which is the incumbent.  Either way the next level's lattice
    covers the cell of the current best point."""
    if dim == 2:
        offsets = np.arange(-4.0, 5.0)[:, None]
        shrink = 0.25
    else:
        offsets = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=dim)))
        shrink = 0.5
    return offsets[np.abs(offsets).max(axis=1) > 0.0], shrink


def infsup_pair(space: Space, objective, cfg: SearchConfig | None = None,
                exclude_degenerate: bool = False, *,
                cache: PairTable | None = None) -> ConstantEstimate:
    """inf over x of sup over y of objective(x, y) on the unit sphere.

    Stage 1 takes the exact inner sup on the grid.  Stage 2 refines the
    outer starts with the engine, in lockstep, re-solving the inner problem
    at every outer probe for all active starts at once: a scan of their grid
    rows, then a lattice zoom from each row's _INNER_STARTS best cells.  One
    start per row is not enough, because the objective is usually symmetric
    under y -> -y, and the mirror cells of a broad basin can crowd out a
    sharp peak.  Each zoom level evaluates a fixed offset lattice around
    every start in one call and moves a start only to a strictly better
    point (the first one in lattice order among equals), shrinking the
    spacing until it is below _ZOOM_TOL.  The reported value, x and y come
    from one inner solve.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    eta, exclude = cfg.eta, exclude_degenerate
    grid = cache.grid if cache is not None else sphere_grid(space, cfg.grid_per_dim)
    n = len(grid.vectors)
    evaluations = 0
    outer_cfg = replace(cfg, refine_iters=min(cfg.refine_iters, _OUTER_BUDGET))
    dirs = list(np.eye(1 if space.dim == 2 else space.dim))
    angles = 1 if space.dim == 2 else 0
    offsets, shrink = _zoom_lattice(space.dim)
    first_spacing = grid.step / np.abs(offsets).max()   # the first lattice spans +-step
    # Points of the inner solve are stored coordinate-major: the gauges
    # reduce over the coordinate axis, which numpy does faster when that axis
    # is the outermost in memory (the lp gauge about 1.5-2x on these arrays).
    G = np.asfortranarray(grid.vectors)

    def unit(params):
        """Unit vectors, (starts, offsets, dim), of the coordinate-major
        parameters (k, starts, offsets)."""
        d = np.array([np.cos(params[0]), np.sin(params[0])]) if space.dim == 2 else params
        d = d.transpose(1, 2, 0)
        return d / np.asarray(space.gauge(d))[..., None]

    def inner_sup(X):
        """sup over y for each row x of X: the values and the y vectors."""
        nonlocal evaluations
        X = np.asfortranarray(X)
        vals, count = _pair_values(space, objective, X[:, None, :], G, exclude, eta, 1.0)
        evaluations += count
        cells = np.concatenate([top_cells(row, 1.0, _INNER_STARTS) for row in vals])
        rows = np.repeat(np.arange(len(X)), _INNER_STARTS)
        P = np.ascontiguousarray(grid.params[cells].T)   # (k, starts)
        Y = G[cells]
        V = vals[rows, cells]
        xs = X[rows, None, :]
        s = np.arange(len(V))
        h = first_spacing
        while h >= _ZOOM_TOL:
            cand = P[:, :, None] + h * offsets.T[:, None, :]
            ys = unit(cand)
            v, count = _pair_values(space, objective, xs, ys, exclude, eta, 1.0)
            evaluations += count
            j = v.argmax(axis=1)
            vj = v[s, j]
            better = vj > V
            P[:, better] = cand[:, s, j][:, better]
            Y[better], V[better] = ys[s, j][better], vj[better]
            h *= shrink
        V = V.reshape(len(X), _INNER_STARTS)
        win = np.arange(len(X)) * _INNER_STARTS + V.argmax(axis=1)
        return V.max(axis=1), Y[win]

    # Stage 1: exact grid inf-sup.
    row_sup = np.empty(n)
    for i0, vals, count in _scan(space, objective, grid, cache, exclude, eta, 1.0):
        row_sup[i0:i0 + len(vals)] = vals.max(axis=1)
        evaluations += count
    if evaluations == 0:
        raise ValueError("no admissible grid pair; eta is too large for this grid")
    start_rows = top_cells(row_sup, -1.0, cfg.multistart)

    # Stage 2: outer refinement.  Its own count is left out: each outer
    # evaluation is an inner solve, whose pair evaluations are counted above.
    # Widths halve, so in dim >= 3 a polish moves each coordinate of its
    # cube-surface start by under two grid steps in total, 4/grid_per_dim <=
    # 1/2, and so does the inner zoom: no direction either probes is
    # degenerate.
    P, vals, conv, best, _ = refine_starts(
        lambda params, rows: inner_sup(sphere_points(space, params))[0],
        grid.params[start_rows].astype(float), row_sup[start_rows], grid.step, dirs, -1.0,
        outer_cfg, angles=angles)
    # The engine's last call, repeated for the witnesses.
    X = sphere_points(space, P)
    vy, Y = inner_sup(X)
    x, y = X[best], Y[best]
    a = float(space.gauge(x + y))
    b = float(space.gauge(x - y))
    return ConstantEstimate(
        value=float(vy[best]), x=x, y=y, mode="infsup", converged=bool(conv[best]),
        evaluations=evaluations, config=cfg,
        near_exclusion=(a < 10.0 * cfg.eta or b < 10.0 * cfg.eta))

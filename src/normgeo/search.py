"""Deterministic extremum search over pairs of unit-sphere points.

Strategy: evaluate the objective on a coarse deterministic grid of sphere
parameters, polish the best cells with golden-section line searches over a
fixed direction set, and reduce with explicit tie-breaks (extremal value
first, lexicographically smallest parameter tuple among ties).  No randomness
enters the search path, so results are reproducible bit-for-bit.

Sphere parameterization: dim 2 uses one angle per point; dim >= 3 uses raw
direction vectors on the surface lattice of the cube [-1, 1]^dim (coordinates
{-1 + 2i/k : 0 <= i <= k}, max-norm exactly 1), gauge-normalized.  Distinct
surface points are distinct directions, and doubling k refines the lattice in
place, so grids nest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .spaces import Space

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LINE_EVALS = 24          # golden-section evaluations per line search
_STORED_PAIR_LIMIT = 40_000_000   # largest nx*ny kept as an in-memory table
_CHUNK_PAIRS = 2_000_000  # streaming chunk size in pairs

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
    seed: int = 42            # seeds sampling helpers only; the search is grid-based

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
    """Objective that depends on the pair only through ||x+y|| and ||x-y||.

    The search engine exploits this: both norms are computed once per grid and
    shared across objectives, and values are symmetric under swapping x and y,
    so oversized grids are scanned on half their pairs.
    """

    def __init__(self, fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 scalar_fn: Callable[[float, float], float] | None = None):
        self.fn = fn
        self.scalar_fn = scalar_fn   # float twin for the polish loop

    def __call__(self, a, b):
        # Degenerate pairs may divide by zero; the scans mask them afterwards.
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.fn(a, b)


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


def _params_to_vector(space: Space, params: np.ndarray) -> np.ndarray | None:
    """Polish-time variant of sphere_point: returns None on a degenerate direction."""
    if space.dim == 2 and params.size == 1:
        direction = np.array([math.cos(params[0]), math.sin(params[0])])
    else:
        direction = params
        if np.abs(direction).max() < 1e-12:
            return None
    return direction / float(space.gauge(direction))


def _params_to_vectors(space: Space, params: np.ndarray) -> np.ndarray:
    """Row-wise _params_to_vector for directions known to be nonzero."""
    if space.dim == 2 and params.shape[1] == 1:
        direction = np.stack([np.cos(params[:, 0]), np.sin(params[:, 0])], axis=1)
    else:
        direction = params
    return direction / np.asarray(space.gauge(direction))[:, None]


def _split_params(space: Space, params: np.ndarray):
    half = 1 if space.dim == 2 else space.dim
    return params[:half], params[half:]


def _wrap_params(space: Space, params: np.ndarray) -> np.ndarray:
    if space.dim == 2:
        return np.mod(params, TWO_PI)
    return params


# --------------------------------------------------------------------------
# Pair tables
# --------------------------------------------------------------------------

@dataclass
class PairTable:
    """Stored ||x+y|| and ||x-y|| over the full grid (kept at dim-2 sizes)."""

    grid: SphereGrid
    plus: np.ndarray    # (n, n)
    minus: np.ndarray   # (n, n)


def _table_from_grid(space: Space, grid: SphereGrid) -> PairTable:
    n = len(grid.vectors)
    plus = np.empty((n, n))
    minus = np.empty((n, n))
    rows = max(1, _CHUNK_PAIRS // n)
    for i0 in range(0, n, rows):
        xs = grid.vectors[i0:i0 + rows, None, :]
        ys = grid.vectors[None, :, :]
        plus[i0:i0 + rows] = space.gauge(xs + ys)
        minus[i0:i0 + rows] = space.gauge(xs - ys)
    return PairTable(grid, plus, minus)


def pair_table(space: Space, cfg: SearchConfig) -> PairTable | None:
    """Precompute pair norms for reuse across objectives; None if too large."""
    grid = sphere_grid(space, cfg.grid_per_dim)
    if len(grid.vectors) ** 2 > _STORED_PAIR_LIMIT:
        return None
    return _table_from_grid(space, grid)


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
    """_polish over B starts in lockstep, bit for bit per start: returns the
    (B, k) points, values and converged flags.  Each golden-section step is
    one call f(params, rows) on the active starts numbered rows."""
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


def _direction_set(space: Space) -> list[np.ndarray]:
    if space.dim == 2:
        # Angle pairs: axes plus diagonals; ridges of min/max objectives tend
        # to run along theta_y - theta_x = const, which the axes alone miss.
        return [np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                np.array([1.0, 1.0]), np.array([1.0, -1.0])]
    k = 2 * space.dim
    return [np.eye(k)[i] for i in range(k)]


# --------------------------------------------------------------------------
# Pair extremization engine
# --------------------------------------------------------------------------

def _scalar_objective(space: Space, objective, exclude: bool, eta: float, sign: float):
    """Wrap the vectorized objective for single-pair polish evaluations.

    2D spaces with a scalar gauge get a pure-float path; the polish loop makes
    tens of thousands of single-point calls, where per-call array overhead
    would dominate the whole search.
    """
    is_pairnorm = isinstance(objective, PairNormObjective)
    bad = -sign * math.inf
    sg = space.scalar_gauge if space.dim == 2 else None
    cos, sin, isnan = math.cos, math.sin, math.isnan

    if sg is not None and is_pairnorm:
        sfn = objective.scalar_fn if objective.scalar_fn is not None else objective.fn

        def f(params):
            c, s = cos(params[0]), sin(params[0])
            g = sg(c, s)
            x0, x1 = c / g, s / g
            c, s = cos(params[1]), sin(params[1])
            g = sg(c, s)
            y0, y1 = c / g, s / g
            a = sg(x0 + y0, x1 + y1)
            b = sg(x0 - y0, x1 - y1)
            if exclude and (a < eta or b < eta):
                return bad
            val = float(sfn(a, b))
            return bad if isnan(val) else val

        return f

    scalar2d = getattr(objective, "scalar2d", None)
    if sg is not None and scalar2d is not None and not exclude:

        def f(params):
            c, s = cos(params[0]), sin(params[0])
            g = sg(c, s)
            x0, x1 = c / g, s / g
            c, s = cos(params[1]), sin(params[1])
            g = sg(c, s)
            y0, y1 = c / g, s / g
            val = float(scalar2d(x0, x1, y0, y1))
            return bad if isnan(val) else val

        return f

    def f(params):
        xp, yp = _split_params(space, params)
        x = _params_to_vector(space, xp)
        y = _params_to_vector(space, yp)
        if x is None or y is None:
            return bad
        if is_pairnorm or exclude:
            a = float(space.gauge(x + y))
            b = float(space.gauge(x - y))
            if exclude and (a < eta or b < eta):
                return bad
            val = float(objective(a, b)) if is_pairnorm else float(objective(x, y))
        else:
            val = float(objective(x, y))
        if math.isnan(val):
            return bad
        return val

    return f


def _top_cells(vals: np.ndarray, sign: float, count: int):
    """Best `count` flat cells ordered by value then flat index.  Row-major
    flat order makes the index order lexicographic in (i, j)."""
    flat = vals.ravel()
    count = min(count, flat.size)
    if count >= flat.size:
        idx = np.arange(flat.size)
    else:
        idx = np.argpartition(-sign * flat, count - 1)[:count]
    order = np.lexsort((idx, -sign * flat[idx]))
    return [(float(flat[i]), int(i)) for i in idx[order]]


def _scan_stored(space: Space, objective, grid: SphereGrid, table: PairTable | None,
                 exclude: bool, eta: float, sign: float):
    """Full stored grid scan; table is required iff the objective or the
    exclusion rule needs pair norms."""
    n = len(grid.vectors)
    if isinstance(objective, PairNormObjective):
        vals = np.asarray(objective(table.plus, table.minus), dtype=float)
    else:
        vals = np.empty((n, n))
        rows = max(1, _CHUNK_PAIRS // n)
        for i0 in range(0, n, rows):
            vals[i0:i0 + rows] = objective(grid.vectors[i0:i0 + rows, None, :],
                                           grid.vectors[None, :, :])
        vals = vals.astype(float, copy=False)
    bad = np.isnan(vals)
    if exclude:
        bad |= (table.plus < eta) | (table.minus < eta)
    evaluations = vals.size - int(bad.sum())
    if evaluations == 0:
        raise ValueError("every grid pair is excluded; eta is too large for this grid")
    return np.where(bad, -sign * np.inf, vals), evaluations


def _scan_streaming(space: Space, objective, grid: SphereGrid, exclude: bool,
                    eta: float, sign: float, count: int):
    """Chunked scan for grids too large to store; returns top cells and count.

    PairNormObjective values are symmetric under swapping the pair, so only
    j >= i is scanned; the representative seen first is the lexicographically
    smaller one.
    """
    n = len(grid.vectors)
    symmetric = isinstance(objective, PairNormObjective)
    rows = max(1, _CHUNK_PAIRS // n)
    best: list[tuple[float, int]] = []
    evaluations = 0
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        xs = grid.vectors[i0:i1, None, :]
        ys = grid.vectors[None, :, :]
        if symmetric or exclude:
            plus = np.asarray(space.gauge(xs + ys))
            minus = np.asarray(space.gauge(xs - ys))
        if symmetric:
            vals = np.asarray(objective(plus, minus), dtype=float)
        else:
            vals = np.asarray(objective(xs, ys), dtype=float)
        bad = np.isnan(vals)
        if exclude:
            bad |= (plus < eta) | (minus < eta)
        if symmetric:
            bad |= np.arange(n)[None, :] < np.arange(i0, i1)[:, None]
        evaluations += vals.size - int(bad.sum())
        vals = np.where(bad, -sign * np.inf, vals)
        for v, fi in _top_cells(vals, sign, count):
            best.append((v, i0 * n + fi))
        best.sort(key=lambda c: (-sign * c[0], c[1]))
        del best[count:]
    if evaluations == 0:
        raise ValueError("every grid pair is excluded; eta is too large for this grid")
    return best, evaluations


def _extremize(space: Space, objective, cfg: SearchConfig, mode: str,
               exclude: bool, cache: PairTable | None) -> ConstantEstimate:
    sign = 1.0 if mode == "sup" else -1.0
    if cache is not None:
        grid = cache.grid
        table: PairTable | None = cache
    else:
        grid = sphere_grid(space, cfg.grid_per_dim)
        table = None
    n = len(grid.vectors)
    needs_table = isinstance(objective, PairNormObjective) or exclude

    if n * n <= _STORED_PAIR_LIMIT:
        if table is None and needs_table:
            table = _table_from_grid(space, grid)
        vals, evaluations = _scan_stored(space, objective, grid, table, exclude, cfg.eta, sign)
        starts = _top_cells(vals, sign, cfg.multistart)
        del vals
    else:
        starts, evaluations = _scan_streaming(space, objective, grid, exclude, cfg.eta,
                                              sign, cfg.multistart)

    counter = [0]
    f = _scalar_objective(space, objective, exclude, cfg.eta, sign)
    directions = _direction_set(space)
    results = []
    for val0, flat in starts:
        if not math.isfinite(val0):
            continue
        i, j = divmod(flat, n)
        p0 = np.concatenate([grid.params[i], grid.params[j]]).astype(float)
        p, val, converged = _polish(f, p0, val0, grid.step, sign, cfg, directions, counter)
        p = _wrap_params(space, p)
        val = f(p)
        counter[0] += 1
        results.append((val, tuple(p), converged))
    if not results:
        raise ValueError("no admissible grid pair; eta is too large for this grid")

    results.sort(key=lambda r: (-sign * r[0], r[1]))
    val, ptuple, converged = results[0]
    params = np.asarray(ptuple)
    xp, yp = _split_params(space, params)
    x = _params_to_vector(space, xp)
    y = _params_to_vector(space, yp)
    a = float(space.gauge(x + y))
    b = float(space.gauge(x - y))
    return ConstantEstimate(
        value=float(val), x=x, y=y, mode=mode,
        converged=converged, evaluations=evaluations + counter[0], config=cfg,
        near_exclusion=(a < 10.0 * cfg.eta or b < 10.0 * cfg.eta))


def maximize_pair(space: Space, objective, cfg: SearchConfig | None = None,
                  exclude_degenerate: bool = False, *,
                  cache: PairTable | None = None) -> ConstantEstimate:
    """sup of objective(x, y) over unit-sphere pairs.

    objective is either a vectorized callable(x, y) on arrays of shape
    (..., dim), or a PairNormObjective of the pair norms.  With
    exclude_degenerate, pairs with ||x+y|| < eta or ||x-y|| < eta are skipped.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    return _extremize(space, objective, cfg, "sup", exclude_degenerate, cache)


def minimize_pair(space: Space, objective, cfg: SearchConfig | None = None,
                  exclude_degenerate: bool = False, *,
                  cache: PairTable | None = None) -> ConstantEstimate:
    """inf of objective(x, y) over unit-sphere pairs; see maximize_pair."""
    cfg = cfg or SearchConfig.for_dim(space.dim)
    return _extremize(space, objective, cfg, "inf", exclude_degenerate, cache)


# --------------------------------------------------------------------------
# inf-sup search
# --------------------------------------------------------------------------

_INNER_BUDGET = 12       # line searches per inner sup re-solve
_PLUS_MINUS = np.array([1.0, -1.0])
_OUTER_BUDGET = 48       # cap on outer line searches (each one re-solves)


def infsup_pair(space: Space, objective, cfg: SearchConfig | None = None,
                exclude_degenerate: bool = False, *,
                cache: PairTable | None = None) -> ConstantEstimate:
    """inf over x of sup over y of objective(x, y) on the unit sphere.

    Stage 1 takes the exact inner sup on the grid; stage 2 polishes the outer
    point, re-solving the inner problem (grid scan + short golden-section
    polish) at every outer evaluation.

    2D pair-norm objectives with a scalar gauge polish on plain floats, one
    start at a time.  Otherwise the outer starts run in lockstep: each outer
    probe scans the grid rows of all active starts in one gauge call, then
    polishes their inner sups in lockstep (_polish_batch).
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    is_pairnorm = isinstance(objective, PairNormObjective)
    eta = cfg.eta

    grid = cache.grid if cache is not None else sphere_grid(space, cfg.grid_per_dim)
    n = len(grid.vectors)
    counter = [0]

    def pair_values(xs, ys):
        """Objective at the broadcast pairs, and the mask of excluded/NaN pairs."""
        if is_pairnorm or exclude_degenerate:
            # x + (-1 * y) is exactly x - y: one gauge call for both norms.
            signs = _PLUS_MINUS.reshape((2,) + (1,) * max(np.ndim(xs), np.ndim(ys)))
            plus, minus = np.asarray(space.gauge(xs + signs * ys))
        vals = np.asarray(objective(plus, minus) if is_pairnorm else objective(xs, ys),
                          dtype=float)
        bad = np.isnan(vals)
        if exclude_degenerate:
            bad |= (plus < eta) | (minus < eta)
        return vals, bad

    def inner_values(X):
        vals, bad = pair_values(X[:, None, :], grid.vectors)
        counter[0] += vals.size - int(bad.sum())
        return np.where(bad, -np.inf, vals)

    inner_cfg = replace(cfg, refine_iters=_INNER_BUDGET)
    outer_cfg = replace(cfg, refine_iters=min(cfg.refine_iters, _OUTER_BUDGET))
    dirs = [np.array([1.0])] if space.dim == 2 \
        else [np.eye(space.dim)[i] for i in range(space.dim)]
    sg = space.scalar_gauge if space.dim == 2 and is_pairnorm else None
    sfn = (objective.scalar_fn or objective.fn) if sg is not None else None

    def scalar_fy(x_vec):
        x0, x1 = float(x_vec[0]), float(x_vec[1])

        def fy(yp):
            c, s = math.cos(yp[0]), math.sin(yp[0])
            g = sg(c, s)
            y0, y1 = c / g, s / g
            a = sg(x0 + y0, x1 + y1)
            b = sg(x0 - y0, x1 - y1)
            if exclude_degenerate and (a < eta or b < eta):
                return -math.inf
            v = float(sfn(a, b))
            return -math.inf if math.isnan(v) else v

        return fy

    def inner_sup(X):
        """sup over y for each row x of X: values and polished y parameters."""
        vals = inner_values(X)
        j = vals.argmax(axis=1)
        y0 = grid.params[j].astype(float)
        v0 = vals[np.arange(len(X)), j]
        if sg is not None:
            yp, vy, _ = map(np.array, zip(*[
                _polish(scalar_fy(x), p, float(v), grid.step, 1.0, inner_cfg, dirs, counter)
                for x, p, v in zip(X, y0, v0)]))
        else:
            def fy(yp, rows):
                vals, bad = pair_values(X[rows], _params_to_vectors(space, yp))
                return np.where(bad, -np.inf, vals)

            yp, vy, _ = _polish_batch(fy, y0, v0, grid.step, 1.0, inner_cfg, dirs, counter)
        return vy, _wrap_params(space, yp)

    # Stage 1: exact grid inf-sup, from the shared table when there is one.
    if cache is not None and is_pairnorm:
        vals = np.asarray(objective(cache.plus, cache.minus), dtype=float)
        bad = np.isnan(vals)
        if exclude_degenerate:
            bad |= (cache.plus < eta) | (cache.minus < eta)
        counter[0] += vals.size - int(bad.sum())
        row_sup = np.where(bad, -np.inf, vals).max(axis=1)
        del vals, bad   # full-table temporaries; stage 2 needs the memory
    else:
        chunk = max(1, _CHUNK_PAIRS // n)
        row_sup = np.concatenate([inner_values(grid.vectors[i0:i0 + chunk]).max(axis=1)
                                  for i0 in range(0, n, chunk)])

    order = np.lexsort((np.arange(n), row_sup))
    start_rows = order[:min(cfg.multistart, n)]
    p0 = grid.params[start_rows].astype(float)

    # Stage 2: outer polish.  Widths halve, so in dim >= 3 a polish moves each
    # coordinate of its cube-surface start by under two grid steps in total,
    # 4/grid_per_dim <= 1/2: no direction it probes is degenerate.
    if sg is not None:
        def g(x_params):
            return float(inner_sup(_params_to_vector(space, x_params)[None, :])[0][0])

        P, _, flags = zip(*[_polish(g, p, float(v), grid.step, -1.0, outer_cfg, dirs, [0])
                            for p, v in zip(p0, row_sup[start_rows])])
    else:
        def g_batch(xp, rows=None):
            return inner_sup(_params_to_vectors(space, xp))[0]

        P, _, flags = _polish_batch(g_batch, p0, row_sup[start_rows], grid.step, -1.0,
                                    outer_cfg, dirs, [0])
    P = _wrap_params(space, np.array(P))
    finals = [g(p) for p in P] if sg is not None else g_batch(P)
    results = sorted(zip(finals, map(tuple, P), flags), key=lambda r: (r[0], r[1]))
    val, ptuple, converged = results[0]
    x = _params_to_vector(space, np.asarray(ptuple))
    _, y_params = inner_sup(x[None, :])
    y = _params_to_vector(space, y_params[0])
    a = float(space.gauge(x + y))
    b = float(space.gauge(x - y))
    return ConstantEstimate(
        value=float(val), x=x, y=y, mode="infsup", converged=bool(converged),
        evaluations=counter[0], config=cfg,
        near_exclusion=(a < 10.0 * cfg.eta or b < 10.0 * cfg.eta))

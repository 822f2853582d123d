"""Geometric constants of a normed space, each with an explicit witness.

Everything here reduces to extrema of functions of the pair norms ||x+y|| and
||x-y|| (or their t-scaled variants) over the unit sphere, computed by the
deterministic grid + polish engine in search.py.  Values are reported exactly
as found; nothing is clamped to theoretical ranges.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .spaces import Space
from .search import (
    CHUNK_PAIRS,
    ConstantEstimate,
    PairNormObjective,
    PairTable,
    SearchConfig,
    infsup_pair,
    maximize_pair,
    minimize_cells,
    minimize_pair,
    pair_table,
    refine_pairs,
    refine_starts,
    sphere_grid,
    sphere_point,
    sphere_points,
    top_cells,
)

SQRT2 = math.sqrt(2.0)

_T_GRID = 101           # t samples for scaled-pair sweeps over [0, 1]
_EQ_ROOT_TOL = 1e-8     # |  ||x-y|| - eps  | accepted as on-constraint
_GEQ_SLACK = 1e-12      # feasibility slack so exact-boundary grid pairs count


# --------------------------------------------------------------------------
# Pair-norm combines (shared with the oracle cross-checks)
# --------------------------------------------------------------------------

def pair_cosine(a, b):
    """Cosine of the P-angle between x+y and x-y from the two pair norms."""
    return (a * a + b * b - 4.0) / (2.0 * a * b)


def min_norm(a, b):
    return np.minimum(a, b)


def max_norm(a, b):
    return np.maximum(a, b)


def mean_square_quarter(a, b):
    return (a * a + b * b) / 4.0


def geom_mean(a, b):
    return np.sqrt(a * b)


def sqrt2_residual(a, b):
    return (a - SQRT2) ** 2 + (b - SQRT2) ** 2


# --------------------------------------------------------------------------
# P-angle cosine
# --------------------------------------------------------------------------

def cos_ang_p(space: Space, u, v) -> float:
    """cos of the P-angle between u and v: (||u||^2+||v||^2-||u-v||^2)/(2||u|| ||v||).

    Lies in [-1, 1] up to 1e-12 by the triangle inequality.  Undefined at the
    zero vector.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    gu = float(space.gauge(u))
    gv = float(space.gauge(v))
    if gu < 1e-12 or gv < 1e-12:
        raise ValueError("the angle cosine is undefined at the zero vector")
    guv = float(space.gauge(u - v))
    return (gu * gu + gv * gv - guv * guv) / (2.0 * gu * gv)


# --------------------------------------------------------------------------
# Sphere-pair constants
# --------------------------------------------------------------------------

def sp_constant(space: Space, cfg: SearchConfig | None = None, *,
                cache: PairTable | None = None) -> ConstantEstimate:
    """sup of the P-angle cosine between x+y and x-y over unit pairs x != +-y.

    For unit x, y the cosine collapses to (||x+y||^2+||x-y||^2-4)/(2 ||x+y|| ||x-y||);
    pairs within eta of x = +-y are excluded, and witnesses within 10*eta of
    the excluded set are flagged.
    """
    return maximize_pair(space, PairNormObjective(pair_cosine), cfg,
                         exclude_degenerate=True, cache=cache)


def james(space: Space, cfg: SearchConfig | None = None, *,
          cache: PairTable | None = None) -> ConstantEstimate:
    """James constant: sup of min(||x+y||, ||x-y||) over unit pairs."""
    return maximize_pair(space, PairNormObjective(min_norm), cfg, cache=cache)


def schaffer(space: Space, cfg: SearchConfig | None = None, *,
             cache: PairTable | None = None) -> ConstantEstimate:
    """Schaffer girth constant: inf of max(||x+y||, ||x-y||) over unit pairs."""
    return minimize_pair(space, PairNormObjective(max_norm), cfg, cache=cache)


def cnj_prime(space: Space, cfg: SearchConfig | None = None, *,
              cache: PairTable | None = None) -> ConstantEstimate:
    """Unit-sphere von Neumann-Jordan variant: sup of (||x+y||^2+||x-y||^2)/4."""
    return maximize_pair(space, PairNormObjective(mean_square_quarter), cfg, cache=cache)


def sqrt2_pair_residual(space: Space, cfg: SearchConfig | None = None, *,
                        cache: PairTable | None = None) -> ConstantEstimate:
    """inf of (||x+y||-sqrt2)^2 + (||x-y||-sqrt2)^2; zero iff some unit pair
    has both pair norms equal to sqrt2."""
    return minimize_pair(space, PairNormObjective(sqrt2_residual), cfg, cache=cache)


def t_and_T(space: Space, cfg: SearchConfig | None = None, *,
            cache: PairTable | None = None) -> tuple[ConstantEstimate, ConstantEstimate]:
    """Geometric-mean pair constants:

    t = inf over x of sup over y of sqrt(||x+y|| ||x-y||)
    T = sup over both of the same quantity
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    obj = PairNormObjective(geom_mean)
    lo = infsup_pair(space, obj, cfg, cache=cache)
    hi = maximize_pair(space, obj, cfg, cache=cache)
    return lo, hi


# --------------------------------------------------------------------------
# t-parameterized moduli
# --------------------------------------------------------------------------

def _exact_estimate(space: Space, value: float, cfg: SearchConfig,
                    mode: str, t: float | None = None) -> ConstantEstimate:
    e1 = sphere_point(space, np.eye(space.dim)[0])
    return ConstantEstimate(value=value, x=e1, y=e1.copy(), mode=mode,
                            converged=True, evaluations=0, config=cfg, t=t)


def gamma(space: Space, t: float, cfg: SearchConfig | None = None) -> ConstantEstimate:
    """Smoothness-type modulus: sup of (||x+ty||^2 + ||x-ty||^2)/2 over unit pairs.

    Equals 1 exactly at t = 0, and 1 + t^2 on any inner-product space.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"gamma is defined for t in [0, 1], got {t}")
    cfg = cfg or SearchConfig.for_dim(space.dim)
    if t == 0.0:
        return _exact_estimate(space, 1.0, cfg, "sup")
    return maximize_pair(
        space, PairNormObjective(lambda a, b: (a * a + b * b) / 2.0, t=t), cfg)


def rho(space: Space, t: float, cfg: SearchConfig | None = None) -> ConstantEstimate:
    """Modulus of smoothness: sup of (||x+ty|| + ||x-ty||)/2 - 1 over unit pairs."""
    if t < 0.0:
        raise ValueError(f"rho is defined for t >= 0, got {t}")
    cfg = cfg or SearchConfig.for_dim(space.dim)
    if t == 0.0:
        return _exact_estimate(space, 0.0, cfg, "sup")
    return maximize_pair(
        space, PairNormObjective(lambda a, b: (a + b) / 2.0 - 1.0, t=t), cfg)


def gamma_profile(space: Space, ts, cfg: SearchConfig | None = None) -> list[ConstantEstimate]:
    """gamma at each t of a grid, each estimate carrying its t.

    Runs gamma on a reduced pair grid with four starts and a 40-line-search
    polish.  Used by the verification checks, where a full default-grid scan
    per t would dominate the runtime; agreement with gamma() is covered by
    tests.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    reduced = replace(cfg, grid_per_dim=min(cfg.grid_per_dim, 180 if space.dim == 2 else 8),
                      multistart=4, refine_iters=min(cfg.refine_iters, 40))
    out = []
    for t in map(float, ts):
        est = gamma(space, t, reduced)
        out.append(est if t == 0.0 else replace(est, t=t))
    return out


# --------------------------------------------------------------------------
# Scaled-pair constants (joint sup over pairs and t)
# --------------------------------------------------------------------------

def _scaled_extremum(space: Space, fns, cfg: SearchConfig) -> list[ConstantEstimate]:
    """sup over unit pairs (u, v) and t in [0, 1] of fn(||u+tv||, ||u-tv||, t),
    for each combine fn of fns.

    Stage 1 sweeps a t-grid of 101 points over a reduced pair grid in
    vectorized blocks, computing the pair norms of each block once for all
    combines; stage 2 refines (u, v, t) jointly, per combine.  The reduction
    to ||u|| = 1 >= t = ||v||-scale is exact for the quotients used here,
    which are scale-invariant and symmetric in the pair.
    """
    if space.dim == 2:
        grid = sphere_grid(space, max(48, cfg.grid_per_dim // 8))
    else:
        grid = sphere_grid(space, min(cfg.grid_per_dim, 8))
    V = grid.vectors
    m = len(V)
    ts = np.linspace(0.0, 1.0, _T_GRID)

    cells, values = [[] for _ in fns], [[] for _ in fns]
    block = max(1, 400_000 // (m * m))
    for t0 in range(0, _T_GRID, block):
        tb = ts[t0:t0 + block]
        xs = V[None, :, None, :]
        ys = tb[:, None, None, None] * V[None, None, :, :]
        a = np.asarray(space.gauge(xs + ys), dtype=float)
        b = np.asarray(space.gauge(xs - ys), dtype=float)
        for fn, fn_cells, fn_values in zip(fns, cells, values):
            vals = np.asarray(fn(a, b, tb[:, None, None]), dtype=float)
            for bi in range(len(tb)):
                idx = top_cells(vals[bi], 1.0, 4)
                # Index (i, j, ti) in row-major order, so that ties go to the
                # smallest parameter tuple (x-params, y-params, t).
                fn_cells.append(idx * _T_GRID + t0 + bi)
                fn_values.append(vals[bi].ravel()[idx])
    out = []
    for fn, fn_cells, fn_values in zip(fns, cells, values):
        fn_cells, fn_values = np.concatenate(fn_cells), np.concatenate(fn_values)
        best = top_cells(fn_values, 1.0, cfg.multistart, fn_cells)
        ij, ti = np.divmod(fn_cells[best], _T_GRID)
        i, j = np.divmod(ij, m)
        out.append(refine_pairs(
            space, PairNormObjective(fn, t=None),
            np.hstack([grid.params[i], grid.params[j], ts[ti, None]]), fn_values[best],
            grid.step, cfg, "sup", evaluations=m * m * _T_GRID, t_step=ts[1] - ts[0]))
    return out


def _cnj_combine(a, b, t):
    return (a * a + b * b) / (2.0 * (1.0 + t * t))


def _zbaganu_combine(a, b, t):
    return a * b / (1.0 + t * t)


def cnj(space: Space, cfg: SearchConfig | None = None) -> ConstantEstimate:
    """von Neumann-Jordan constant via the homogeneity reduction:

    sup over t in [0, 1] of (sup pair quotient at scale t) / (1 + t^2), i.e.
    sup of (||u+tv||^2 + ||u-tv||^2) / (2 (1 + t^2)) over unit u, v and t.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    return _scaled_extremum(space, [_cnj_combine], cfg)[0]


def zbaganu(space: Space, cfg: SearchConfig | None = None) -> ConstantEstimate:
    """Zbaganu constant: sup of ||u+tv|| ||u-tv|| / (1 + t^2) over unit u, v
    and t in [0, 1]."""
    cfg = cfg or SearchConfig.for_dim(space.dim)
    return _scaled_extremum(space, [_zbaganu_combine], cfg)[0]


def cnj_and_zbaganu(space: Space, cfg: SearchConfig | None = None
                    ) -> tuple[ConstantEstimate, ConstantEstimate]:
    """cnj and zbaganu from one t-sweep, bit for bit the separate calls."""
    cfg = cfg or SearchConfig.for_dim(space.dim)
    cnj_est, zbaganu_est = _scaled_extremum(space, [_cnj_combine, _zbaganu_combine], cfg)
    return cnj_est, zbaganu_est


# --------------------------------------------------------------------------
# Modulus of convexity
# --------------------------------------------------------------------------

def delta(space: Space, eps: float, cfg: SearchConfig | None = None,
          mode: str = "geq", *, cache: PairTable | None = None) -> ConstantEstimate:
    """Modulus of convexity at eps in [0, 2].

    mode "geq" (default): inf of 1 - ||x+y||/2 over unit pairs with
    ||x-y|| >= eps (with a 1e-12 feasibility slack so exact-boundary grid
    pairs are admitted).  In 2D the constrained grid + polish answer is
    compared with the boundary solve restricted to the same feasible set,
    and the lower one is kept.  mode "eq": the same inf restricted to
    | ||x-y|| - eps | <= 1e-8, located by root-finding in the second sphere
    parameter.  Both return 0 exactly at eps = 0.
    """
    if not 0.0 <= eps <= 2.0:
        raise ValueError(f"eps must lie in [0, 2], got {eps}")
    if mode not in ("geq", "eq"):
        raise ValueError(f"mode must be 'geq' or 'eq', got {mode!r}")
    cfg = cfg or SearchConfig.for_dim(space.dim)
    if eps <= 1e-12:
        return _exact_estimate(space, 0.0, cfg, "inf")
    if mode == "geq":
        est = _delta_geq(space, eps, cfg, cache)
        if space.dim == 2:
            # Coordinate polish zigzags against the feasibility wall when the
            # constraint binds; the boundary solve slides along it instead.
            # Its witness sits within the documented 1e-12 feasibility slack,
            # so the lower of the two answers the same infimum.
            try:
                boundary = _delta_eq_2d(space, eps, cfg, cache, geq=True)
            except ValueError:
                boundary = None
            if boundary is not None and boundary.value < est.value:
                est = replace(boundary, evaluations=boundary.evaluations
                              + est.evaluations)
        return est
    if space.dim == 2:
        return _delta_eq_2d(space, eps, cfg, cache)
    return _delta_eq_highdim(space, eps, cfg)


def _geq_objective(eps: float) -> PairNormObjective:
    """1 - ||x+y||/2 where ||x-y|| >= eps - _GEQ_SLACK, +inf elsewhere."""
    return PairNormObjective(
        lambda a, b: np.where(b >= eps - _GEQ_SLACK, 1.0 - a / 2.0, np.inf))


def _feasible(est: ConstantEstimate, eps: float) -> ConstantEstimate:
    if not math.isfinite(est.value):
        raise ValueError(f"no unit pair satisfies ||x-y|| >= {eps}")
    return est


def _delta_geq(space: Space, eps: float, cfg: SearchConfig,
               cache: PairTable | None) -> ConstantEstimate:
    """Raw constrained inf: the grid + polish alone."""
    return _feasible(minimize_pair(space, _geq_objective(eps), cfg, cache=cache), eps)


def _delta_eq_2d(space: Space, eps: float, cfg: SearchConfig,
                 cache: PairTable | None, geq: bool = False) -> ConstantEstimate:
    """Boundary solve: inf of 1 - ||x+y||/2 over unit pairs on ||x-y|| = eps.

    row_values takes many first-point angles: per angle it keeps the grid
    cells within _EQ_ROOT_TOL of the constraint and bisects every sign change
    between neighbouring cells, all brackets of all rows at once.  It serves
    the grid stage (all angles, in chunks), the lockstep polish of the best
    rows and the witness.  With geq only pairs with ||x-y|| >= eps -
    _GEQ_SLACK count: cells inside that slack and the feasible end of each
    final bracket, so the witness is feasible.
    """
    grid = cache.grid if cache is not None else sphere_grid(space, cfg.grid_per_dim)
    n = len(grid.vectors)
    thetas = grid.params[:, 0]
    on_low = -_GEQ_SLACK if geq else -_EQ_ROOT_TOL

    def unit(angles):
        return sphere_points(space, angles[:, None])

    def row_values(angles):
        """Per angle: min of 1 - ||x+y||/2 over its roots and the y attaining
        it (first among ties, cells before brackets); and the roots tried."""
        X = unit(angles)
        b = np.asarray(space.gauge(X[:, None, :] - grid.vectors)) - eps
        oi, oj = np.nonzero((b >= on_low) & (b <= _EQ_ROOT_TOL))
        ci, cj = np.nonzero(b * np.roll(b, -1, axis=1) < 0.0)
        lo, flo = thetas[cj], b[ci, cj]
        hi = lo + grid.step
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            fmid = np.asarray(space.gauge(X[ci] - unit(mid))) - eps
            same = (fmid < 0.0) == (flo < 0.0)
            lo, flo = np.where(same, mid, lo), np.where(same, fmid, flo)
            hi = np.where(same, hi, mid)
        ends = np.where(flo >= 0.0, lo, hi) if geq else 0.5 * (lo + hi)
        rows = np.concatenate([oi, ci])
        Y = np.concatenate([grid.vectors[oj], unit(ends)])
        vals = 1.0 - np.asarray(space.gauge(X[rows] + Y)) / 2.0
        order = np.lexsort((np.arange(rows.size), vals, rows))
        first = order[np.unique(rows[order], return_index=True)[1]]
        best = np.full(len(angles), np.inf)
        best[rows[first]] = vals[first]
        witness = np.full((len(angles), 2), np.nan)
        witness[rows[first]] = Y[first]
        return best, witness, rows.size

    chunk = max(1, CHUNK_PAIRS // n)
    stage = [row_values(thetas[i0:i0 + chunk]) for i0 in range(0, n, chunk)]
    row_vals = np.concatenate([s[0] for s in stage])
    evaluations = sum(s[2] for s in stage)
    feasible = int(np.isfinite(row_vals).sum())
    if feasible == 0:
        raise ValueError(f"no unit pair satisfies ||x-y|| = {eps} on the grid")

    starts = top_cells(row_vals, -1.0, min(cfg.multistart, feasible))
    P, vals, conv, k, count = refine_starts(
        lambda params, rows: row_values(params[:, 0])[0], thetas[starts, None],
        row_vals[starts], grid.step, [np.array([1.0])], -1.0,
        replace(cfg, refine_iters=min(cfg.refine_iters, 12)), angles=1)
    witness = row_values(P[:, 0])[1]   # the engine's last call, repeated for the witness
    return ConstantEstimate(
        value=float(vals[k]), x=unit(P[k:k + 1, 0])[0], y=witness[k], mode="inf",
        converged=bool(conv[k]), evaluations=evaluations + count, config=cfg)


def _delta_eq_highdim(space: Space, eps: float, cfg: SearchConfig) -> ConstantEstimate:
    # Root-finding along the path y(s) = unit((1-s) x + s y0) from each grid
    # pair with ||x - y0|| >= eps; reduced grid keeps the pair count workable.
    grid = sphere_grid(space, min(cfg.grid_per_dim, 8))
    V = grid.vectors
    m = len(V)
    best = (math.inf, None, None)
    for i in range(m):
        x = V[i]
        b = np.asarray(space.gauge(x[None, :] - V))
        on = np.abs(b - eps) <= _EQ_ROOT_TOL
        for j in np.flatnonzero(on):
            v = 1.0 - float(space.gauge(x + V[j])) / 2.0
            if v < best[0]:
                best = (v, x, V[j])
        feas = np.flatnonzero((b > eps + _EQ_ROOT_TOL))
        if feas.size == 0:
            continue
        lo = np.zeros(feas.size)
        hi = np.ones(feas.size)
        targets = V[feas]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            Y = (1.0 - mid)[:, None] * x + mid[:, None] * targets
            norms = np.asarray(space.gauge(Y))
            ok = norms >= 1e-12
            dist = np.where(ok, np.asarray(space.gauge(x[None, :] - Y / np.where(ok, norms, 1.0)[:, None])), 0.0)
            go_hi = dist >= eps
            hi = np.where(go_hi, mid, hi)
            lo = np.where(go_hi, lo, mid)
        mid = 0.5 * (lo + hi)
        Y = (1.0 - mid)[:, None] * x + mid[:, None] * targets
        norms = np.asarray(space.gauge(Y))
        Y = Y / norms[:, None]
        vals = 1.0 - np.asarray(space.gauge(x[None, :] + Y)) / 2.0
        jbest = int(vals.argmin())
        if vals[jbest] < best[0]:
            best = (float(vals[jbest]), x, Y[jbest])
    if best[1] is None:
        raise ValueError(f"no unit pair satisfies ||x-y|| = {eps} on the grid")
    return ConstantEstimate(
        value=best[0], x=best[1], y=best[2], mode="inf", converged=False,
        evaluations=m * m, config=cfg)


def _band(table: PairTable, lo: float, hi: float) -> np.ndarray:
    """Flat indices, as int32, of the table's pairs with lo <= ||x-y|| < hi,
    collected one block of rows at a time."""
    n = len(table.minus)
    rows = max(1, CHUNK_PAIRS // n)
    out = []
    for i0 in range(0, n, rows):
        block = table.minus[i0:i0 + rows]
        out.append((i0 * n + np.flatnonzero((block >= lo) & (block < hi))).astype(np.int32))
    return np.concatenate(out)


def eps0(space: Space, cfg: SearchConfig | None = None, *,
         cache: PairTable | None = None) -> ConstantEstimate:
    """Largest eps with delta(eps) = 0: sup of the zero set of the modulus of
    convexity, by bisection against the threshold delta(eps) <= 1e-7.

    Each probe is the raw geq grid + polish: the boundary refinement could
    only shift the flat/non-flat call on values within its ~1e-5 correction
    of the threshold, and the bisection reports at 1e-4 resolution anyway.
    With a stored table, once a probe comes out non-flat, each later probe
    inside the bracket [lo, hi] scans only the pairs that can be among its
    starts: the feasible starts of the last non-flat probe, which are the
    best pairs with ||x-y|| >= hi - slack, and the band of pairs with
    lo - slack <= ||x-y|| < hi - slack.  So it picks the same starts as a
    full scan would.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    if space.dim > 2 and cache is None:
        cfg = replace(cfg, grid_per_dim=min(cfg.grid_per_dim, 12))
    if cache is None:
        cache = pair_table(space, cfg)
    threshold = 1e-7
    minus = None if cache is None else cache.minus.ravel()

    def probe(e: float, cells=None) -> tuple[ConstantEstimate, np.ndarray]:
        """The raw geq estimate at e, and those of its starts feasible at e."""
        est, starts = minimize_cells(space, _geq_objective(e), cfg, cache, cells)
        if minus is not None:
            starts = starts[minus[starts] >= e - _GEQ_SLACK].astype(np.int32)
        return _feasible(est, e), starts

    est_two, carried = probe(2.0)
    if est_two.value <= threshold:
        return ConstantEstimate(value=2.0, x=est_two.x, y=est_two.y, mode="sup",
                                converged=True, evaluations=est_two.evaluations,
                                config=cfg)
    lo, hi = 0.0, 2.0
    evaluations = est_two.evaluations
    witness = band = None
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        est, starts = probe(mid, None if band is None else np.concatenate([carried, band]))
        evaluations += est.evaluations
        if est.value <= threshold:
            lo = mid
            witness = est
            if band is not None:
                band = band[minus[band] >= mid - _GEQ_SLACK]
        else:
            hi, carried = mid, starts
            if band is not None:
                band = band[minus[band] < mid - _GEQ_SLACK]
            elif cache is not None:
                band = _band(cache, lo - _GEQ_SLACK, mid - _GEQ_SLACK)
    if witness is None:
        witness = delta(space, lo, cfg, cache=cache) if lo > 0.0 else None
    return ConstantEstimate(
        value=lo,
        x=None if witness is None else witness.x,
        y=None if witness is None else witness.y,
        mode="sup", converged=True, evaluations=evaluations, config=cfg)


# --------------------------------------------------------------------------
# Everything at once
# --------------------------------------------------------------------------

def guarded(key: str, fn):
    """fn(), with any failure re-raised as a RuntimeError naming key."""
    try:
        return fn()
    except Exception as exc:
        raise RuntimeError(f"computation of {key!r} failed: {exc}") from exc


def pair_constants(space: Space, cfg: SearchConfig,
                   cache: PairTable | None) -> dict[str, ConstantEstimate]:
    """sp, james, cnj, cnj_prime, zbaganu and schaffer, in this key order:
    the constants that compute_all and verify.run_checks both report.  C_NJ
    and C_Z come from one t-sweep; a failure of it names 'cnj'."""
    out = {"sp": guarded("sp", lambda: sp_constant(space, cfg, cache=cache)),
           "james": guarded("james", lambda: james(space, cfg, cache=cache))}
    out["cnj"], zbaganu_est = guarded("cnj", lambda: cnj_and_zbaganu(space, cfg))
    out["cnj_prime"] = guarded("cnj_prime", lambda: cnj_prime(space, cfg, cache=cache))
    out["zbaganu"] = zbaganu_est
    out["schaffer"] = guarded("schaffer", lambda: schaffer(space, cfg, cache=cache))
    return out


def compute_all(space: Space, cfg: SearchConfig | None = None, *,
                gamma_ts=(), delta_eps=(), rho_ts=(),
                include_infsup: bool = True,
                include_eps0: bool = True) -> dict[str, ConstantEstimate]:
    """All constants of one space, sharing a single pair-norm table.

    A failure in any single computation is re-raised as a RuntimeError naming
    the constant, so callers can report which one broke.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    cache = pair_table(space, cfg)
    out = pair_constants(space, cfg, cache)

    def compute(key, fn):
        out[key] = guarded(key, fn)

    if include_infsup:
        def both():
            lo, hi = t_and_T(space, cfg, cache=cache)
            out["t"] = lo
            return hi
        compute("T", both)   # inserts "t" first, then "T"
    if include_eps0:
        compute("eps0", lambda: eps0(space, cfg, cache=cache))
    for t in gamma_ts:
        compute(f"gamma({float(t):.12g})", lambda t=float(t): gamma(space, t, cfg))
    for e in delta_eps:
        compute(f"delta({float(e):.12g})", lambda e=float(e): delta(space, e, cfg, cache=cache))
    for t in rho_ts:
        compute(f"rho({float(t):.12g})", lambda t=float(t): rho(space, t, cfg))
    return out

"""Geometric constants of a normed space, each with an explicit witness.

Everything here reduces to extrema of functions of the pair norms ||x+y|| and
||x-y|| (or their t-scaled variants) over the unit sphere, computed by the
deterministic grid + zoom engine in search.py.  Values are reported exactly
as found; nothing is clamped to theoretical ranges.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .oracle import OracleResult, oracle_pair_norm_extrema
from .parallel import run_split
from .spaces import Space
from .search import (
    ConstantEstimate,
    NoStartError,
    PairNormObjective,
    PairTable,
    SearchConfig,
    extremize,
    infsup_pair,
    lattice_edges,
    maximize_pair,
    minimize_pair,
    mirror_members,
    pair_norms,
    pair_table,
    pick_starts,
    refine_pairs,
    row_blocks,
    row_infimum,
    sphere_grid,
    sphere_points,
    top_cells,
)

SQRT2 = math.sqrt(2.0)

_T_GRID = 101           # t samples for scaled-pair sweeps over [0, 1]
_EQ_ROOT_TOL = 1e-8     # ||x-y|| - eps accepted as on-constraint
_GEQ_SLACK = 1e-12      # feasibility slack so exact-boundary grid pairs count
_FLAT = 1e-7            # eps0's threshold: delta(eps) <= _FLAT counts as zero


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

# The t = 1 pair constants of pair_constants' shared zoom: key -> (combine,
# mode, whether pairs with ||x+y|| < eta or ||x-y|| < eta are excluded).
_PAIR_SCANS = {
    "sp": (pair_cosine, "sup", True),
    "james": (min_norm, "sup", False),
    "cnj_prime": (mean_square_quarter, "sup", False),
    "schaffer": (max_norm, "inf", False),
}

# The reductions `constants --oracle` cross-checks on the dense-grid oracle:
# key -> (combine, mode), the _PAIR_SCANS constants, then T and t.
ORACLE_COMBINES = {**{key: (fn, mode) for key, (fn, mode, _) in _PAIR_SCANS.items()},
                   "T": (geom_mean, "sup"), "t": (geom_mean, "infsup")}


def _pair_constant(space: Space, key: str, cfg: SearchConfig | None,
                   cache: PairTable | None) -> ConstantEstimate:
    """The _PAIR_SCANS constant key alone."""
    fn, mode, exclude = _PAIR_SCANS[key]
    extremum = maximize_pair if mode == "sup" else minimize_pair
    return extremum(space, PairNormObjective(fn), cfg, exclude, cache=cache)


def sp_constant(space: Space, cfg: SearchConfig | None = None, *,
                cache: PairTable | None = None) -> ConstantEstimate:
    """sup of the P-angle cosine between x+y and x-y over unit pairs x != +-y.

    For unit x, y the cosine collapses to (||x+y||^2+||x-y||^2-4)/(2 ||x+y|| ||x-y||);
    pairs with ||x+y|| < eta or ||x-y|| < eta are excluded.
    """
    return _pair_constant(space, "sp", cfg, cache)


def james(space: Space, cfg: SearchConfig | None = None, *,
          cache: PairTable | None = None) -> ConstantEstimate:
    """James constant: sup of min(||x+y||, ||x-y||) over unit pairs."""
    return _pair_constant(space, "james", cfg, cache)


def schaffer(space: Space, cfg: SearchConfig | None = None, *,
             cache: PairTable | None = None) -> ConstantEstimate:
    """Schaffer girth constant: inf of max(||x+y||, ||x-y||) over unit pairs."""
    return _pair_constant(space, "schaffer", cfg, cache)


def cnj_prime(space: Space, cfg: SearchConfig | None = None, *,
              cache: PairTable | None = None) -> ConstantEstimate:
    """Unit-sphere von Neumann-Jordan variant: sup of (||x+y||^2+||x-y||^2)/4."""
    return _pair_constant(space, "cnj_prime", cfg, cache)


# sqrt2_pair_residual and T_constant stay their own minimize_pair and
# maximize_pair calls, outside pair_constants' shared zoom: the traced run
# of the benchmark (perfbench/tracing.py) times the grid scan and the zoom
# through those two functions, and they are the only calls of them left in
# verify.run_checks and compute_all.

def sqrt2_pair_residual(space: Space, cfg: SearchConfig | None = None, *,
                        cache: PairTable | None = None) -> ConstantEstimate:
    """inf of (||x+y||-sqrt2)^2 + (||x-y||-sqrt2)^2; zero iff some unit pair
    has both pair norms equal to sqrt2."""
    return minimize_pair(space, PairNormObjective(sqrt2_residual), cfg, cache=cache)


def t_constant(space: Space, cfg: SearchConfig | None = None, *,
               cache: PairTable | None = None) -> ConstantEstimate:
    """t = inf over x of sup over y of sqrt(||x+y|| ||x-y||), unit x, y."""
    return infsup_pair(space, PairNormObjective(geom_mean), cfg, cache=cache)


def T_constant(space: Space, cfg: SearchConfig | None = None, *,
               cache: PairTable | None = None) -> ConstantEstimate:
    """T = sup over unit pairs of sqrt(||x+y|| ||x-y||)."""
    return maximize_pair(space, PairNormObjective(geom_mean), cfg, cache=cache)


def t_and_T(space: Space, cfg: SearchConfig | None = None, *,
            cache: PairTable | None = None) -> tuple[ConstantEstimate, ConstantEstimate]:
    """The geometric-mean pair constants t_constant and T_constant."""
    return t_constant(space, cfg, cache=cache), T_constant(space, cfg, cache=cache)


# --------------------------------------------------------------------------
# t-parameterized moduli
# --------------------------------------------------------------------------

def check_modulus(name: str, value: float) -> None:
    """Raise ValueError when value, NaN included, lies outside the domain of
    the modulus name: "gamma", "delta" or "rho"."""
    if name == "gamma" and not 0.0 <= value <= 1.0:
        raise ValueError(f"gamma is defined for t in [0, 1], got {value}")
    if name == "delta" and not 0.0 <= value <= 2.0:
        raise ValueError(f"eps must lie in [0, 2], got {value}")
    if name == "rho" and not 0.0 <= value < math.inf:
        raise ValueError(f"rho is defined for finite t >= 0, got {value}")


def _exact_estimate(space: Space, value: float) -> ConstantEstimate:
    e1 = sphere_points(space, np.eye(space.dim))[0]
    return ConstantEstimate(value=value, x=e1, y=e1.copy(), converged=True, evaluations=0)


def _gamma_combine(a, b):
    return (a * a + b * b) / 2.0


def _gamma_objective(t: float) -> PairNormObjective:
    check_modulus("gamma", t)
    return PairNormObjective(_gamma_combine, t=t)


def gamma(space: Space, t: float, cfg: SearchConfig | None = None) -> ConstantEstimate:
    """Smoothness-type modulus: sup of (||x+ty||^2 + ||x-ty||^2)/2 over unit pairs.

    Equals 1 exactly at t = 0, and 1 + t^2 on any inner-product space.
    """
    objective = _gamma_objective(t)
    if t == 0.0:
        return _exact_estimate(space, 1.0)
    return maximize_pair(space, objective, cfg)


def rho(space: Space, t: float, cfg: SearchConfig | None = None) -> ConstantEstimate:
    """Modulus of smoothness: sup of (||x+ty|| + ||x-ty||)/2 - 1 over unit pairs."""
    check_modulus("rho", t)
    if t == 0.0:
        return _exact_estimate(space, 0.0)
    return maximize_pair(
        space, PairNormObjective(lambda a, b: (a + b) / 2.0 - 1.0, t=t), cfg)


def gamma_profile(space: Space, ts, cfg: SearchConfig | None = None) -> list[ConstantEstimate]:
    """gamma at each t of a grid, each estimate carrying its t.

    Each estimate is gamma(space, t, reduced), count included, where
    reduced is cfg on a pair grid of at most 180 points (8 per axis in
    dim >= 3) with four starts: the verification checks use it, where a
    full default-grid scan per t would dominate the runtime.  The zooms of
    all t run in one lockstep call (search.extremize), which gives each t
    the bits of its own call wherever the gauge rounds a point alike in any
    batch.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    reduced = replace(cfg, grid_per_dim=min(cfg.grid_per_dim, 180 if space.dim == 2 else 8),
                      multistart=4)
    objectives = [_gamma_objective(float(t)) for t in ts]
    zoomed = [o for o in objectives if o.t != 0.0]
    found = iter(extremize(space, zoomed, reduced, "sup")[0] if zoomed else [])
    return [_exact_estimate(space, 1.0) if o.t == 0.0 else replace(next(found), t=o.t)
            for o in objectives]


# --------------------------------------------------------------------------
# Scaled-pair constants (joint sup over pairs and t)
# --------------------------------------------------------------------------

def _scaled_extremum(space: Space, fns, cfg: SearchConfig) -> list[ConstantEstimate]:
    """sup over unit pairs (u, v) and t in [0, 1] of fn(||u+tv||, ||u-tv||, t),
    for each combine fn of fns.

    Stage 1 sweeps a t-grid of 101 points over a reduced pair grid in
    vectorized blocks, computing the pair norms of each block once for all
    combines.  The cells (u, v, t) and (-u, -v, t) form a mirror class and
    carry the same value bit for bit, so the combines run on u in H alone:
    each t's 4 best classes, expanded to their members (search.mirror_members),
    hold its 4 best cells of the whole grid, and every t of a block is
    picked at once (search.top_cells by rows).  Stage 2 refines (u, v, t)
    jointly, from one start of each class among each combine's best cells
    (search.pick_starts), all combines in one lockstep refine_pairs call.
    The reduction to ||u|| = 1 >= t = ||v||-scale is exact for the quotients
    used here, which are scale-invariant and symmetric in the pair.
    """
    if space.dim == 2:
        grid = sphere_grid(space, max(48, cfg.grid_per_dim // 8))
    else:
        grid = sphere_grid(space, min(cfg.grid_per_dim, 8))
    V = grid.vectors
    m = len(V)
    ts = np.linspace(0.0, 1.0, _T_GRID)

    objectives = [PairNormObjective(fn, t=None) for fn in fns]
    cells, values = [[] for _ in fns], [[] for _ in fns]
    block = max(1, 400_000 // (m * m))
    for t0 in range(0, _T_GRID, block):
        tb = ts[t0:t0 + block]
        a, b = pair_norms(space, V[:m // 2], tb[:, None, None] * V)
        rows = t0 + np.arange(len(tb))[:, None]
        for objective, fn_cells, fn_values in zip(objectives, cells, values):
            # Per t, cells (i, j, ti) in row-major order, so that ties go to
            # the smallest parameter tuple (x-params, y-params, t); a row of
            # H keeps its flat index i m + j.  NaN cells rank last, as the
            # zoom scores them.
            vals = np.asarray(objective(a, b, tb[:, None, None]), dtype=float)
            vals = np.where(np.isnan(vals), -np.inf, vals).reshape(len(tb), -1)
            idx = top_cells(vals, 1.0, 4, axis=-1)
            members = mirror_members(idx * _T_GRID + rows, m, False, _T_GRID).reshape(len(tb), -1)
            member_values = np.repeat(np.take_along_axis(vals, idx, axis=1), 2, axis=1)
            best = top_cells(member_values, 1.0, 4, members, axis=-1)
            fn_cells.append(np.take_along_axis(members, best, axis=1).ravel())
            fn_values.append(np.take_along_axis(member_values, best, axis=1).ravel())
    params, start_values = zip(*(
        pick_starts(grid, np.concatenate(c), np.concatenate(v), 1.0, cfg.multistart, False, ts)[1:]
        for c, v in zip(cells, values)))
    return refine_pairs(space, objectives, params, start_values, grid.step, cfg, "sup",
                        evaluations=[m * m * _T_GRID] * len(fns), t_step=ts[1] - ts[0])


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


# --------------------------------------------------------------------------
# Modulus of convexity
# --------------------------------------------------------------------------

def delta(space: Space, eps: float, cfg: SearchConfig | None = None, *,
          cache: PairTable | None = None) -> ConstantEstimate:
    """Modulus of convexity at eps in [0, 2]: inf of 1 - ||x+y||/2 over unit
    pairs with ||x-y|| >= eps, with a 1e-12 feasibility slack so that
    exact-boundary grid pairs are admitted.  The lower of the constrained
    grid + zoom answer and the boundary solve restricted to the same
    feasible set; 0 exactly at eps = 0.  In dim >= 2 the inf over
    ||x-y|| = eps is the same number.
    """
    check_modulus("delta", eps)
    if eps <= 1e-12:
        return _exact_estimate(space, 0.0)
    cfg = cfg or SearchConfig.for_dim(space.dim)
    # The raw constrained inf: the grid + zoom alone.
    est = _feasible(minimize_pair(space, _geq_objective(eps), cfg, cache=cache), eps)
    # The pair zoom zigzags against the feasibility wall when the
    # constraint binds; the boundary solve slides along it instead.  Its
    # witness sits within the documented 1e-12 feasibility slack, so the
    # lower of the two answers the same infimum.
    boundary = _delta_boundary(space, eps, cfg, cache)
    if boundary.value < est.value:
        est = replace(boundary, evaluations=boundary.evaluations + est.evaluations)
    return est


def _geq_objective(eps: float) -> PairNormObjective:
    """1 - ||x+y||/2 where ||x-y|| >= eps - _GEQ_SLACK, +inf elsewhere."""
    return PairNormObjective(
        lambda a, b: np.where(b >= eps - _GEQ_SLACK, 1.0 - a / 2.0, np.inf))


def _feasible(est: ConstantEstimate, eps: float) -> ConstantEstimate:
    if not math.isfinite(est.value):
        raise ValueError(f"no unit pair satisfies ||x-y|| >= {eps}")
    return est


def _delta_boundary(space: Space, eps: float, cfg: SearchConfig,
                    cache: PairTable | None) -> ConstantEstimate:
    """Boundary solve: inf of 1 - ||x+y||/2 over unit pairs on ||x-y|| = eps.

    row_values takes many first points x: per row it keeps the lattice
    points y with -_GEQ_SLACK <= ||x-y|| - eps <= _EQ_ROOT_TOL and bisects
    every sign change along an edge of the lattice (search.lattice_edges),
    all brackets of all rows at once, keeping the feasible end of each final
    bracket: every pair has ||x-y|| >= eps - _GEQ_SLACK, as delta's
    constraint asks.  The lattice is the grid in 2D, and the grid of 8 per
    axis in dim >= 3, where its edges join the +-e_i neighbours on the cube
    surface.  row_values serves the grid stage (every lattice point as x),
    then the shared first-point zoom (search.row_infimum), whose roots are
    not counted.
    """
    if space.dim == 2:
        grid = cache.grid if cache is not None else sphere_grid(space, cfg.grid_per_dim)
    else:
        grid = sphere_grid(space, min(cfg.grid_per_dim, 8))
    n, k = grid.params.shape
    tails, heads, axes = lattice_edges(grid)
    steps = grid.step * np.eye(k)[axes]

    def row_values(X):
        """Per row x of X: min of 1 - ||x+y||/2 over its roots and the y
        attaining it (first among ties, lattice points before brackets); and
        the roots tried."""
        b = np.asarray(space.gauge(X[:, None, :] - grid.vectors)) - eps
        oi, oj = np.nonzero((b >= -_GEQ_SLACK) & (b <= _EQ_ROOT_TOL))
        ci, ce = np.nonzero(b[:, tails] * b[:, heads] < 0.0)
        # Bisection keeps lo on the side of the tail's sign: lo moves to a
        # midpoint whose ||x-y|| < eps matches the tail's b < 0.
        Xc, inside = X[ci], b[ci, tails[ce]] < 0.0
        lo = grid.params[tails[ce]]
        hi = lo + steps[ce]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            same = (np.asarray(space.gauge(Xc - sphere_points(space, mid))) < eps) == inside
            np.copyto(lo, mid, where=same[:, None])
            np.copyto(hi, mid, where=~same[:, None])
        ends = np.where(inside[:, None], hi, lo)
        rows = np.concatenate([oi, ci])
        Y = np.concatenate([grid.vectors[oj], sphere_points(space, ends)])
        vals = 1.0 - np.asarray(space.gauge(X[rows] + Y)) / 2.0
        order = np.lexsort((np.arange(rows.size), vals, rows))
        first = order[np.unique(rows[order], return_index=True)[1]]
        best = np.full(len(X), np.inf)
        best[rows[first]] = vals[first]
        witness = np.full((len(X), space.dim), np.nan)
        witness[rows[first]] = Y[first]
        return best, witness, rows.size

    row_vals, evaluations = np.empty(n), 0
    for i0, i1 in row_blocks(n, False):
        for rows in (slice(i0, i1), slice(i0 + n // 2, i1 + n // 2)):
            row_vals[rows], _, tried = row_values(sphere_points(space, grid.params[rows]))
            evaluations += tried
    feasible = int(np.isfinite(row_vals).sum())
    if feasible == 0:
        raise ValueError(f"no unit pair satisfies ||x-y|| = {eps} on the grid")
    starts = top_cells(row_vals, -1.0, min(cfg.multistart, feasible))
    est = row_infimum(space, grid, row_values, starts, row_vals, cfg)
    return replace(est, evaluations=evaluations + est.evaluations)


def eps0(space: Space, cfg: SearchConfig | None = None, *,
         cache: PairTable | None = None) -> ConstantEstimate:
    """Largest eps with delta(eps) = 0, the characteristic of convexity, at
    the threshold delta(eps) <= 1e-7: the largest multiple of 2^-14 at or
    below E, capped at 2, where E is the sup of ||x-y|| over unit pairs
    with 1 - ||x+y||/2 <= 1e-7.

    The unit sphere is compact, so delta(eps) <= 1e-7 exactly when some
    unit pair has ||x-y|| >= eps and 1 - ||x+y||/2 <= 1e-7: the eps with
    delta(eps) <= 1e-7 form [0, E], and one constrained sup finds its end.
    The threshold admits pairs a little past the end of a flat zone, which
    on the hexagon puts E at 1.0000002; flooring to the 2^-14 lattice drops
    that width on polygons.
    The witness is the maximizing pair, so ||x-y|| >= value and
    1 - ||x+y||/2 <= 1e-7.
    """
    flat = PairNormObjective(lambda a, b: np.where(1.0 - a / 2.0 <= _FLAT, b, -np.inf))
    (est,), _ = extremize(space, [flat], cfg, "sup", cache=cache)
    return replace(est, value=min(2.0, math.floor(est.value * 2.0 ** 14) / 2.0 ** 14))


# --------------------------------------------------------------------------
# Everything at once
# --------------------------------------------------------------------------

def guarded(key, fn):
    """fn(), with any failure re-raised as a RuntimeError naming key.  key
    may be a tuple, the constants of one shared search in group order: a
    group left without a grid start (search.NoStartError) names its own
    constant, and any other failure the first."""
    try:
        return fn()
    except Exception as exc:
        if isinstance(key, tuple):
            key = key[exc.group if isinstance(exc, NoStartError) else 0]
        raise RuntimeError(f"computation of {key!r} failed: {exc}") from exc


def pair_constants(space: Space, cfg: SearchConfig,
                   cache: PairTable | None) -> dict[str, ConstantEstimate]:
    """sp, james, cnj, cnj_prime, zbaganu and schaffer, in this key order:
    the constants that compute_all and verify.run_checks both report.  S_P,
    J, C'_NJ and S are zoomed in one extremize call, C_NJ and C_Z in one
    t-sweep; each estimate is bit for bit its own call's wherever the gauge
    rounds a point alike in any batch."""
    keys = tuple(_PAIR_SCANS)
    fns, modes, excludes = zip(*_PAIR_SCANS.values())
    out = dict(zip(keys, guarded(keys, lambda: extremize(
        space, [PairNormObjective(fn) for fn in fns], cfg, modes, exclude=excludes,
        cache=cache)[0])))
    out["cnj"], out["zbaganu"] = guarded(
        ("cnj", "zbaganu"),
        lambda: _scaled_extremum(space, [_cnj_combine, _zbaganu_combine], cfg))
    return {key: out[key] for key in ("sp", "james", "cnj", "cnj_prime", "zbaganu", "schaffer")}


def compute_all(space: Space, cfg: SearchConfig | None = None, *,
                gamma_ts=(), delta_eps=(), rho_ts=(), oracle_grid: int | None = None
                ) -> (dict[str, ConstantEstimate]
                      | tuple[dict[str, ConstantEstimate], dict[str, OracleResult]]):
    """All constants of one space, sharing a single pair-norm table, in the
    key order of pair_constants, then t, T, eps0 and each gamma, delta and
    rho.  With oracle_grid, also the dense-grid oracle's values of
    ORACLE_COMBINES at that grid size: (constants, oracle).

    A modulus argument outside its domain raises ValueError before any
    computation.  A failure in any single computation is re-raised as a
    RuntimeError naming the constant, so callers can report which one broke.

    The table is built here, then the independent searches run as tasks of
    parallel.run_split, in the order t and T (the costliest search), the
    oracle, pair_constants, eps0, each gamma, each delta, each rho: on
    several CPUs this process takes every w-th of them and forked workers
    the rest, sharing the table.  Each estimate is that of the same call
    on one CPU, and the failure reported is the first in task order.
    """
    for name, values in (("gamma", gamma_ts), ("delta", delta_eps), ("rho", rho_ts)):
        for v in values:
            check_modulus(name, float(v))
    cfg = cfg or SearchConfig.for_dim(space.dim)
    cache = pair_table(space, cfg)

    def task(key, fn):
        return lambda: guarded(key, fn)

    tasks = {"t and T": task("T", lambda: t_and_T(space, cfg, cache=cache))}
    if oracle_grid is not None:
        tasks["oracle"] = lambda: oracle_pair_norm_extrema(space, ORACLE_COMBINES,
                                                           grid_size=oracle_grid, eta=cfg.eta)
    tasks["pair constants"] = lambda: pair_constants(space, cfg, cache)
    tasks["eps0"] = task("eps0", lambda: eps0(space, cfg, cache=cache))
    for t in gamma_ts:
        key = f"gamma({float(t):.12g})"
        tasks[key] = task(key, lambda t=float(t): gamma(space, t, cfg))
    for e in delta_eps:
        key = f"delta({float(e):.12g})"
        tasks[key] = task(key, lambda e=float(e): delta(space, e, cfg, cache=cache))
    for t in rho_ts:
        key = f"rho({float(t):.12g})"
        tasks[key] = task(key, lambda t=float(t): rho(space, t, cfg))
    done = dict(zip(tasks, run_split(list(tasks.values()))))
    out = done.pop("pair constants")
    out["t"], out["T"] = done.pop("t and T")
    oracle = done.pop("oracle", None)
    out.update(done)
    return out if oracle_grid is None else (out, oracle)

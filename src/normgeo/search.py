"""Deterministic extremum search over pairs of unit-sphere points.

Strategy: evaluate the objective on a coarse deterministic grid of sphere
parameters, then hand the best cells to one multistart engine
(refine_starts): a lattice zoom, run for all starts in lockstep as numpy
arrays, that moves each start to its best lattice point and halves its
spacing when none is better, re-evaluation of the zoomed points, and one
tie-break (extremal value first, lexicographically smallest parameter tuple
among ties).  No randomness enters the search path, and ties between grid
cells go to the lowest index (top_cells), so the same machine and numpy
build reproduce results bit for bit.  Across numpy's CPU dispatch levels a
gauge may round differently in the last bits (lp's power kernel is
dispatched), and then so may the results.

Sphere parameterization: dim 2 uses one angle per point; dim >= 3 uses raw
direction vectors on the surface lattice of the cube [-1, 1]^dim (coordinates
{-1 + 2i/k : 0 <= i <= k}, max-norm exactly 1), gauge-normalized.  Distinct
surface points are distinct directions, and doubling k refines the lattice in
place, so grids nest.  Weighted lp takes its directions in lp's coordinates
(Space.scale), so its grids are uniform on the isometric lp sphere.
sphere_points is the one map from parameters to unit vectors.

Antipodal grids: every grid is H u -H, its second half the exact negations
of its first.  Every gauge is bitwise even and (-x) + y = -(x - y) exactly in
IEEE arithmetic, so ||x - y_j|| is ||x + y_(j+n/2)|| and the pair norms of
(-x, y) are those of (x, y) swapped, bit for bit.  The pair table stores
||x + y|| for x in H alone, and every grid walk calls the gauge on x + y
for x in H only (half_pair_norms, pair_norms).

Mirror classes: two maps of a pair leave both pair norms unchanged, bit for
bit, for every combine.  (x, y) -> (-x, -y) at any fixed t, since
(-x) +- t(-y) is exactly -(x +- ty) and every gauge is bitwise even; and
(x, y) -> (y, x) at t = 1, since y + x is the float vector x + y and y - x
the exact negation of x - y.  On the H u -H grid -x_i is x_(i+n/2), so with
i+ for (i + n/2) mod n the cell (i, j) has the class {(i, j), (i+, j+)},
and at t = 1 also (j, i) and (j+, i+) (mirror_members).  x -> -x alone
swaps the two norms, which only a combine symmetric in them ignores, so it
forms no class.

Class walk: every scan scores one cell per class, the class's lowest flat
index (row_blocks).  At a fixed t != 1 that is the cell whose row lies in
H, n^2/2 cells; at t = 1 the cells (i, j) with i in H and (j mod n/2) >= i,
the upper triangles of the H x H and H x -H quadrants, n^2/4 cells.  A
class counts as many evaluations as it has members (class_sizes: 2, or 4
at t = 1 unless j = i or j = i+), unless its value is excluded or NaN,
which holds for all members alike.  The best cells of each block are expanded back to
the members of their classes (mirror_members).  A class's lowest-index
cell ranks ahead of its other members by value and then by flat index, so
the best cells of a full scan of the grid are among those members.
Starts, ties and evaluation counts are those of a full scan.  Members of a
class zoom to the same value up to rounding, so the engine zooms one
member of each class among an objective's starts (mirror_representatives).

Shared zooms: one refine_pairs call holds groups of starts that may differ
in combine, mode (one sign per start in refine_starts), exclusion and fixed
t, or that all search t.  Each level makes one gauge call for both pair
norms of every start's lattice, and one sphere_points call on the distinct
first and second points of those lattices (7 + 7 of the 48 points of the
2D box), whose floats are those of every lattice point.  Each group is
then scored by its own objective, counts its own levels and gets its own
winner, so its estimate is that of a call of its own, bit for bit
wherever the gauge rounds a point alike in any batch.  A group that has
stopped still rides along until every group has, so a merge pays only
when the groups stop at similar levels: merged into the pair constants'
call, gamma_profile's 10 reduced-grid groups took 1.95-2.05 s over the
20-polygon battery against 1.80-1.95 s in their own call, which they keep.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .spaces import Space

_STORED_PAIR_LIMIT = 40_000_000   # most n^2 grid pairs given a table, of n^2/2 floats (160 MB)
# The most points a sphere grid may lay out: its angles in 2D, and in
# dim >= 3 the (k+1)^dim cube lattice whose surface it keeps, 8 dim bytes a
# point in each copy (25 MB at the cap in dim 3).  Every default grid up to
# dim 6 lies below it.
GRID_POINT_LIMIT = 2 ** 20
CHUNK_PAIRS = 500_000   # pairs per block of a grid scan

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# Configuration and results
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the grid + zoom search.  Defaults target dim 2."""

    grid_per_dim: int = 720
    refine_iters: int = 200   # zoom levels per start
    multistart: int = 16
    eta: float = 1e-6         # degeneracy exclusion radius

    def __post_init__(self):
        if self.grid_per_dim < 8:
            raise ValueError(f"grid_per_dim must be >= 8, got {self.grid_per_dim}")
        if self.refine_iters < 0:
            raise ValueError(f"refine_iters must be >= 0, got {self.refine_iters}")
        if self.multistart < 1:
            raise ValueError(f"multistart must be >= 1, got {self.multistart}")
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
    converged: bool
    evaluations: int
    t: float | None = None         # auxiliary scalar for scaled-pair constants

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
    """The one objective form of the search: a combine fn(a, b) of the pair
    norms a = ||x+ty|| and b = ||x-ty||.

    t is fixed (1 for the pair constants, the modulus's t for gamma and rho),
    or None: then t is a third search parameter in [0, 1] and fn takes
    (a, b, t).  At t = 1 the scans read both norms from the shared pair
    table when there is one.
    """

    def __init__(self, fn: Callable[..., np.ndarray], t: float | None = 1.0):
        self.fn = fn
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


def sphere_points(space: Space, params: np.ndarray) -> np.ndarray:
    """The one map from (..., k) parameter rows, known to be nonzero, to unit
    vectors: an angle (k = 1, dim 2 only) or a direction of length dim, taken
    in lp's coordinates for weighted lp (Space.scale), then gauge-normalized."""
    if space.dim == 2 and params.shape[-1] == 1:
        direction = np.concatenate([np.cos(params), np.sin(params)], axis=-1)
    else:
        direction = params
    if space.scale is not None:
        direction = direction * space.scale
    return direction / np.asarray(space.gauge(direction))[..., None]


def _check_grid_size(dim: int, grid_per_dim: int) -> None:
    """Raise ValueError, naming the largest grid_per_dim dim allows, when a
    sphere grid would lay out more than GRID_POINT_LIMIT points."""
    def points(k):
        return k + k % 2 if dim == 2 else (k + 1) ** dim

    if points(grid_per_dim) <= GRID_POINT_LIMIT:
        return
    largest = GRID_POINT_LIMIT
    if dim > 2:
        largest = 1
        while points(largest + 1) <= GRID_POINT_LIMIT:
            largest += 1
    below = ", below the smallest search grid (8)" if largest < 8 else ""
    raise ValueError(f"grid_per_dim={grid_per_dim} lays out {points(grid_per_dim)} points in "
                     f"dim {dim}, over the limit of {GRID_POINT_LIMIT}; the largest grid_per_dim "
                     f"dim {dim} allows is {largest}{below}")


def sphere_grid(space: Space, grid_per_dim: int) -> SphereGrid:
    """The grid H u -H: point j + n/2 is the exact negation of point j.

    dim 2: the angles 2 pi j / n, n = grid_per_dim rounded up to even; the
    vectors of j >= n/2 are the negated vectors of j - n/2.  dim >= 3: the
    first half of the cube-surface lattice in lexicographic order, then its
    negation.  Negation reverses the lexicographic order of the lattice and
    no surface point is its own antipode, so the negated half is the other
    half of the lattice.  A grid over GRID_POINT_LIMIT points raises
    ValueError before anything is allocated.
    """
    _check_grid_size(space.dim, grid_per_dim)
    if space.dim == 2:
        n = grid_per_dim + grid_per_dim % 2
        thetas = TWO_PI * np.arange(n) / n
        half = sphere_points(space, thetas[:n // 2, None])
        return SphereGrid(thetas[:, None], np.concatenate([half, -half]), TWO_PI / n)
    k = grid_per_dim
    axis = -1.0 + 2.0 * np.arange(k + 1) / k
    mesh = np.stack(np.meshgrid(*([axis] * space.dim), indexing="ij"), axis=-1)
    pts = mesh.reshape(-1, space.dim)
    # Keep the cube surface only: interior points duplicate surface directions.
    pts = pts[np.abs(pts).max(axis=1) >= 1.0 - 1e-12]
    pts = pts[:len(pts) // 2]
    half = sphere_points(space, pts)
    return SphereGrid(np.concatenate([pts, -pts]), np.concatenate([half, -half]), 2.0 / k)


def lattice_edges(grid: SphereGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges of a sphere grid's lattice: grid indices (tail, head) and
    the parameter axis i with params[tail] + step * e_i at head.

    In 2D the edges are the angles j and (j+1) mod n, the last one reached
    across 2pi.  In dim >= 3 they are the pairs of surface points one step
    apart along a coordinate axis, ordered by tail, then axis.  Both ends of
    such a pair lie on one face of the cube, so the segment between them
    stays on the surface.
    """
    n, k = grid.params.shape
    if k == 1:
        j = np.arange(n)
        return j, (j + 1) % n, np.zeros(n, dtype=np.intp)
    idx = np.rint((grid.params + 1.0) / grid.step).astype(np.intp)
    at = np.full((int(idx.max()) + 2,) * k, -1, dtype=np.intp)   # one pad layer: no head
    at[tuple(idx.T)] = np.arange(n)
    heads = np.stack([at[tuple((idx + np.eye(k, dtype=np.intp)[i]).T)]
                      for i in range(k)], axis=1)
    tails, axes = np.nonzero(heads >= 0)
    return tails, heads[tails, axes], axes


# --------------------------------------------------------------------------
# Pair tables
# --------------------------------------------------------------------------

def antipodal(a: np.ndarray) -> np.ndarray:
    """a with the halves of its last axis, an H u -H grid, swapped: entry j
    of the result is entry (j + n/2) mod n of a, the entry of j's antipode."""
    return np.roll(a, a.shape[-1] // 2, axis=-1)


def half_pair_norms(space: Space, xs: np.ndarray, ys: np.ndarray, lo: int) -> np.ndarray:
    """||x+y|| for every x of xs (..., m, dim) and the points lo.. of each
    half of ys (..., n, dim), an H u -H grid or its multiple by a scalar t
    (the negation commutes with t), as an (..., m, 2, n/2 - lo) array: the
    one gauge call on pair sums.  Its two halves swapped are the ||x-y||,
    since ||x - y_j|| is ||x + y_(j+n/2)||.  Each x gets its own batch of
    points: the polygon gauges' matrix product rounds a lone point
    differently, and runs one batch of all points on several threads."""
    *lead, n, d = ys.shape
    ys = ys.reshape(*lead, 2, n // 2, d)[..., lo:, :].reshape(*lead, -1, d)
    plus = np.asarray(space.gauge(xs[..., :, None, :] + ys[..., None, :, :]))
    return plus.reshape(*plus.shape[:-1], 2, -1)


def pair_norms(space: Space, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||x+y|| and ||x-y|| for every x of xs (..., m, dim) and every y of ys
    (..., n, dim) as two (..., m, n) arrays: half_pair_norms over all of ys,
    and its halves swapped."""
    plus = half_pair_norms(space, xs, ys, 0)
    plus = plus.reshape(*plus.shape[:-2], -1)
    return plus, antipodal(plus)


@dataclass
class PairTable:
    """Stored ||x+y|| for x in H, over every y of the H u -H grid: the rows
    of -H, and the ||x-y|| of a row, are its halves swapped."""

    grid: SphereGrid
    plus: np.ndarray    # (n/2, n)

    def block(self, i0: int, i1: int, lo: int) -> np.ndarray:
        """||x+y|| over a row_blocks block, rows i0..i1 of H and columns
        lo.. of each half: an (i1 - i0, 2, n/2 - lo) view of plus, whose
        halves swapped are the ||x-y||."""
        return self.plus[i0:i1].reshape(i1 - i0, 2, -1)[:, :, lo:]

    @property
    def minus(self) -> np.ndarray:
        """||x-y|| over the whole grid, the rows of -H then of H: a new (n, n) array."""
        return np.concatenate([antipodal(self.plus), self.plus])


def row_blocks(n: int, swap: bool) -> list[tuple[int, int]]:
    """The blocks (i0, i1) of rows of H, the rows a pair table stores, of
    the class walk of an n x n pair grid on H u -H (see the module
    docstring); every grid walk goes through here.  A block holds the
    columns lo.. of each half of its rows, lo = 0 without swap and lo = i0
    with it (a t = 1 walk), at most CHUNK_PAIRS pairs (one row at least).
    The cells (i, j) with (j mod n/2) < i of a swap block repeat cells of
    its own rows above its diagonal; a swap block spans at most half its
    width, so they stay a quarter of it."""
    half, blocks, i0 = n // 2, [], 0
    while i0 < half:
        width = half - i0 if swap else half
        rows = max(1, min(CHUNK_PAIRS // (2 * width), width // 2 if swap else half))
        blocks.append((i0, min(i0 + rows, half)))
        i0 += rows
    return blocks


def block_cells(n: int, i0: int, lo: int, width: int, idx: np.ndarray) -> np.ndarray:
    """Flat indices (i n + j) of the positions idx of an (r, 2, width)
    row_blocks block, whose entry (rho, q, c) is the pair
    (i0 + rho, q n/2 + lo + c).  Ascending positions give ascending cells."""
    rho, rest = np.divmod(idx, 2 * width)
    q, c = np.divmod(rest, width)
    return (i0 + rho) * n + q * (n // 2) + lo + c


def pair_table(space: Space, cfg: SearchConfig) -> PairTable | None:
    """Precompute pair norms for reuse across objectives; None if too large.

    The table holds the rows of H alone.  The gauge runs on the cells of
    the t = 1 class walk (row_blocks), n^2/4 points; the H x H and H x -H
    quadrants are symmetric, so transposes fill in the rest, bit for bit.
    """
    grid = sphere_grid(space, cfg.grid_per_dim)
    n = len(grid.vectors)
    if n * n > _STORED_PAIR_LIMIT:
        return None
    half = n // 2
    table = PairTable(grid, np.empty((half, n)))
    plus = table.plus
    for i0, i1 in row_blocks(n, True):
        table.block(i0, i1, i0)[...] = half_pair_norms(space, grid.vectors[i0:i1],
                                                       grid.vectors, i0)
        for q in (0, half):
            plus[i1:half, q + i0:q + i1] = plus[i0:i1, q + i1:q + half].T
    return table


# --------------------------------------------------------------------------
# The multistart engine: a lockstep lattice zoom
# --------------------------------------------------------------------------

_ZOOM_TOL = 1e-12        # a start stops once its lattice spacing is below this
# A move that gains at most this times max(1, |value|) also halves the
# spacing.  Pair norms of unit vectors carry absolute rounding of about
# 1e-16, and along a flat direction (a symmetry of the norm, such as the
# rotations of l2) a lattice step gains that much from the rounding of the
# parameters alone, so a start could drift along it at full spacing until
# the level budget runs out.  Such moves are still taken: on polygon norms
# a few of them lead along a flat ridge to lower ground.
_GAIN_FLOOR = 2.0 ** -48


def box_lattice(radius: int, k: int) -> np.ndarray:
    """The integer points of {-radius..radius}^k without the origin, in
    lexicographic order."""
    pts = np.array(list(itertools.product(range(-radius, radius + 1), repeat=k)), dtype=float)
    return pts[np.abs(pts).max(axis=1) > 0.0]


def axis_lattice(k: int) -> np.ndarray:
    """The 2k points -e_1, e_1, ..., -e_k, e_k."""
    return np.repeat(np.eye(k), 2, axis=0) * np.tile([-1.0, 1.0], k)[:, None]


def sphere_domain(space: Space, blocks: int):
    """Projection of parameter rows back onto their domain, in place: the
    `blocks` leading sphere parameters are angles wrapped into [0, 2pi) in
    2D, and direction vectors scaled back onto the cube surface
    (max_i |x_i| = 1) in dim >= 3; any further columns are kept."""
    if space.dim == 2:
        def project(P):
            P[:, :blocks] = np.mod(P[:, :blocks], TWO_PI)
            return P
    else:
        d = space.dim

        def project(P):
            for b in range(0, blocks * d, d):
                P[:, b:b + d] /= np.abs(P[:, b:b + d]).max(axis=1, keepdims=True)
            return P
    return project


def refine_starts(f, starts, values, h, lattice, sign, cfg: SearchConfig,
                  project=None, groups=None):
    """Multistart refinement of grid starts by a lockstep lattice zoom.

    Each level evaluates the lattice P + h * lattice around every start P in
    one call f(params): params has shape (starts, points, k) and f returns
    the (starts, points) values.  A start moves to its best strictly better
    lattice point (the first in lattice order among equals) and halves its
    own spacing h when no lattice point beats it by more than rounding,
    _GAIN_FLOOR * max(1, |value|).  It stops when its spacing falls below
    1e-12, which counts as converged, or after cfg.refine_iters levels.
    Every start stays in the call until all have stopped, so the shape of
    each call never depends on which starts have finished; a stopped start
    keeps its point.  project, when given, maps accepted points back onto
    the parameter domain in place.

    The zoomed points are evaluated again, and the winner is picked by
    value (largest for sign +1, smallest for -1), then by the smallest
    parameter tuple.  sign is one value for all starts or one per start.
    Returns the points, their values, the converged flags, and per group
    the index of the winner and the evaluation count.

    groups labels each start with its group 0..G-1, every label used; by
    default all starts form one group.  The winner and the count are (G,)
    arrays, each group's those of a call with its starts alone: the winner
    within the group, and the levels until the group's own starts stopped,
    times its starts, times the lattice points, plus its starts.
    """
    P = np.array(starts, dtype=float)
    n = len(P)
    sign = np.broadcast_to(np.asarray(sign, dtype=float), (n,))
    val = sign * np.array(values, dtype=float)
    offsets = np.asarray(lattice, dtype=float)
    h = np.full(n, float(h))
    conv = h < _ZOOM_TOL
    s = np.arange(n)
    g = np.zeros(n, dtype=np.intp) if groups is None else np.asarray(groups, dtype=np.intp)
    size = np.bincount(g)
    levels = np.zeros(len(size), dtype=np.intp)
    for _ in range(cfg.refine_iters):
        running = np.bincount(g[~conv], minlength=len(size)) > 0
        if not running.any():
            break
        levels += running
        cand = P[:, None, :] + h[:, None, None] * offsets      # (n, points, k)
        v = sign[:, None] * np.asarray(f(cand), dtype=float)
        j = v.argmax(axis=1)
        vj = v[s, j]
        move = (vj > val) & ~conv
        with np.errstate(invalid="ignore"):   # -inf - -inf: no gain
            gain = vj - val > _GAIN_FLOOR * np.maximum(1.0, np.abs(vj))
        new = cand[s[move], j[move]]
        P[move] = new if project is None else project(new)
        val[move] = vj[move]
        h[~gain] *= 0.5
        conv |= h < _ZOOM_TOL
    vals = np.asarray(f(P[:, None, :]), dtype=float)[:, 0]
    order = np.lexsort((*P.T[::-1], -sign * vals, g))
    best = order[np.searchsorted(g[order], np.arange(len(size)))]
    return P, vals, conv, best, size * (levels * len(offsets) + 1)


# --------------------------------------------------------------------------
# Pair objectives
# --------------------------------------------------------------------------

_PLUS_MINUS = np.array([1.0, -1.0])


def _score(objective: PairNormObjective, plus, minus, exclude: bool, eta: float, sign: float,
           t=None):
    """objective at the pair norms plus = ||x+ty|| and minus = ||x-ty||,
    with excluded and NaN pairs scored -sign * inf, and the mask of those
    pairs.  t (one value per pair) is the combine's third argument when the
    objective searches t."""
    vals = np.asarray(objective(plus, minus) if objective.t is not None
                      else objective(plus, minus, t), dtype=float)
    bad = np.isnan(vals)
    if exclude:
        bad |= (plus < eta) | (minus < eta)
    return np.where(bad, -sign * np.inf, vals), bad


def _pair_values(space: Space, objective: PairNormObjective, xs, ys, exclude: bool,
                 eta: float, sign: float, t=None):
    """_score at the broadcast pairs (xs, ys), from one gauge call.  t (one
    value per row of ys) overrides the objective's own t."""
    if t is not None:
        ys = t[:, None] * ys
    elif objective.t != 1.0:
        ys = objective.t * ys
    # x + (-1 * ty) is exactly x - ty: both norms in one gauge call.
    signs = _PLUS_MINUS.reshape((2,) + (1,) * np.ndim(ys))
    plus, minus = np.asarray(space.gauge(xs + signs * ys))
    return _score(objective, plus, minus, exclude, eta, sign, t)


class NoStartError(ValueError):
    """A group of a refine_pairs call has no finite grid start; group is
    its index."""

    def __init__(self, group: int, message: str):
        super().__init__(message)
        self.group = group

    def __reduce__(self):   # pickle rebuilds it with both arguments
        return (NoStartError, (self.group, str(self)))


def _per_group(mode, exclude, count: int):
    """One search sign (+1 for "sup", -1 for "inf") and one exclusion flag
    per group, from per-group sequences or from one value for all."""
    modes = [mode] * count if isinstance(mode, str) else mode
    return (np.array([1.0 if m == "sup" else -1.0 for m in modes]),
            np.broadcast_to(exclude, count))


@functools.lru_cache(maxsize=None)
def _pair_lattice(k: int, search_t: bool):
    """refine_pairs' first zoom lattice for k sphere parameters per point,
    in units of step / radius: (radius, lattice, pick, gather), the arrays
    read-only.  pick holds the entries of a start's flat lattice parameters
    that hold its distinct x and y (per half, the first lattice point of
    each distinct offset), and gather, per lattice point, the positions of
    its x and y among them.  They depend on (k, search_t) alone, so each
    pair is worked out once.
    """
    if k == 1:
        radius = 2 if search_t else 3
        lattice = box_lattice(radius, 2 + search_t)
    else:
        radius, lattice = 1, axis_lattice(2 * k + search_t)
    width = lattice.shape[1]
    picks, at = [], []
    for half in (0, 1):
        # numpy 2.0.0 returns the inverse as a column.
        _, first, inverse = np.unique(lattice[:, half * k:(half + 1) * k], axis=0,
                                      return_index=True, return_inverse=True)
        picks.append((first[:, None] * width + half * k + np.arange(k)).ravel())
        at.append(inverse.reshape(-1) + half * len(first))
    pick, gather = np.concatenate(picks), np.stack(at, axis=1).ravel()
    for a in (lattice, pick, gather):
        a.flags.writeable = False
    return radius, lattice, pick, gather


def _pair_batch(space: Space, groups, sizes, eta: float, ts: np.ndarray | None):
    """Zoom evaluator f(params) over (starts, points, 2k[+1]) parameter rows
    (x, y[, t]) of consecutive groups of starts: sizes[g] starts of the
    group groups[g], an (objective, sign, exclude) triple.  t is the last
    parameter when the objectives search it, and ts[s], one fixed t per
    start s, otherwise.  One gauge call gives both pair norms of every row;
    then each group's rows are scored by its own objective, with excluded,
    NaN and out-of-range-t pairs at -sign * inf.

    f takes the lattice P + h * lattice around each start, as refine_starts'
    levels pass it (the lattice of _pair_lattice), or one point per start.
    On the lattice the unit vectors come from one sphere_points call on the
    distinct first points and the distinct second points of each start's
    lattice (7 + 7 of the 48 points of the 2D box): the same parameter
    floats as every lattice point's, so the same vectors.
    """
    k, d = (1 if space.dim == 2 else space.dim), space.dim
    search_t = groups[0][0].t is None
    bounds = np.cumsum([0, *sizes])
    worst = -np.repeat([sign for _, sign, _ in groups], sizes)[:, None] * np.inf
    scale = None if search_t or (ts == 1.0).all() else ts[:, None, None]   # y * 1 is y
    _, lattice, pick, gather = _pair_lattice(k, search_t)

    def f(params):
        s, p = params.shape[:2]
        on_lattice = p == len(lattice)
        # The distinct x and y of every start in one gauge call.
        xy = (np.take(params.reshape(s, -1), pick, axis=1) if on_lattice
              else params[..., :2 * k])
        units = sphere_points(space, xy.reshape(-1, k)).reshape(s, -1, d)
        if on_lattice:
            units = np.take(units, gather, axis=1)
        units = units.reshape(s, p, 2, d)
        xs, ys = units[:, :, 0], units[:, :, 1]
        t = np.ascontiguousarray(params[..., 2 * k]) if search_t else None
        if search_t:
            ys = ys * t[..., None]
        elif scale is not None:
            ys = ys * scale
        # Both norms in one gauge call.
        pairs = np.empty((2, s, p, d))
        np.add(xs, ys, out=pairs[0])
        np.subtract(xs, ys, out=pairs[1])
        plus, minus = np.asarray(space.gauge(pairs.reshape(2, -1, d))).reshape(2, s, p)
        vals = np.empty((s, p))
        for (objective, sign, exclude), lo, hi in zip(groups, bounds, bounds[1:]):
            vals[lo:hi] = _score(objective, plus[lo:hi], minus[lo:hi], exclude, eta, sign,
                                 None if t is None else t[lo:hi])[0]
        return np.where((t >= 0.0) & (t <= 1.0), vals, worst) if search_t else vals

    return f


def refine_pairs(space: Space, objectives, starts, values, step: float, cfg: SearchConfig,
                 mode, *, evaluations, exclude=False,
                 t_step: float | None = None) -> list[ConstantEstimate]:
    """Run groups of grid starts (x-params, y-params[, t]) of pair objectives
    through one lockstep refine_starts call and report each group's winner.

    Group g holds the starts[g] and values[g] of objectives[g], searched
    for mode[g] ("sup" or "inf") with the exclusion exclude[g], and the scan
    count evaluations[g], which is added to the engine's; mode and exclude
    may also be one value for all groups.  The groups may differ in
    combine, fixed t, mode and exclusion, but either every objective
    searches t or none does.  Each group's estimate is the one a call with
    that group alone reports, count included; the engine keeps every start
    independent of the others.

    Non-finite starts are dropped, and a group left without one raises
    NoStartError.  The first zoom lattice spans one grid step, step on the
    sphere parameters and t_step on a searched t (objective.t None).  In 2D
    it is a box of points, in dim >= 3, where a box would have 3^(2 dim)
    points, the coordinate axes.
    """
    signs, excludes = _per_group(mode, exclude, len(objectives))
    search_t = objectives[0].t is None
    P0, V0 = [], []
    for g, (group_starts, group_values) in enumerate(zip(starts, values)):
        group_values = np.asarray(group_values, dtype=float)
        keep = np.isfinite(group_values)
        if not keep.any():   # excluded and NaN pairs score -sign * inf
            raise NoStartError(g, (
                "no admissible grid pair; eta is too large for this grid"
                if excludes[g] and (group_values == -signs[g] * np.inf).all() else
                "no finite grid start; the combine is NaN or infinite at the best grid pairs"))
        P0.append(np.asarray(group_starts, dtype=float)[keep])
        V0.append(group_values[keep])
    sizes = [len(v) for v in V0]
    groups = np.repeat(np.arange(len(P0)), sizes)
    ts = None if search_t else np.array([o.t for o in objectives], dtype=float)[groups]
    k = 1 if space.dim == 2 else space.dim
    radius, lattice, _, _ = _pair_lattice(k, search_t)
    h = step / radius
    if search_t:
        lattice = lattice.copy()
        lattice[:, -1] *= t_step / step
    P, vals, conv, best, count = refine_starts(
        _pair_batch(space, list(zip(objectives, signs, excludes)), sizes, cfg.eta, ts),
        np.concatenate(P0), np.concatenate(V0), h, lattice, np.repeat(signs, sizes), cfg,
        sphere_domain(space, 2), groups)
    # The engine's last call, repeated for the witnesses: the same rows of
    # the same floats in one sphere_points call, so the same bits.
    units = sphere_points(space, P[:, :2 * k].reshape(-1, k)).reshape(len(P), 2, -1)
    return [ConstantEstimate(
        value=float(vals[b]), x=units[b, 0], y=units[b, 1], converged=bool(conv[b]),
        evaluations=e + int(c), t=float(P[b, -1]) if search_t else None)
        for b, c, e in zip(best, count, evaluations)]


# --------------------------------------------------------------------------
# Pair extremization
# --------------------------------------------------------------------------

def top_cells(vals: np.ndarray, sign: float, count: int, cells=None, axis=None) -> np.ndarray:
    """Flat indices of the first `count` cells of vals (which holds no NaN)
    by value, largest first for sign +1 and smallest first for -1, then by
    flat index.  Row-major flat order makes the index order lexicographic in
    (i, j).  With axis=-1 each row along the last axis is picked alone:
    the (..., count) positions within the rows.

    Exact under any ties: every cell strictly better than the count-th value
    is taken, and the remaining places go to the lowest-index cells at that
    value, so the choice depends on the values alone.  cells, when given,
    holds the index of each value in a larger array (candidates merged
    from several scans), distinct in each row and in any order, and takes
    the place of the flat index in the order.
    """
    key = -sign * np.asarray(vals, dtype=float)
    n = key.size if axis is None else key.shape[-1]
    rows = key.size // max(n, 1)
    count = min(count, n)
    shape = (count,) if axis is None else key.shape[:-1] + (count,)
    if count == 0:
        return np.empty(shape, dtype=np.intp)
    key = key.reshape(rows, n)
    kth = np.partition(key, count - 1, axis=1)[:, count - 1, None]
    # The candidates, every cell at or better than its row's count-th value,
    # by row, then value, then index: each row's first count are its pick.
    flat = np.flatnonzero(key <= kth)
    order = flat[np.lexsort((flat if cells is None else np.ravel(cells)[flat],
                             key.ravel()[flat], flat // n))]
    if rows > 1:
        order = order[np.searchsorted(order // n, np.arange(rows))[:, None] + np.arange(count)]
    return (order[..., :count] % n).reshape(shape)


def _walk(space: Space, objective: PairNormObjective, grid: SphereGrid,
          cache: PairTable | None, exclude: bool, eta: float, sign: float, swap: bool):
    """The class walk (see the module docstring) of a fixed-t objective,
    with the t = 1 classes when swap is set: yield per row_blocks(n, swap)
    block its i0 and lo, its (r, 2, w) values (block_cells numbers them;
    excluded and NaN pairs scored -sign * inf) and the evaluations it
    stands for (_block_count).

    The pair norms of a t = 1 objective come from the shared table cache
    when there is one; otherwise from the gauge on the block's pairs, which
    needs less memory than building a table for one use.
    """
    ys = objective.t * grid.vectors   # still H u -H: t * (-y) = -(t * y)
    n = len(ys)
    for i0, i1 in row_blocks(n, swap):
        lo = i0 if swap else 0
        if cache is not None and objective.t == 1.0:
            plus = cache.block(i0, i1, lo)
        else:
            plus = half_pair_norms(space, grid.vectors[i0:i1], ys, lo)
        vals, bad = _score(objective, plus, plus[:, ::-1], exclude, eta, sign)
        yield i0, lo, vals, _block_count(i0, lo, bad, n, swap)


def _block_count(i0: int, lo: int, bad: np.ndarray, n: int, swap: bool) -> int:
    """The class_sizes of the cells of a _walk block whose value is neither
    excluded nor NaN.  Past the first r columns of each half, every cell of
    the block's r rows lies above its diagonal and has the size of column
    r."""
    r, ok = len(bad), ~bad
    sizes = class_sizes(np.arange(i0, i0 + r)[:, None, None], lo + np.arange(r + 1), n, swap)
    count = int(np.sum(sizes[..., :r] * ok[..., :r], dtype=np.intp))
    return count + int(sizes[0, 0, r]) * np.count_nonzero(ok[..., r:])


def class_sizes(i, j, n: int, swap: bool) -> np.ndarray:
    """The members of the mirror class (mirror_members) of each cell
    (i, j) of the class walk, i in H, with i and j broadcast, as int8: 2,
    and at t = 1 (swap) 4, but 2 on the diagonals j = i and j = i+.  A
    t = 1 cell with (j mod n/2) < i repeats a cell above the diagonal of
    its own row_blocks block and counts 0."""
    jm = np.asarray(j) % (n // 2)
    if not swap:
        return np.full(np.broadcast_shapes(np.shape(i), jm.shape), 2, dtype=np.int8)
    return 2 * ((jm >= i).astype(np.int8) + (jm > i))


def mirror_members(cells, n: int, swap: bool, inner: int = 1) -> np.ndarray:
    """The members of the mirror class of each cell, along a new last axis:
    the inverse of mirror_representatives.

    cells are flat indices (i n + j) inner + r, in an array of any shape,
    of an n x n pair grid on H u -H with inner further cells r per pair (a
    t grid).  With i+ for (i + n/2) mod n, a cell's members are (i, j, r)
    and (i+, j+, r), and with swap (a t = 1 objective) also (j, i, r) and
    (j+, i+, r); a class of two members lists each twice.
    """
    cells = np.asarray(cells, dtype=np.intp)
    ij, r = np.divmod(cells, inner)
    i, j = np.divmod(ij, n)
    ih, jh = (i + n // 2) % n, (j + n // 2) % n
    members = [ij, ih * n + jh] + ([j * n + i, jh * n + ih] if swap else [])
    return np.stack(members, axis=-1) * inner + r[..., None]


def mirror_representatives(cells, n: int, swap: bool, inner: int = 1) -> np.ndarray:
    """Positions in cells of one cell per mirror class (mirror_members),
    the lowest-index member present, in the order of cells."""
    cells = np.asarray(cells, dtype=np.intp)
    key = mirror_members(cells, n, swap, inner).min(axis=1)
    order = np.lexsort((cells, key))
    return np.sort(order[np.unique(key[order], return_index=True)[1]])


def pick_starts(grid: SphereGrid, cells, values, sign: float, count: int, swap: bool,
                ts: np.ndarray | None = None):
    """The zoom's starts among candidate cells, flat indices (i n + j) of
    grid's n x n pair grid, or (i n + j) len(ts) + r at t = ts[r]: the count
    best (top_cells), one per mirror class (mirror_representatives).
    Returns the best cells, and the parameter rows (x, y[, t]) and the
    values of their representatives."""
    n = len(grid.params)
    inner = 1 if ts is None else len(ts)
    best = top_cells(values, sign, count, cells)
    rep = best[mirror_representatives(cells[best], n, swap, inner)]
    ij, r = np.divmod(cells[rep], inner)
    i, j = np.divmod(ij, n)
    params = [grid.params[i], grid.params[j]] + ([] if ts is None else [ts[r, None]])
    return cells[best], np.hstack(params), values[rep]


def extremize(space: Space, objectives, cfg: SearchConfig | None, mode, *,
              exclude=False, cache: PairTable | None = None):
    """The one scan-and-zoom: the sup (mode "sup") or inf ("inf") over
    unit-sphere pairs (x, y) of each objective, a PairNormObjective with a
    fixed t, at (||x+ty||, ||x-ty||).  With exclude, pairs with
    ||x+ty|| < eta or ||x-ty|| < eta are skipped.  mode and exclude are one
    value for all objectives or one per objective.  cache, the shared pair
    table, supplies the norms of a t = 1 objective.

    Returns the estimates and, per objective, the flat grid indices of its
    starts: the cfg.multistart best cells by value and then by flat index.
    Starts and evaluation counts are those of a scan of every pair (see the
    module docstring).  Of each mirror class among the starts only the
    lowest-index cell is zoomed, from its own scan value.  Each objective
    is scanned alone, and the zooms of all, whatever their combines, modes
    and exclusions, run in one refine_pairs call: bit for bit the separate
    calls wherever the gauge rounds a point alike in any batch.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    grid = cache.grid if cache is not None else sphere_grid(space, cfg.grid_per_dim)
    n = len(grid.vectors)
    picked, scans = [], []
    for objective, sign, excluded in zip(objectives, *_per_group(mode, exclude, len(objectives))):
        # The class walk; each block's best cells and the members of their
        # classes are its candidates, which hold the best of the whole scan.
        found, values, evaluations = [], [], 0
        swap = objective.t == 1.0
        for i0, lo, vals, count in _walk(space, objective, grid, cache, excluded, cfg.eta, sign,
                                         swap):
            idx = top_cells(vals, sign, cfg.multistart)
            members = mirror_members(block_cells(n, i0, lo, vals.shape[2], idx), n, swap)
            found.append(members.ravel())
            values.append(np.repeat(vals.ravel()[idx], members.shape[1]))
            evaluations += count
        found, first = np.unique(np.concatenate(found), return_index=True)
        picked.append(pick_starts(grid, found, np.concatenate(values)[first], sign,
                                  cfg.multistart, swap))
        scans.append(evaluations)
    starts, params, start_values = zip(*picked)
    ests = refine_pairs(space, objectives, params, start_values, grid.step, cfg, mode,
                        evaluations=scans, exclude=exclude)
    return ests, list(starts)


def maximize_pair(space: Space, objective: PairNormObjective, cfg: SearchConfig | None = None,
                  exclude_degenerate: bool = False, *,
                  cache: PairTable | None = None) -> ConstantEstimate:
    """extremize's sup of one objective."""
    return extremize(space, [objective], cfg, "sup", exclude=exclude_degenerate, cache=cache)[0][0]


def minimize_pair(space: Space, objective: PairNormObjective, cfg: SearchConfig | None = None,
                  exclude_degenerate: bool = False, *,
                  cache: PairTable | None = None) -> ConstantEstimate:
    """extremize's inf of one objective."""
    return extremize(space, [objective], cfg, "inf", exclude=exclude_degenerate, cache=cache)[0][0]


# --------------------------------------------------------------------------
# First-point zoom
# --------------------------------------------------------------------------

def row_infimum(space: Space, grid: SphereGrid, row_fn, starts, row_vals,
                cfg: SearchConfig) -> ConstantEstimate:
    """inf over unit x of row_fn(X), which maps (m, dim) unit vectors to
    each row's value and its y as its first two items.  The engine zooms the
    grid rows starts, valued row_vals[starts], on the lattice +-e_i one grid
    step wide; row_fn runs once more on the zoomed points for the witness.
    The estimate's evaluations is the engine's row count."""
    k = grid.params.shape[1]
    P, vals, conv, (best,), (count,) = refine_starts(
        lambda params: row_fn(sphere_points(space, params.reshape(-1, k)))[0]
        .reshape(params.shape[:-1]),
        grid.params[starts], row_vals[starts], grid.step, axis_lattice(k), -1.0, cfg,
        sphere_domain(space, 1))
    X = sphere_points(space, P)   # the engine's last call, repeated for the witness
    Y = row_fn(X)[1]
    return ConstantEstimate(value=float(vals[best]), x=X[best], y=Y[best],
                            converged=bool(conv[best]), evaluations=int(count))


# --------------------------------------------------------------------------
# inf-sup search
# --------------------------------------------------------------------------

_INNER_STARTS = 2        # best grid cells of each row's H half that the inner zoom refines


def _row_sups(space: Space, objective: PairNormObjective, grid: SphereGrid,
              cache: PairTable | None, eta: float) -> tuple[np.ndarray, int]:
    """The sup of the objective over each row of the n x n grid, and the
    evaluations of a scan of every pair.  Row i + n/2 holds the values of
    row i in another order (its mirror class cells), so the class walk
    scores the rows of H, and each stands for its mirror row too."""
    half = len(grid.vectors) // 2
    row_sup, evaluations = np.empty(half), 0
    for i0, _, vals, count in _walk(space, objective, grid, cache, False, eta, 1.0, False):
        row_sup[i0:i0 + len(vals)] = vals.max(axis=(1, 2))
        evaluations += count
    return np.concatenate([row_sup, row_sup]), evaluations


def infsup_pair(space: Space, objective: PairNormObjective, cfg: SearchConfig | None = None,
                *, cache: PairTable | None = None) -> ConstantEstimate:
    """inf over unit x of sup over unit y of objective at (||x+ty||, ||x-ty||).

    Stage 1 takes the exact inner sup on the grid.  Stage 2 is the
    first-point zoom row_infimum, which re-solves the inner problem at every
    outer lattice point for all of them at once: a scan of their grid rows,
    then a zoom, by the same engine, from the _INNER_STARTS best cells of
    each row's H half.  Each mirror pair is zoomed once.  The pair norms of
    (-x, y) are those of (x, -y), so on the H u -H grid rows i and i + n/2
    hold the same values in another order, and the same sup, bit for bit:
    the outer starts are the H representatives (i mod n/2) of the
    multistart best rows.  The combine must be symmetric in its two norms,
    as t's geometric mean is: then y and -y score alike, each row's second
    half repeats its first, and the inner starts come from H alone.  The
    inner lattice is offsets -4..4 on the angle in 2D, the cube
    {-1, 0, 1}^dim around a direction vector in dim >= 3.  The reported
    value, x and y come from one inner solve.
    """
    cfg = cfg or SearchConfig.for_dim(space.dim)
    grid = cache.grid if cache is not None else sphere_grid(space, cfg.grid_per_dim)
    n = len(grid.vectors)
    k = 1 if space.dim == 2 else space.dim
    inner_radius = 4 if space.dim == 2 else 1
    inner_lattice = box_lattice(inner_radius, k)
    # Points of the inner solve, in its row scans and its zoom alike, are
    # stored coordinate-major: the gauges reduce over the coordinate axis,
    # which numpy does faster when that axis is the outermost in memory (the
    # lp gauge about 1.5-2x on the scan's arrays).
    G = np.asfortranarray(objective.t * grid.vectors)

    def inner_sup(X):
        """sup over y for each row x of X: the values and the y vectors."""
        nonlocal evaluations
        X = np.asfortranarray(X)
        vals, bad = _score(objective, *pair_norms(space, X, G), False, cfg.eta, 1.0)
        count = vals.size - np.count_nonzero(bad)
        cells = top_cells(vals[:, :n // 2], 1.0, _INNER_STARTS, axis=-1).ravel()
        rows = np.repeat(np.arange(len(X)), _INNER_STARTS)
        xs = np.asfortranarray(X[rows, None, :])

        def f(params):
            ys = sphere_points(space, np.asfortranarray(params))
            return _pair_values(space, objective, xs, ys, False, cfg.eta, 1.0)[0]

        P, V, _, _, (zoomed,) = refine_starts(f, grid.params[cells], vals[rows, cells],
                                              grid.step / inner_radius, inner_lattice, 1.0,
                                              cfg, sphere_domain(space, 1))
        evaluations += count + int(zoomed)
        V = V.reshape(len(X), _INNER_STARTS)
        win = np.arange(len(X)) * _INNER_STARTS + V.argmax(axis=1)
        return V.max(axis=1), sphere_points(space, P[win])

    # Stage 1: exact grid inf-sup.
    row_sup, evaluations = _row_sups(space, objective, grid, cache, cfg.eta)
    if evaluations == 0:
        raise ValueError("no grid pair has a value; the combine is NaN at every one")
    start_rows = np.unique(top_cells(row_sup, -1.0, cfg.multistart) % (n // 2))

    # Stage 2: outer zoom.  The engine's own count is left out: each outer
    # evaluation is an inner solve, whose pair evaluations are counted above.
    est = row_infimum(space, grid, inner_sup, start_rows, row_sup, cfg)
    return replace(est, evaluations=evaluations)

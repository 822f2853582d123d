import math
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from normgeo import constants, search
from normgeo.constants import delta, gamma, schaffer, sp_constant, t_and_T
from normgeo.search import (ConstantEstimate, PairNormObjective, SearchConfig,
                            infsup_pair, maximize_pair, minimize_pair, pair_table,
                            axis_lattice, box_lattice, lattice_edges, refine_pairs, refine_starts,
                            sphere_grid, sphere_points, top_cells)
from normgeo.spaces import battery_specs, build_space, parse_space_spec

TWO_PI = 2.0 * math.pi
# Block sizes, in pairs, at which the walks must agree: a large one, the
# default, and one that splits every test grid into many blocks.
_CHUNKS = [2_000_000, search.CHUNK_PAIRS, 997]


# --------------------------------------------------------------------------
# Sphere parameterization
# --------------------------------------------------------------------------

def test_sphere_point_2d_angle(l1):
    v = sphere_points(l1, np.array([[math.pi / 4.0]]))[0]
    assert l1.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[0] == pytest.approx(v[1])


def test_sphere_point_direction_any_dim():
    sp = build_space(parse_space_spec("lp:p=2,dim=3"))
    v = sphere_points(sp, np.array([[1.0, 1.0, 1.0]]))[0]
    assert sp.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("spec, k", [("lp:p=1.5,dim=2", 1), ("lp:p=1.5,dim=2", 2),
                                     ("lp:p=1.5,dim=3", 3), ("polygon0", 1)])
def test_sphere_point_bits_of_sphere_points(spec, k):
    """A reported witness carries the bits the engine evaluated: sphere_points
    gives a row in a two-row call the bits it gives that row in a batch, for
    angles (k = 1) and directions alike, on the lp and on the polygon gauges.
    (numpy takes a one-row matrix product, as the polygon gauges make, down
    another BLAS path that can round differently.)"""
    space = build_space(battery_specs(7, 20)[0] if spec == "polygon0"
                        else parse_space_spec(spec))
    rng = np.random.default_rng(3)
    params = (rng.uniform(0.0, TWO_PI, (2000, 1)) if k == 1
              else rng.uniform(-1.0, 1.0, (2000, k)))
    batched = sphere_points(space, params)
    single = np.array([sphere_points(space, np.stack([row, row]))[0] for row in params])
    assert np.array_equal(single, batched)


@pytest.mark.parametrize("spec", [
    battery_specs(7, 20)[0],
    "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]",
    "lp:p=1.5,dim=2", "lp:p=1.5,dim=3",
    "polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]"],
    ids=["polygon0", "hexagon", "lp1.5-dim2", "lp1.5-dim3", "polyf-dim3"])
def test_witness_bits_reproduce_value(spec):
    """A reported witness carries the bits the engine evaluated its value
    from: the combine of the gauge of x + ty and x - ty, in one two-row
    call, is the value bit for bit, for the six pair constants, T, the
    sqrt2 residual, and gamma and rho at a fixed t != 1."""
    space = build_space(parse_space_spec(spec) if isinstance(spec, str) else spec)
    cfg = SearchConfig.for_dim(2) if space.dim == 2 else SearchConfig(grid_per_dim=8)
    cache = pair_table(space, cfg)
    pairs = constants.pair_constants(space, cfg, cache)
    combines = {key: fn for key, (fn, _, _) in constants._PAIR_SCANS.items()}
    combines.update(cnj=constants._cnj_combine, zbaganu=constants._zbaganu_combine)
    cases = [(est, combines[key], 1.0 if est.t is None else est.t) for key, est in pairs.items()]
    cases += [(constants.T_constant(space, cfg, cache=cache), constants.geom_mean, 1.0),
              (constants.sqrt2_pair_residual(space, cfg, cache=cache), constants.sqrt2_residual,
               1.0),
              (gamma(space, 0.5, cfg), constants._gamma_combine, 0.5),
              (constants.rho(space, 0.5, cfg), lambda a, b: (a + b) / 2.0 - 1.0, 0.5)]
    for est, combine, t in cases:
        a, b = np.asarray(space.gauge(np.stack([est.x + t * est.y, est.x - t * est.y])))
        value = combine(a, b) if est.t is None else combine(a, b, est.t)
        assert float(value) == est.value, (spec, combine)


def test_sphere_grid_2d_on_sphere(hexagon):
    g = sphere_grid(hexagon, 360)
    assert len(g.vectors) == 360
    norms = np.asarray(hexagon.gauge(g.vectors))
    assert np.abs(norms - 1.0).max() < 1e-12


def test_sphere_grid_3d_surface_only():
    sp = build_space(parse_space_spec("lp:p=2,dim=3"))
    g = sphere_grid(sp, 8)
    # Cube-surface lattice: (k+1)^3 - (k-1)^3 points.
    assert len(g.vectors) == 9 ** 3 - 7 ** 3
    assert np.abs(np.asarray(sp.gauge(g.vectors)) - 1.0).max() < 1e-12
    # All parameter rows touch the cube surface.
    assert (np.abs(g.params).max(axis=1) >= 1.0 - 1e-12).all()


@pytest.mark.parametrize("dim, grids", [(2, (8, 9, 720, 721)), (3, (3, 8, 9, 24)), (4, (3, 8))])
def test_sphere_grid_is_antipodal(dim, grids):
    """Every grid is H u -H: its second half holds the exact negations of
    its first, vectors and, in dim >= 3, parameters alike.  An odd 2D count
    is rounded up to even; in dim >= 3 the whole cube-surface lattice is
    kept."""
    sp = build_space(parse_space_spec(f"lp:p=1.5,dim={dim}"))
    for k in grids:
        g = sphere_grid(sp, k)
        n = len(g.vectors)
        assert n == (k + k % 2 if dim == 2 else (k + 1) ** dim - (k - 1) ** dim)
        assert np.array_equal(g.vectors[n // 2:], -g.vectors[:n // 2])
        if dim > 2:
            assert np.array_equal(g.params[n // 2:], -g.params[:n // 2])


@pytest.mark.parametrize("dim, largest", [(2, 2 ** 20), (3, 100), (4, 31), (6, 9), (7, 6)])
def test_sphere_grid_size_limit(dim, largest):
    """A grid lays out at most search.GRID_POINT_LIMIT points: the default
    grid of every dim up to 6 does, and one past the largest grid a
    dimension allows raises a ValueError that names that grid, before the
    lattice is built."""
    assert search.GRID_POINT_LIMIT == 2 ** 20
    if dim <= 6:
        search._check_grid_size(dim, SearchConfig.for_dim(dim).grid_per_dim)
    search._check_grid_size(dim, largest)
    below = ", below the smallest search grid (8)" if largest < 8 else ""
    message = f"the largest grid_per_dim dim {dim} allows is {largest}{below}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        sphere_grid(build_space(parse_space_spec(f"lp:p=1.5,dim={dim}")), largest + 1)


def test_sphere_grid_doubling_nests():
    sp = build_space(parse_space_spec("lp:p=1,dim=3"))
    coarse = sphere_grid(sp, 8)
    fine = sphere_grid(sp, 16)
    coarse_set = {tuple(p) for p in coarse.params}
    fine_set = {tuple(p) for p in fine.params}
    assert coarse_set <= fine_set   # exact float nesting, no tolerance


def test_lattice_edges(l2):
    # 2D: the ring of angles, the last edge across 2pi.
    tails, heads, axes = lattice_edges(sphere_grid(l2, 12))
    assert tails.tolist() == list(range(12))
    assert heads.tolist() == list(range(1, 12)) + [0]
    assert not axes.any()
    # dim 3: the +e_i neighbours of the cube-surface lattice, 12 k^2 edges,
    # both ends of each on one face.
    sp = build_space(parse_space_spec("lp:p=2,dim=3"))
    g = sphere_grid(sp, 8)
    tails, heads, axes = lattice_edges(g)
    assert len(tails) == 12 * 8 ** 2
    assert len(set(zip(tails.tolist(), heads.tolist()))) == len(tails)
    assert np.allclose(g.params[heads] - g.params[tails], g.step * np.eye(3)[axes],
                       rtol=0.0, atol=1e-12)
    lo, hi = g.params[tails], g.params[heads]
    assert ((np.abs(lo) == 1.0) & (lo == hi)).any(axis=1).all()


# --------------------------------------------------------------------------
# Known extrema
# --------------------------------------------------------------------------

# The l2 inner product <x, y> = (||x+y||^2 - ||x-y||^2) / 4: a smooth
# objective with known extrema on the l2 sphere.
scaled_inner_product = PairNormObjective(lambda a, b: (a * a - b * b) / 4.0)


def test_maximize_smooth_objective(l2):
    est = maximize_pair(l2, scaled_inner_product)
    assert est.value == pytest.approx(1.0, abs=1e-9)
    assert est.converged


def test_minimize_smooth_objective(l2):
    est = minimize_pair(l2, scaled_inner_product)
    assert est.value == pytest.approx(-1.0, abs=1e-9)


def test_pairnorm_sup_l2(l2):
    # sup ||x+y|| = 2 at x = y.
    obj = PairNormObjective(lambda a, b: a)
    est = maximize_pair(l2, obj)
    assert est.value == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(est.x, est.y, atol=1e-6)


def test_pairnorm_inf_with_exclusion(l2):
    # inf ||x+y|| over non-degenerate pairs approaches eta from above.
    obj = PairNormObjective(lambda a, b: a)
    eta = SearchConfig.for_dim(2).eta
    est = minimize_pair(l2, obj, exclude_degenerate=True)
    assert est.value >= eta - 1e-12
    assert est.value < 1e-2
    # The witness lies next to the excluded set x = -y.
    assert min(l2.norm(est.x + est.y), l2.norm(est.x - est.y)) < 10.0 * eta


def test_witnesses_on_sphere(battery_spaces):
    obj = PairNormObjective(lambda a, b: np.minimum(a, b))
    for sp in battery_spaces[:5]:
        est = maximize_pair(sp, obj)
        assert sp.norm(est.x) == pytest.approx(1.0, abs=1e-9)
        assert sp.norm(est.y) == pytest.approx(1.0, abs=1e-9)


def test_infsup_known_value(l2):
    # Parallelogram law pins a^2 + b^2 = 4, so sup_y sqrt(ab) = sqrt(2) at
    # a = b = sqrt(2), independently of x; the inf inherits sqrt(2).
    obj = PairNormObjective(lambda a, b: np.sqrt(a * b))
    est = infsup_pair(l2, obj)
    assert est.value == pytest.approx(math.sqrt(2.0), abs=1e-6)


# --------------------------------------------------------------------------
# Determinism and refinement
# --------------------------------------------------------------------------

def test_search_is_deterministic(hexagon):
    obj = PairNormObjective(lambda a, b: a, t=0.5)   # ||x + y/2||
    a = maximize_pair(hexagon, obj)
    b = maximize_pair(hexagon, obj)
    assert a.value == b.value
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert a.evaluations == b.evaluations


def test_polish_only_improves(hexagon):
    """The polished value dominates the raw grid scan at every grid size."""
    obj = PairNormObjective(lambda a, b: np.minimum(a, b))
    raw = maximize_pair(hexagon, obj,
                        SearchConfig(grid_per_dim=360, refine_iters=0, multistart=1))
    refined = maximize_pair(hexagon, obj, SearchConfig(grid_per_dim=360))
    assert refined.value >= raw.value - 1e-12


def test_grid_refinement_monotone(hexagon):
    obj = PairNormObjective(lambda a, b: np.minimum(a, b))
    vals = [maximize_pair(hexagon, obj,
                          SearchConfig(grid_per_dim=n, refine_iters=0, multistart=1)).value
            for n in (90, 180, 360, 720)]
    for coarse, fine in zip(vals, vals[1:]):
        assert fine >= coarse - 1e-12   # doubled 2D grids nest


@pytest.mark.parametrize("field, value, message", [
    ("grid_per_dim", 7, "grid_per_dim must be >= 8, got 7"),
    ("refine_iters", -1, "refine_iters must be >= 0, got -1"),
    ("multistart", 0, "multistart must be >= 1, got 0"),
    ("eta", 10.0, "eta must lie in (0, 1), got 10.0"),
], ids=["grid_per_dim", "refine_iters", "multistart", "eta"])
def test_search_config_rejects_out_of_range(field, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SearchConfig(**{field: value})


@pytest.mark.parametrize("shared", [True, False])
def test_infsup_all_pairs_masked_rejected(l2, shared):
    # Every pair scores NaN, so stage 1 has no admissible pair to start from.
    cfg = SearchConfig(grid_per_dim=90, refine_iters=4, multistart=2)
    obj = PairNormObjective(lambda a, b: np.full_like(a, np.nan))
    with pytest.raises(ValueError, match="the combine is NaN at every one"):
        infsup_pair(l2, obj, cfg, cache=pair_table(l2, cfg) if shared else None)


def test_evaluation_count_positive(l2):
    est = maximize_pair(l2, PairNormObjective(lambda a, b: a))
    assert est.evaluations > 720 * 720 / 2   # at least the half-grid scan


@pytest.mark.parametrize("spec, grid", [("lp:p=2,dim=2", 16), ("lp:p=2,dim=3", 4)])
def test_row_infimum_finds_known_minimum(spec, grid):
    """row_infimum's contract on a row function with a known inf: 1 - <x, u>
    over unit x of l2 is 0, at x = u.  The witness y is the row function's
    y at the reported x, and evaluations is the engine's row count: the rows
    of every row_fn call but the witness's."""
    space = build_space(parse_space_spec(spec))
    u = np.arange(1.0, space.dim + 1.0)
    u /= np.linalg.norm(u)
    calls = []

    def row_fn(X):
        calls.append(len(X))
        return 1.0 - X @ u, -X

    g = sphere_grid(space, grid)
    vals = row_fn(g.vectors)[0]
    starts = top_cells(vals, -1.0, 3)
    calls.clear()
    est = search.row_infimum(space, g, row_fn, starts, vals, SearchConfig(grid_per_dim=16))
    assert est.converged
    assert est.value == pytest.approx(0.0, abs=1e-15)
    assert est.value == pytest.approx(1.0 - est.x @ u, abs=1e-15)
    assert space.norm(est.x) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(est.x, u, atol=1e-6)
    assert np.array_equal(est.y, -est.x)
    assert calls[-1] == len(starts)   # the witness call: one row per start
    assert est.evaluations == sum(calls[:-1])


# --------------------------------------------------------------------------
# Pair table
# --------------------------------------------------------------------------

def _full_plus(table):
    """The n x n ||x+y|| of a pair table: its stored rows of H, then the
    rows of -H, those rows with their halves swapped."""
    return np.concatenate([table.plus, np.roll(table.plus, table.plus.shape[0], axis=1)])


def test_pair_table_values(l1):
    """The stored ||x+y|| and the ||x-y|| read from the antipodal rows match
    Space.norm, in every quadrant of H u -H."""
    cfg = SearchConfig(grid_per_dim=64)
    table = pair_table(l1, cfg)
    assert table is not None
    g = sphere_grid(l1, 64)
    plus, minus = _full_plus(table), table.minus
    for i, j in ((5, 41), (41, 5), (37, 60), (2, 3)):
        x, y = g.vectors[i], g.vectors[j]
        assert plus[i, j] == pytest.approx(l1.norm(x + y), abs=1e-14)
        assert minus[i, j] == pytest.approx(l1.norm(x - y), abs=1e-14)
        if i < 32:   # a row of H: its block's halves swapped are ||x-y||
            assert table.block(i, i + 1, 0)[0, ::-1].ravel()[j] == minus[i, j]


@pytest.mark.parametrize("spec, grid", [
    ("lp:p=1.5,dim=2", None), ("lp:p=1.5,dim=3", 12), ("hexagon", None), ("polygon0", None),
    ("polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]", 12)])
@pytest.mark.parametrize("chunk", _CHUNKS)
def test_pair_table_matches_direct_gauge(monkeypatch, spec, grid, chunk):
    """pair_table runs the gauge on the upper triangles of two quadrants of
    the rows of H and fills the rest of those rows by transposes; every
    entry, and every entry of the rows of -H built from them, equals a
    direct n x n gauge table bit for bit, so no transposed fill rounds
    apart.  The premise of storing the rows of H alone: the direct table's
    rows of -H are its rows of H with the halves swapped, bit for bit."""
    space = _space(spec)
    cfg = SearchConfig.for_dim(space.dim) if grid is None else SearchConfig(grid_per_dim=grid)
    monkeypatch.setattr(search, "CHUNK_PAIRS", chunk)
    table = pair_table(space, cfg)
    vectors = sphere_grid(space, cfg.grid_per_dim).vectors
    direct = _direct_pair_norms(space, vectors, vectors)[0]
    h = len(vectors) // 2
    assert np.array_equal(direct[h:], np.roll(direct[:h], h, axis=1))
    assert table.plus.shape == (h, 2 * h)
    assert np.array_equal(_full_plus(table), direct)


def test_pair_table_stores_half_n_squared_floats(l15):
    """The table stores ||x+y|| over the rows of H alone: n^2/2 floats in
    all its arrays."""
    table = pair_table(l15, SearchConfig(grid_per_dim=64))
    arrays = [getattr(table, f.name) for f in fields(table)]
    assert sum(a.size for a in arrays if isinstance(a, np.ndarray)) == 64 * 64 // 2


def test_pair_table_shared_results_match(l15):
    cfg = SearchConfig()
    table = pair_table(l15, cfg)
    obj = PairNormObjective(lambda a, b: np.minimum(a, b))
    with_cache = maximize_pair(l15, obj, cfg, cache=table)
    without = maximize_pair(l15, obj, cfg)
    assert with_cache.value == without.value
    assert np.array_equal(with_cache.x, without.x)


def test_dim3_table_and_walks_peak_memory():
    """The memory of `constants` in dim 3: on the default grid of lp1.5,
    the pair table, then t from it and gamma(0.5) from the gauge while it
    is held, peak below the table's n^2/2 floats plus 11 blocks of
    CHUNK_PAIRS floats (84.6 MB of 91.8 MB with numpy 2.4).  tracemalloc
    sees numpy's buffers.  A table of all n^2 floats goes over it."""
    space = build_space(parse_space_spec("lp:p=1.5,dim=3"))
    cfg = SearchConfig.for_dim(3)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        table = pair_table(space, cfg)
        constants.T_constant(space, cfg, cache=table)
        gamma(space, 0.5, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    n = len(table.grid.vectors)
    assert peak <= 8 * (n * n // 2 + 11 * search.CHUNK_PAIRS), peak / 1e6


def test_config_for_dim_defaults():
    assert SearchConfig.for_dim(2).grid_per_dim == 720
    assert SearchConfig.for_dim(3).grid_per_dim == 24
    cfg = SearchConfig.for_dim(2)
    assert [f.name for f in fields(cfg)] == ["grid_per_dim", "refine_iters", "multistart", "eta"]
    assert (cfg.refine_iters, cfg.multistart, cfg.eta) == (200, 16, 1e-6)


# --------------------------------------------------------------------------
# Block scan and start selection
# --------------------------------------------------------------------------

@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("count", [1, 4, 16])
def test_top_cells_matches_reference(sign, count):
    # Few distinct values and infinite cells, so most selections cut
    # through a tie.
    rng = np.random.default_rng(7)
    for _ in range(200):
        shape = (int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        v = rng.choice([-np.inf, 0.0, 0.5, 1.0, 2.0, np.inf], size=shape,
                       p=[0.25, 0.2, 0.2, 0.15, 0.1, 0.1])
        flat = v.ravel()
        expect = sorted(range(flat.size), key=lambda i: (-sign * flat[i], i))[:count]
        assert top_cells(v, sign, count).tolist() == expect
        # Candidates merged from several arrays break ties by their cell index.
        cells = rng.permutation(10 * flat.size)[:flat.size]
        expect = sorted(range(flat.size), key=lambda i: (-sign * flat[i], cells[i]))[:count]
        assert top_cells(flat, sign, count, cells).tolist() == expect


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("count", [1, 4, 16])
def test_top_cells_by_rows_matches_each_row(sign, count):
    """With axis=-1 each row along the last axis is picked as top_cells
    picks it alone, exact ties and given cells included."""
    rng = np.random.default_rng(11)
    for _ in range(100):
        shape = tuple(int(v) for v in rng.integers(1, 7, size=int(rng.integers(2, 4))))
        v = rng.choice([-np.inf, 0.0, 0.5, 1.0, 2.0, np.inf], size=shape,
                       p=[0.25, 0.2, 0.2, 0.15, 0.1, 0.1])
        cells = rng.permutation(10 * v.size)[:v.size].reshape(shape)
        got = top_cells(v, sign, count, axis=-1)
        got_cells = top_cells(v, sign, count, cells, axis=-1)
        assert got.shape == got_cells.shape == shape[:-1] + (min(count, shape[-1]),)
        for row in np.ndindex(shape[:-1]):
            assert got[row].tolist() == top_cells(v[row], sign, count).tolist()
            assert got_cells[row].tolist() == top_cells(v[row], sign, count, cells[row]).tolist()


_POLYF = "polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]"
_SHARED = [("lp:p=1.5,dim=2", 720), ("lp:p=2,dim=2", 720), ("hexagon", 720),
           ("polygon0", 720), ("lp:p=1.5,dim=3", 8), (_POLYF, 8)]


@pytest.mark.parametrize("spec, grid", _SHARED)
def test_top_cells_by_rows_on_sweep_values(spec, grid):
    """On the C_NJ/C_Z sweep's values, every t of a block picked at once
    equals the per-t loop, for the best cells and for the best of their
    mirror-class members (cells given).  l2 ties many cells exactly."""
    space = _space(spec)
    points = sphere_grid(space, max(48, grid // 8) if space.dim == 2 else min(grid, 8)).vectors
    m, ts = len(points), np.linspace(0.0, 1.0, constants._T_GRID)
    a, b = search.pair_norms(space, points[:m // 2], ts[:, None, None] * points)
    for fn in (constants._cnj_combine, constants._zbaganu_combine):
        vals = fn(a, b, ts[:, None, None]).reshape(len(ts), -1)
        idx = top_cells(vals, 1.0, 4, axis=-1)
        members = search.mirror_members(idx * len(ts) + np.arange(len(ts))[:, None], m, False,
                                        len(ts)).reshape(len(ts), -1)
        member_values = np.repeat(np.take_along_axis(vals, idx, axis=1), 2, axis=1)
        best = top_cells(member_values, 1.0, 4, members, axis=-1)
        for r in range(len(ts)):
            assert idx[r].tolist() == top_cells(vals[r], 1.0, 4).tolist()
            assert best[r].tolist() == top_cells(member_values[r], 1.0, 4, members[r]).tolist()


def test_scan_independent_of_block_size(monkeypatch):
    """Every grid walk goes through search.row_blocks; a block size that
    divides nothing evenly leaves every value, witness and evaluation count
    as it is, with and without a shared pair table.  It splits delta's
    boundary-solve grid stage into several blocks."""
    def row_blocks(n, swap):
        """search.row_blocks, counted by the calling function's name."""
        blocks = search.row_blocks(n, swap)
        walks.setdefault(sys._getframe(1).f_code.co_name, []).append(len(blocks))
        return blocks

    for spec, grid in (("lp:p=1.5,dim=2", 96), ("lp:p=1.5,dim=3", 8)):
        space = build_space(parse_space_spec(spec))
        cfg = SearchConfig(grid_per_dim=grid, refine_iters=40, multistart=4)

        def estimates():
            cache = pair_table(space, cfg)
            return [sp_constant(space, cfg, cache=cache), schaffer(space, cfg),
                    *t_and_T(space, cfg), delta(space, 1.0, cfg, cache=cache),
                    gamma(space, 0.5, cfg)]

        ref = estimates()
        walks = {}
        with monkeypatch.context() as m:
            m.setattr(search, "CHUNK_PAIRS", 997)
            m.setattr(constants, "row_blocks", row_blocks)
            blocks = estimates()
        assert min(walks["_delta_boundary"]) > 1, (spec, walks["_delta_boundary"])
        for a, b in zip(ref, blocks):
            assert (a.value, a.evaluations) == (b.value, b.evaluations)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        # delta needs no stored table.
        assert delta(space, 1.0, cfg).value == pytest.approx(ref[4].value, abs=1e-12)


def _direct_pair_norms(space, xs, ys):
    """||x+y|| and ||x-y|| of every pair, each by its own gauge call."""
    x, y = xs[..., :, None, :], ys[..., None, :, :]
    return np.asarray(space.gauge(x + y)), np.asarray(space.gauge(x - y))


def _full_values(space, grid, objective, exclude, eta, sign):
    """A full scan's (n, n) values of a fixed-t objective on grid, from
    direct gauge calls (excluded and NaN pairs scored -sign * inf), and the
    mask of those pairs."""
    plus, minus = _direct_pair_norms(space, grid.vectors, objective.t * grid.vectors)
    vals = np.asarray(objective(plus, minus), dtype=float)
    bad = np.isnan(vals)
    if exclude:
        bad |= (plus < eta) | (minus < eta)
    return np.where(bad, -sign * np.inf, vals), bad


def _reference_starts(space, grid, objective, cfg, mode, exclude):
    """The starts of a scan of every pair: top_cells on the full value
    array, then pick_starts.  Returns the start cells, their parameters and
    values and the evaluation count."""
    sign = 1.0 if mode == "sup" else -1.0
    vals, bad = _full_values(space, grid, objective, exclude, cfg.eta, sign)
    v = vals.ravel()
    best = top_cells(v, sign, cfg.multistart)
    starts, params, values = search.pick_starts(grid, best, v[best], sign, cfg.multistart,
                                                objective.t == 1.0)
    return starts, params, values, v.size - np.count_nonzero(bad)


def _reference_extremize(space, objectives, cfg, mode, *, exclude=False, cache=None):
    """search.extremize from a scan of every pair (_reference_starts)."""
    cfg = cfg or SearchConfig.for_dim(space.dim)
    grid = cache.grid if cache is not None else sphere_grid(space, cfg.grid_per_dim)
    starts, params, values, counts = zip(*[
        _reference_starts(space, grid, o, cfg, mode, exclude) for o in objectives])
    ests = refine_pairs(space, objectives, params, values, grid.step, cfg, mode,
                        evaluations=counts, exclude=exclude)
    return ests, list(starts)


def _reference_row_sups(space, objective, grid, cache, eta):
    """search._row_sups from a scan of every pair."""
    vals, bad = _full_values(space, grid, objective, False, eta, 1.0)
    return vals.max(axis=1), vals.size - np.count_nonzero(bad)


def _reference_sweep(space, fns, cfg):
    """constants._scaled_extremum from a scan of every (u, v, t) cell."""
    grid = sphere_grid(space, max(48, cfg.grid_per_dim // 8) if space.dim == 2
                       else min(cfg.grid_per_dim, 8))
    m, ts = len(grid.vectors), np.linspace(0.0, 1.0, constants._T_GRID)
    norms = [_direct_pair_norms(space, grid.vectors, t * grid.vectors) for t in ts]
    starts, start_values = [], []
    for fn in fns:
        cells, values = [], []
        for r, ((a, b), t) in enumerate(zip(norms, ts)):
            vals = fn(a, b, t)
            idx = top_cells(vals, 1.0, 4)
            cells.append(idx * len(ts) + r)
            values.append(vals.ravel()[idx])
        _, P, V = search.pick_starts(grid, np.concatenate(cells), np.concatenate(values), 1.0,
                                     cfg.multistart, False, ts)
        starts.append(P)
        start_values.append(V)
    return refine_pairs(space, [PairNormObjective(fn, t=None) for fn in fns], starts,
                        start_values, grid.step, cfg, "sup",
                        evaluations=[m * m * len(ts)] * len(fns), t_step=ts[1] - ts[0])


def _recording_engine(monkeypatch, starts):
    """Patch search.refine_starts to record the starts and values it gets."""
    engine = search.refine_starts

    def record(f, P, values, *args, **kwargs):
        starts.append((np.array(P), np.array(values)))
        return engine(f, P, values, *args, **kwargs)

    monkeypatch.setattr(search, "refine_starts", record)


def _assert_same_estimates(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert (a.value, a.evaluations, a.t, a.converged) == (b.value, b.evaluations, b.t,
                                                               b.converged)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def _assert_same_starts(got, ref):
    assert len(got) == len(ref)
    for (P, v), (Pr, vr) in zip(got, ref):
        assert np.array_equal(P, Pr) and np.array_equal(v, vr)


_SPECS = ["lp:p=1.5,dim=2", "lp:p=2,dim=2", "hexagon", "polygon0", "lp:p=1.5,dim=3"]
# (combine, mode, exclude): the t = 1 scans of pair_constants, T and the
# sqrt2 residual; a rounded sum, which ties many cells at the cut-off; and
# a fixed t != 1 combine that is not symmetric in the two norms.
_SCANS = [
    (PairNormObjective(constants.pair_cosine), "sup", True),
    (PairNormObjective(constants.min_norm), "sup", False),
    (PairNormObjective(constants.mean_square_quarter), "sup", False),
    (PairNormObjective(constants.max_norm), "inf", False),
    (PairNormObjective(constants.geom_mean), "sup", False),
    (PairNormObjective(constants.sqrt2_residual), "inf", False),
    (PairNormObjective(lambda a, b: np.round(a + b, 1)), "inf", False),
    (PairNormObjective(lambda a, b: np.round(a + b, 1)), "sup", False),
    (PairNormObjective(lambda a, b: a, t=0.5), "inf", False),
]


@pytest.mark.parametrize("spec", _SPECS)
@pytest.mark.parametrize("chunk", _CHUNKS)
def test_class_walk_matches_full_scan(monkeypatch, spec, chunk):
    """extremize scores one cell per mirror class and expands the best
    classes to their members; a reference that scores every cell of the
    n x n grid and runs top_cells, then pick_starts, on it gives the same
    start cells, the same starts and values handed to the engine, and the
    same estimates and evaluation counts, bit for bit, with the shared
    table and from the gauge.  So do t's grid row sups and the C_NJ/C_Z
    sweep, whose combines run on the rows of H."""
    space = _space(spec)
    cfg = SearchConfig(grid_per_dim=64 if space.dim == 2 else 8, refine_iters=20)
    table = pair_table(space, cfg)
    monkeypatch.setattr(search, "CHUNK_PAIRS", chunk)
    for objective, mode, exclude in _SCANS:
        for cache in (table, None):
            got_starts, ref_starts = [], []
            with monkeypatch.context() as m:
                _recording_engine(m, got_starts)
                got = search.extremize(space, [objective], cfg, mode, exclude=exclude,
                                       cache=cache)
            with monkeypatch.context() as m:
                _recording_engine(m, ref_starts)
                ref = _reference_extremize(space, [objective], cfg, mode, exclude=exclude,
                                           cache=cache)
            assert got[1][0].tolist() == ref[1][0].tolist(), (spec, mode, cache is None)
            _assert_same_starts(got_starts, ref_starts)
            _assert_same_estimates(got[0], ref[0])
        if not exclude:
            grid = table.grid
            for cache in (table, None):
                got_sups, got_count = search._row_sups(space, objective, grid, cache, cfg.eta)
                ref_sups, ref_count = _reference_row_sups(space, objective, grid, cache, cfg.eta)
                assert np.array_equal(got_sups, ref_sups) and got_count == ref_count
    fns = [constants._cnj_combine, constants._zbaganu_combine]
    _assert_same_estimates(constants._scaled_extremum(space, fns, cfg),
                           _reference_sweep(space, fns, cfg))


@pytest.mark.parametrize("n", [2, 8, 14])
def test_class_sizes_cover_the_grid(n):
    """class_sizes over the rows of H and every column: the classes' sizes
    add up to the n x n grid, and each class's lowest-index cell, the one
    a row_blocks block scores, carries the size of its class."""
    i, j = np.arange(n // 2)[:, None], np.arange(n)
    for swap in (False, True):
        sizes = search.class_sizes(i, j, n, swap)
        assert sizes.sum() == n * n
        cells = (i * n + j).ravel()
        members = search.mirror_members(cells, n, swap)
        lowest = members.min(axis=1) == cells
        distinct = [len(set(row)) for row in members.tolist()]
        assert np.array_equal(sizes.ravel(), np.where(lowest, distinct, 0))


@pytest.mark.parametrize("spec, grid", [("lp:p=1.5,dim=2", 48), ("lp:p=1.5,dim=3", 8),
                                        ("hexagon", 48), ("polygon0", 48)])
def test_half_grid_walks_match_full_scan(monkeypatch, spec, grid):
    """The grid walks call the gauge on x in H only and score one cell per
    mirror class.  A reference that scores every cell of the same H u -H
    grid, from every pair norm by its own gauge call (the table and t's row
    scans from direct gauge calls; search.extremize, t's grid row sups and
    the C_NJ/C_Z sweep replaced by full scans), gives the same starts,
    values, witnesses and evaluation counts of every constant that scans a
    grid, bit for bit, at the default block size and at 997 pairs per
    block."""
    space = _space(spec)
    cfg = SearchConfig(grid_per_dim=grid, refine_iters=20, multistart=4)

    def run(cache):
        starts = []
        with monkeypatch.context() as m:
            _recording_engine(m, starts)
            out = [search.extremize(space, [PairNormObjective(fn)], cfg, mode, exclude=exclude,
                                    cache=cache)
                   for fn, mode, exclude in ((constants.pair_cosine, "sup", True),
                                             (constants.min_norm, "sup", False),
                                             (constants.max_norm, "inf", False))]
            ests = [est for (est,), _ in out]
            ests += [infsup_pair(space, PairNormObjective(constants.geom_mean), cfg, cache=cache),
                     gamma(space, 0.5, cfg),
                     *constants._scaled_extremum(
                         space, [constants._cnj_combine, constants._zbaganu_combine], cfg)]
        return [cells for _, (cells,) in out], ests, starts

    with monkeypatch.context() as m:
        m.setattr(search, "pair_norms", _direct_pair_norms)
        for mod in (search, constants):
            m.setattr(mod, "extremize", _reference_extremize)
        m.setattr(search, "_row_sups", _reference_row_sups)
        m.setattr(constants, "_scaled_extremum", _reference_sweep)
        points = sphere_grid(space, cfg.grid_per_dim)
        plus = _direct_pair_norms(space, points.vectors, points.vectors)[0]
        ref = run(search.PairTable(points, plus[:len(plus) // 2]))
    for chunk in (search.CHUNK_PAIRS, 997):
        with monkeypatch.context() as m:
            m.setattr(search, "CHUNK_PAIRS", chunk)
            cells, ests, starts = run(pair_table(space, cfg))
        assert [c.tolist() for c in cells] == [c.tolist() for c in ref[0]]
        _assert_same_estimates(ests, ref[1])
        _assert_same_starts(starts, ref[2])


@pytest.mark.parametrize("spec, grid", [
    ("lp:p=1.5,dim=2", None), ("lp:p=1.5,dim=3", 12), ("hexagon", None), ("polygon0", None),
    ("polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]", 12)])
def test_geom_mean_rows_are_mirror_pairs(spec, grid):
    """The premise of infsup_pair's starts: on the H u -H grid, t's grid
    rows i and i + n/2 have the same sup, and each row's second half repeats
    its first, bit for bit, so each mirror pair is zoomed once."""
    space = build_space(battery_specs(7, 20)[0] if spec == "polygon0" else parse_space_spec(
        "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]"
        if spec == "hexagon" else spec))
    cfg = SearchConfig.for_dim(space.dim)
    if grid is not None:
        cfg = SearchConfig(grid_per_dim=grid)
    cache = pair_table(space, cfg)
    vals = constants.geom_mean(_full_plus(cache), cache.minus)
    h = len(vals) // 2
    sups = vals.max(axis=1)
    assert np.array_equal(sups[:h], sups[h:])
    assert np.array_equal(vals[:, :h], vals[:, h:])


def _space(spec):
    return build_space(battery_specs(7, 20)[0] if spec == "polygon0" else parse_space_spec(
        "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]"
        if spec == "hexagon" else spec))


@pytest.mark.parametrize("spec, grid", [
    ("lp:p=1.5,dim=2", None), ("hexagon", None), ("polygon0", None), ("lp:p=1.5,dim=3", 12)])
def test_mirror_class_members_tie(spec, grid):
    """The premise of the class walk and the zoom's mirror classes: cells
    (i, j) and (i + n/2, j + n/2) of the H u -H grid carry the same pair
    norms at any t, and at t = 1 so do (j, i) and (j + n/2, i + n/2), bit
    for bit, in the stored table and from direct gauge calls, for either
    pair norm alone.  So do the t-sweep cells (u, v, t) and (-u, -v, t) of
    C_NJ and C_Z, whose combines see the direct norms of the rows of H."""
    space = _space(spec)
    cfg = SearchConfig.for_dim(space.dim) if grid is None else SearchConfig(grid_per_dim=grid)
    cache = pair_table(space, cfg)
    vectors = cache.grid.vectors
    h = len(vectors) // 2
    for t, norms in ((1.0, (_full_plus(cache), cache.minus)),
                     (1.0, _direct_pair_norms(space, vectors, vectors)),
                     (0.5, _direct_pair_norms(space, vectors, 0.5 * vectors))):
        for V in norms:
            assert np.array_equal(V, np.roll(V, (h, h), axis=(0, 1))), t
            if t == 1.0:
                assert np.array_equal(V, V.T)
    sweep = []

    def record(a, b, t):
        if np.ndim(a) == 3:   # the sweep's (t, u, v) blocks, not the zoom's rows
            sweep.append((a.copy(), b.copy(), np.ravel(t)))
        return a

    constants._scaled_extremum(space, [record], SearchConfig(
        grid_per_dim=cfg.grid_per_dim, refine_iters=0))
    vectors = sphere_grid(space, max(48, cfg.grid_per_dim // 8) if space.dim == 2
                          else min(cfg.grid_per_dim, 8)).vectors
    h = len(vectors) // 2
    ts = np.concatenate([t for _, _, t in sweep])
    assert np.array_equal(ts, np.linspace(0.0, 1.0, constants._T_GRID))
    for a, b, t in sweep:
        direct = _direct_pair_norms(space, vectors, t[:, None, None] * vectors)
        for got, full in zip((a, b), direct):
            assert np.array_equal(got, full[:, :h])
            assert np.array_equal(full, np.roll(full, (h, h), axis=(1, 2)))


@pytest.mark.parametrize("spec", ["hexagon", "polygon0"])
@pytest.mark.parametrize("t", [1.0, 0.5])
@pytest.mark.parametrize("mode", ["sup", "inf"])
@pytest.mark.parametrize("multistart, refine_iters", [(16, 60), (48 * 48, 0)])
def test_mirror_classes_do_not_over_reduce(monkeypatch, spec, t, mode, multistart, refine_iters):
    """A combine that is not symmetric in the two norms (||x+ty|| alone)
    gives, within 1e-12, the estimate of a reference that zooms every top
    cell.  With every cell a start and no zoom levels, the estimate is the
    best start: a class that also held x -> -x, which swaps the two norms,
    would drop the best cell of the inf for a worse one."""
    space = _space(spec)
    cfg = SearchConfig(grid_per_dim=48, refine_iters=refine_iters, multistart=multistart)
    objective = PairNormObjective(lambda a, b: a, t=t)
    (est,), _ = search.extremize(space, [objective], cfg, mode)
    with monkeypatch.context() as m:
        m.setattr(search, "mirror_representatives", lambda cells, *args: np.arange(len(cells)))
        (ref,), _ = search.extremize(space, [objective], cfg, mode)
    assert est.value == pytest.approx(ref.value, rel=0.0, abs=1e-12)
    assert est.evaluations <= ref.evaluations


def test_no_start_errors_name_their_cause():
    """With the exclusion off eta plays no part, and the error names the
    combine: S_P's cosine is infinite at its best cells, which are pairs
    x = +-y rounded off.  Starts that the exclusion scored -inf name eta."""
    space = build_space(parse_space_spec("lp:p=1.5,dim=2"))
    cfg = SearchConfig(grid_per_dim=90, refine_iters=20, multistart=2)
    with pytest.raises(ValueError, match="the combine is NaN or infinite at the best grid pairs"):
        maximize_pair(space, PairNormObjective(constants.pair_cosine), cfg)
    objective, starts = PairNormObjective(constants.min_norm), np.zeros((2, 2))
    for exclude, cause in ((True, "eta is too large for this grid"),
                           (False, "the combine is NaN or infinite")):
        with pytest.raises(ValueError, match=cause):
            refine_pairs(space, [objective], [starts], [np.full(2, -np.inf)], 0.1, cfg, "sup",
                         evaluations=[0], exclude=exclude)


def test_no_start_error_survives_pickle():
    """A worker process sends the error back pickled: its class, group and
    message must come through."""
    space = build_space(parse_space_spec("lp:p=1.5,dim=2"))
    cfg = SearchConfig(grid_per_dim=90, refine_iters=20, multistart=2)
    objective, starts = PairNormObjective(constants.min_norm), np.zeros((2, 2))
    with pytest.raises(search.NoStartError) as caught:
        refine_pairs(space, [objective, objective], [starts, starts],
                     [np.zeros(2), np.full(2, -np.inf)], 0.1, cfg, "sup",
                     evaluations=[0, 0], exclude=False)
    error = pickle.loads(pickle.dumps(caught.value))
    assert type(error) is search.NoStartError
    assert (error.group, str(error)) == (1, str(caught.value))


def test_output_independent_of_numpy_dispatch():
    """Start selection depends on values alone, and the polygon gauge rounds
    alike at every numpy dispatch level, so the printed constants do too."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy < 2
        from numpy.core import _multiarray_umath as umath
    features = list(getattr(umath, "__cpu_dispatch__", []))
    if not features:
        pytest.skip("numpy exposes no dispatch list")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "normgeo.cli", "constants", "--space",
            "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]",
            "--grid", "180"]

    def run(extra):
        out = subprocess.run(argv, env={**env, **extra}, capture_output=True, text=True,
                             check=True).stdout
        return [line for line in out.splitlines() if "seconds" not in line]

    assert run({}) == run({"NPY_DISABLE_CPU_FEATURES": " ".join(features)})


# --------------------------------------------------------------------------
# Lockstep lattice zoom
# --------------------------------------------------------------------------

def _zoom(f, p, val, h, lattice, sign, budget):
    """Reference lattice zoom of one start on plain floats, written
    independently of refine_starts: at most budget levels, each of which
    moves to the first best lattice point if it beats the current value, and
    halves h unless it beats it by more than 2^-48 * max(1, |its value|),
    until h < 1e-12.  Returns p, val, converged and the number of levels."""
    levels = 0
    while levels < budget and h >= 1e-12:
        points = [tuple(pi + h * oi for pi, oi in zip(p, off)) for off in lattice]
        values = [sign * f(q) for q in points]
        j = max(range(len(points)), key=lambda i: values[i])   # the first among equals
        if values[j] - sign * val <= 2.0 ** -48 * max(1.0, abs(values[j])):
            h *= 0.5
        if values[j] > sign * val:
            p, val = points[j], sign * values[j]
        levels += 1
    return p, val, h < 1e-12, levels


def _bowl(p):
    """Concave quadratic on (..., 2) points, flat for p0 > 3; each value
    from its own point only."""
    x, y = p[..., 0], p[..., 1]
    return np.where(x > 3.0, 0.0, -(x - 0.3) * (x - 0.3) - 2.0 * (y + 0.1) * (y + 0.1)
                    + 0.5 * x * y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-4.0, 2.5), st.floats(-4.0, 4.0)), max_size=5),
       st.floats(0.05, 1.0), st.integers(0, 60), st.sampled_from([1.0, -1.0]),
       st.sampled_from([box_lattice(1, 2), box_lattice(3, 2), axis_lattice(2)]))
def test_refine_starts_matches_single_start_zoom(extra, h, budget, sign, lattice):
    # Maximizing, start 0 sits on the plateau, which lies above the whole
    # bowl, so it halves h at every level and stops converged within 40
    # levels; minimizing, start 1 runs down the bowl until the budget stops it.
    starts = np.array([(5.0, 0.0), (-3.0, 3.0)] + list(extra))
    cfg = SearchConfig(refine_iters=budget)
    f0 = _bowl(starts)
    calls = []

    def f_batch(pts):
        calls.append(pts.shape)
        return _bowl(pts)

    P, vals, conv, (best,), (count,) = refine_starts(f_batch, starts, f0, h, lattice, sign, cfg)
    levels = []
    for i, start in enumerate(starts):
        pi, vi, ci, li = _zoom(lambda q: float(_bowl(np.array(q))), tuple(start),
                               float(f0[i]), h, lattice, sign, budget)
        assert tuple(P[i]) == pi
        assert vals[i] == vi and conv[i] == ci
        levels.append(li)
    # Every level evaluates every start's whole lattice, then one call
    # re-evaluates the zoomed points.
    assert calls == [(len(starts), len(lattice), 2)] * max(levels) + [(len(starts), 1, 2)]
    assert count == len(starts) * (max(levels) * len(lattice) + 1)
    assert best == min(range(len(starts)), key=lambda i: (-sign * vals[i], tuple(P[i])))
    if sign > 0 and budget >= 40:
        assert conv[0] and levels[0] <= 40
    if sign < 0:
        assert not conv[1] and levels[1] == budget


def test_refine_starts_groups_match_separate_calls():
    """With groups, each group's points, values, flags, winner and count
    are those of a call with its starts alone.  Group 0, on the plateau
    alone, stops at another level than the others."""
    starts = np.vstack([[(5.0, 0.0)], np.random.default_rng(7).uniform(-4.0, 2.5, (7, 2))])
    groups = np.array([0, 1, 1, 2, 2, 2, 1, 2])
    cfg = SearchConfig(refine_iters=200)
    lattice = box_lattice(1, 2)
    P, vals, conv, best, count = refine_starts(_bowl, starts, _bowl(starts), 0.5, lattice,
                                               1.0, cfg, groups=groups)
    for g in range(3):
        idx = np.flatnonzero(groups == g)
        Pg, vg, cg, (bg,), (ng,) = refine_starts(_bowl, starts[idx], _bowl(starts[idx]), 0.5,
                                                 lattice, 1.0, cfg)
        assert np.array_equal(P[idx], Pg) and np.array_equal(vals[idx], vg)
        assert np.array_equal(conv[idx], cg)
        assert (best[g], count[g]) == (idx[bg], ng)
    assert len(set(count // np.bincount(groups))) > 1   # levels per start


@pytest.mark.parametrize("exclude", [False, True])
def test_refine_pairs_lockstep_matches_each_start_alone(monkeypatch, exclude):
    """On a 2D lp gauge, which rounds each point alike in any batch, each of
    16 starts zoomed in lockstep reaches the point, value and converged flag
    it reaches when zoomed alone, bit for bit, although x and y of all
    starts share one sphere-point gauge call and the starts stop at
    different times.  Stopped starts stay in the call until all have
    stopped, so the lockstep count is that of the longest run for every
    start."""
    space = build_space(parse_space_spec("lp:p=1.5,dim=2"))
    cfg = SearchConfig(grid_per_dim=96)
    grid = sphere_grid(space, cfg.grid_per_dim)
    objective = PairNormObjective(lambda a, b: np.minimum(a, b))
    i, j = np.random.default_rng(5).integers(0, len(grid.params), (2, 16))
    starts = np.hstack([grid.params[i], grid.params[j]])
    x, y = grid.vectors[i], grid.vectors[j]
    values = np.minimum(space.gauge(x + y), space.gauge(x - y))
    runs = []
    engine = search.refine_starts
    lattice = len(box_lattice(3, 2))

    def record(*args, **kwargs):
        runs.append(engine(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(search, "refine_starts", record)
    (batch,) = refine_pairs(space, [objective], [starts], [values], grid.step, cfg, "sup",
                            evaluations=[0], exclude=exclude)
    for k in range(16):
        refine_pairs(space, [objective], [starts[k:k + 1]], [values[k:k + 1]], grid.step, cfg,
                     "sup", evaluations=[0], exclude=exclude)
    (P, vals, conv, (best,), (count,)), alone = runs[0], runs[1:]
    for k, (Pk, vk, ck, _, _) in enumerate(alone):
        assert np.array_equal(P[k], Pk[0]) and vals[k] == vk[0] and conv[k] == ck[0]
    # Each run ends with one re-evaluation.
    levels = [(run[4][0] - 1) // lattice for run in alone]
    assert count == 16 * (max(levels) * lattice + 1)
    assert len(set(levels)) > 1   # the starts stop at different times
    win = min(range(16), key=lambda k: (-vals[k], tuple(P[k])))
    assert best == win and batch.value == vals[win]


def test_refine_starts_signs_per_start_match_separate_calls():
    """One call holding a maximized and two minimized groups, one sign per
    start, gives each group the points, values, flags, winner and count of
    a call with its starts and its sign alone."""
    starts = np.vstack([[(5.0, 0.0)], np.random.default_rng(7).uniform(-4.0, 2.5, (7, 2))])
    groups = np.array([0, 1, 1, 2, 2, 2, 1, 2])
    signs = np.array([1.0, -1.0, -1.0])
    cfg = SearchConfig(refine_iters=60)
    lattice = box_lattice(1, 2)
    P, vals, conv, best, count = refine_starts(_bowl, starts, _bowl(starts), 0.5, lattice,
                                               signs[groups], cfg, groups=groups)
    for g in range(3):
        idx = np.flatnonzero(groups == g)
        Pg, vg, cg, (bg,), (ng,) = refine_starts(_bowl, starts[idx], _bowl(starts[idx]), 0.5,
                                                 lattice, signs[g], cfg)
        assert np.array_equal(P[idx], Pg) and np.array_equal(vals[idx], vg)
        assert np.array_equal(conv[idx], cg)
        assert (best[g], count[g]) == (idx[bg], ng)
    assert conv[0] and not conv[1:].any()


def _direct_batch(space, groups, sizes, eta, ts, params):
    """search._pair_batch's values, every point of params mapped to its
    unit vectors on its own: one sphere_points call per half, one gauge
    call per pair norm, each group scored by its own combine."""
    k = 1 if space.dim == 2 else space.dim
    rows = params.reshape(-1, params.shape[-1])
    x, y = sphere_points(space, rows[:, :k]), sphere_points(space, rows[:, k:2 * k])
    search_t = groups[0][0].t is None
    t = rows[:, 2 * k] if search_t else np.repeat(ts, params.shape[1])
    a = np.asarray(space.gauge(x + t[:, None] * y))
    b = np.asarray(space.gauge(x - t[:, None] * y))
    out = np.empty(len(rows))
    start = 0
    for (objective, sign, exclude), size in zip(groups, sizes):
        r = slice(start * params.shape[1], (start + size) * params.shape[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            v = objective.fn(a[r], b[r], t[r]) if search_t else objective.fn(a[r], b[r])
        worst = np.isnan(v)
        if exclude:
            worst |= (a[r] < eta) | (b[r] < eta)
        if search_t:
            worst |= (t[r] < 0.0) | (t[r] > 1.0)
        out[r] = np.where(worst, -sign * np.inf, v)
        start += size
    return out.reshape(params.shape[:-1])


@pytest.mark.parametrize("spec, grid", _SHARED)
def test_pair_batch_matches_direct_evaluation(spec, grid):
    """The zoom evaluator maps each distinct first and second point of a
    start's lattice to a unit vector once; its values on the lattice around
    every start, and on the starts alone, equal an evaluation of every
    point on its own, bit for bit, for groups that differ in combine, mode,
    exclusion and fixed t, and for groups that search t (lattice points
    outside [0, 1] included)."""
    space = _space(spec)
    points = sphere_grid(space, grid)
    k = points.params.shape[1]
    rng = np.random.default_rng(3)
    fixed = [(PairNormObjective(constants.pair_cosine), 1.0, True),
             (PairNormObjective(constants.max_norm), -1.0, False),
             (PairNormObjective(lambda a, b: a - b, t=0.5), -1.0, False)]
    searched = [(PairNormObjective(constants._cnj_combine, t=None), 1.0, False),
                (PairNormObjective(constants._zbaganu_combine, t=None), 1.0, False)]
    for groups in (fixed, searched):
        search_t = groups[0][0].t is None
        sizes = [3, 1, 4][:len(groups)]
        i, j = rng.integers(0, len(points.params), (2, sum(sizes)))
        P = np.hstack([points.params[i], points.params[j]]
                      + ([rng.choice([0.0, 0.5, 1.0], (sum(sizes), 1))] if search_t else []))
        if space.dim == 2:
            lattice = box_lattice(2 if search_t else 3, 2 + search_t)
        else:
            lattice = axis_lattice(2 * k + search_t)
        ts = None if search_t else np.repeat([o.t for o, _, _ in groups], sizes)
        f = search._pair_batch(space, groups, sizes, 1e-6, ts)
        for params in (P[:, None, :] + 0.01 * lattice, P[:, None, :]):
            assert np.array_equal(f(params), _direct_batch(space, groups, sizes, 1e-6, ts, params))

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normgeo import search
from normgeo.constants import delta, gamma, schaffer, sp_constant, t_and_T
from normgeo.search import (ConstantEstimate, PairNormObjective, SearchConfig,
                            infsup_pair, maximize_pair, minimize_pair, pair_table,
                            refine_pairs, sphere_grid, sphere_point, top_cells,
                            _INVPHI, _LINE_EVALS, _polish_batch)
from normgeo.spaces import build_space, parse_space_spec

TWO_PI = 2.0 * math.pi


# --------------------------------------------------------------------------
# Sphere parameterization
# --------------------------------------------------------------------------

def test_sphere_point_2d_angle(l1):
    v = sphere_point(l1, math.pi / 4.0)
    assert l1.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert v[0] == pytest.approx(v[1])


def test_sphere_point_direction_any_dim():
    sp = build_space(parse_space_spec("lp:p=2,dim=3"))
    v = sphere_point(sp, [1.0, 1.0, 1.0])
    assert sp.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_sphere_point_rejects_zero(l2):
    with pytest.raises(ValueError):
        sphere_point(l2, [0.0, 0.0])


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


def test_sphere_grid_doubling_nests():
    sp = build_space(parse_space_spec("lp:p=1,dim=3"))
    coarse = sphere_grid(sp, 8)
    fine = sphere_grid(sp, 16)
    coarse_set = {tuple(p) for p in coarse.params}
    fine_set = {tuple(p) for p in fine.params}
    assert coarse_set <= fine_set   # exact float nesting, no tolerance


# --------------------------------------------------------------------------
# Known extrema
# --------------------------------------------------------------------------

def scaled_inner_product(x, y):
    # Smooth non-pairnorm objective with known extrema on the l2 sphere.
    return (np.asarray(x) * np.asarray(y)).sum(axis=-1)


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
    est = minimize_pair(l2, obj, exclude_degenerate=True)
    assert est.value >= est.config.eta - 1e-12
    assert est.value < 1e-2
    assert est.near_exclusion


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
    obj = lambda x, y: np.asarray(hexagon.gauge(x + 0.5 * y))
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


def test_eta_too_large_rejected(l2):
    obj = PairNormObjective(lambda a, b: a)
    with pytest.raises(ValueError):
        maximize_pair(l2, obj, SearchConfig(eta=10.0), exclude_degenerate=True)


@pytest.mark.parametrize("shared", [True, False])
def test_infsup_all_pairs_masked_rejected(l2, shared):
    # Every pair scores NaN, so stage 1 has no admissible pair to start from.
    cfg = SearchConfig(grid_per_dim=90, refine_iters=4, multistart=2)
    obj = PairNormObjective(lambda a, b: np.full_like(a, np.nan))
    with pytest.raises(ValueError):
        infsup_pair(l2, obj, cfg, cache=pair_table(l2, cfg) if shared else None)


def test_evaluation_count_positive(l2):
    est = maximize_pair(l2, PairNormObjective(lambda a, b: a))
    assert est.evaluations > 720 * 720 / 2   # at least the half-grid scan


# --------------------------------------------------------------------------
# Pair table
# --------------------------------------------------------------------------

def test_pair_table_values(l1):
    cfg = SearchConfig(grid_per_dim=64)
    table = pair_table(l1, cfg)
    assert table is not None
    g = sphere_grid(l1, 64)
    i, j = 5, 41
    assert table.plus[i, j] == pytest.approx(l1.norm(g.vectors[i] + g.vectors[j]), abs=1e-14)
    assert table.minus[i, j] == pytest.approx(l1.norm(g.vectors[i] - g.vectors[j]), abs=1e-14)


def test_pair_table_shared_results_match(l15):
    cfg = SearchConfig()
    table = pair_table(l15, cfg)
    obj = PairNormObjective(lambda a, b: np.minimum(a, b))
    with_cache = maximize_pair(l15, obj, cfg, cache=table)
    without = maximize_pair(l15, obj, cfg)
    assert with_cache.value == without.value
    assert np.array_equal(with_cache.x, without.x)


def test_config_for_dim_defaults():
    assert SearchConfig.for_dim(2).grid_per_dim == 720
    assert SearchConfig.for_dim(3).grid_per_dim == 24
    cfg = SearchConfig.for_dim(2)
    assert (cfg.refine_iters, cfg.multistart, cfg.tol, cfg.eta) == \
        (200, 16, 1e-9, 1e-6)


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


def test_scan_independent_of_block_size(monkeypatch):
    """The grid scan walks its rows in blocks; a block size that divides
    nothing evenly leaves every value, witness and evaluation count as it is,
    with and without a shared pair table."""
    for spec, grid in (("lp:p=1.5,dim=2", 96), ("lp:p=1.5,dim=3", 8)):
        space = build_space(parse_space_spec(spec))
        cfg = SearchConfig(grid_per_dim=grid, refine_iters=40, multistart=4)

        def estimates():
            cache = pair_table(space, cfg)
            return [sp_constant(space, cfg, cache=cache), schaffer(space, cfg),
                    *t_and_T(space, cfg), delta(space, 1.0, cfg, cache=cache),
                    gamma(space, 0.5, cfg)]

        ref = estimates()
        with monkeypatch.context() as m:
            m.setattr(search, "CHUNK_PAIRS", 997)
            blocks = estimates()
        for a, b in zip(ref, blocks):
            assert (a.value, a.evaluations) == (b.value, b.evaluations)
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        # delta needs no stored table.
        assert delta(space, 1.0, cfg).value == pytest.approx(ref[4].value, abs=1e-12)


def test_cell_scan_independent_of_cell_order(monkeypatch):
    """minimize_cells picks its starts by value, then by flat index, however
    the given cells are ordered and split into chunks: every cell, shuffled,
    gives the full scan's starts and estimate.  The rounded objective ties
    many cells at the cut-off value."""
    space = build_space(parse_space_spec("lp:p=1.5,dim=2"))
    cfg = SearchConfig(grid_per_dim=96, refine_iters=40, multistart=4)
    cache = pair_table(space, cfg)
    objective = PairNormObjective(lambda a, b: np.round(a + b, 1))
    ref, ref_starts = search.minimize_cells(space, objective, cfg, cache)
    cells = np.random.default_rng(3).permutation(cache.minus.size).astype(np.int32)
    with monkeypatch.context() as m:
        m.setattr(search, "CHUNK_PAIRS", 997)
        est, starts = search.minimize_cells(space, objective, cfg, cache, cells)
    assert starts.tolist() == ref_starts.tolist()
    assert (est.value, est.evaluations) == (ref.value, ref.evaluations)
    assert np.array_equal(est.x, ref.x) and np.array_equal(est.y, ref.y)


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
# Lockstep polish
# --------------------------------------------------------------------------

def _golden_line(f, p, dvec, w, sign, best_val, counter):
    """Reference line search along p + s*dvec for s in [-w, w], one start on
    plain floats; improves sign*f and keeps the incoming point on ties."""
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
    """Reference cyclic direction-set golden-section refinement of one
    start, written independently of _polish_batch.  Returns p, val,
    converged."""
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


def _bowl(p):
    """Concave quadratic on (m, 2) points, flat for p0 > 3."""
    x, y = p[:, 0], p[:, 1]
    return np.where(x > 3.0, 0.0, -(x - 0.3) ** 2 - 2.0 * (y + 0.1) ** 2 + 0.5 * x * y)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-4.0, 2.5), st.floats(-4.0, 4.0)), max_size=5),
       st.floats(0.05, 1.0), st.integers(0, 11), st.sampled_from([1.0, -1.0]))
def test_polish_batch_matches_polish(extra, step, budget, sign):
    # Start 0 sits on the plateau and converges after one cycle; start 1
    # climbs a steep slope with a tiny bracket, so only the budget stops it.
    starts = np.array([(5.0, 0.0), (-3.0, 3.0)] + list(extra))
    cfg = SearchConfig(refine_iters=budget, tol=1e-6)
    directions = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, -1.0])]
    widths = [step, 0.5 * step, 1e-3 if sign > 0 else step]
    f0 = _bowl(starts)
    counts = np.zeros(len(starts), dtype=int)

    def f_batch(pts, rows):
        np.add.at(counts, rows, 1)
        return _bowl(pts)

    total = [0]
    p, val, conv = _polish_batch(f_batch, starts, f0, widths, sign, cfg, directions, total)
    assert total[0] == counts.sum()
    for i, start in enumerate(starts):
        own = [0]
        pi, vi, ci = _polish(lambda q: float(_bowl(q[None, :])[0]), start, float(f0[i]),
                             widths, sign, cfg, directions, own)
        assert np.array_equal(p[i], pi)
        assert val[i] == vi and conv[i] == ci and counts[i] == own[0]
    if budget >= len(directions):
        assert conv[0] and counts[0] == 24 * len(directions)
    if sign > 0:
        assert not conv[1] and counts[1] == 24 * budget


@pytest.mark.parametrize("exclude", [False, True])
def test_refine_pairs_lockstep_matches_each_start_alone(monkeypatch, exclude):
    """On a 2D lp gauge, which rounds each point alike in any batch, each of
    16 starts refined in lockstep reaches the point, value and converged
    flag it reaches when refined alone, bit for bit, although x and y of all
    active starts share one sphere-point gauge call and the starts stop at
    different times."""
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

    def record(*args, **kwargs):
        runs.append(engine(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(search, "refine_starts", record)
    batch = refine_pairs(space, objective, starts, values, grid.step, cfg, "sup",
                         exclude=exclude)
    for k in range(16):
        refine_pairs(space, objective, starts[k:k + 1], values[k:k + 1], grid.step, cfg,
                     "sup", exclude=exclude)
    (P, vals, conv, best, count), alone = runs[0], runs[1:]
    for k, (Pk, vk, ck, _, _) in enumerate(alone):
        assert np.array_equal(P[k], Pk[0]) and vals[k] == vk[0] and conv[k] == ck[0]
    assert count == sum(run[4] for run in alone)
    assert len({run[4] for run in alone}) > 1   # the starts stop at different times
    win = max(range(16), key=lambda k: (vals[k], -k))
    assert best == win and batch.value == vals[win]

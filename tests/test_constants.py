"""Constant computations: frozen reference values, invariants, validation.

Frozen numbers in this file were produced by two independent routes before
being recorded here: a refinement-free dense-grid scan at >= 10^4 points per
angle, and the multistart optimizer itself.  Closed-form values (powers of
two, golden-ratio expressions, inner-product formulas) are written as the
exact expression so the intent stays visible.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normgeo import constants as con, search
from normgeo.search import SearchConfig, pair_table
from normgeo.spaces import _convex_hull_2d, battery_specs, build_space, parse_space_spec

SQRT2 = math.sqrt(2.0)


# Battery polygon #0 (battery_specs(7, 20)[0]) at full precision.
POLYGON0 = ("polyv:v=[[0.7858313674021201,-0.5921664096036845],"
            "[0.14413548292338202,-0.8899193478079512],"
            "[0.13757045672648927,0.8785065645059619],"
            "[-0.272598308979969,0.8340155750102037],"
            "[0.681661001281639,-0.6936632744049768],"
            "[1.0017230951406,0.03323057755708036],"
            "[0.4436434705169979,-0.9259553524937753],"
            "[0.3627237032597195,-1.1938642851048182]]")
HEXAGON = "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]"


def _dense_inner_sup(space, x, starts=24):
    """sup over unit y of sqrt(||x+y|| ||x-y||), independently of search.py:
    a 20,000-angle grid in 2D or the surface of a cube grid of 60 in dim 3,
    then a compass search from each of its best local maxima, on the angle
    in 2D and in the tangent plane of the start in dim 3."""
    def value(d):
        y = d / np.asarray(space.gauge(d))[..., None]
        return np.sqrt(np.asarray(space.gauge(x + y)) * np.asarray(space.gauge(x - y)))

    if space.dim == 2:
        theta = 2.0 * np.pi * np.arange(20_000) / 20_000
        vals = value(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        peak = (vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1))
        idx = np.flatnonzero(peak)
        idx = idx[np.argsort(-vals[idx], kind="stable")[:starts]]
        u = theta[idx][:, None]
        step = 2.0 * np.pi / 20_000

        def at(u):
            return value(np.stack([np.cos(u[..., 0]), np.sin(u[..., 0])], axis=-1))
        moves = np.array([[-1.0], [1.0]])
    else:
        k = 60
        axis = -1.0 + 2.0 * np.arange(k + 1) / k
        pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        pts = pts[np.abs(pts).max(axis=1) >= 1.0 - 1e-12]
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        vals = value(pts)
        idx = np.argsort(-vals, kind="stable")[:8 * starts]
        origin = pts[idx]
        # Orthonormal tangent frame at each start.
        e1 = np.cross(origin, np.where(np.abs(origin[:, :1]) < 0.9, [[1.0, 0, 0]], [[0, 1.0, 0]]))
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        e2 = np.cross(origin, e1)
        u = np.zeros((len(origin), 2))
        step = 2.0 / k

        def at(u):
            return value(origin[:, None, :] + u[..., :1] * e1[:, None, :]
                         + u[..., 1:] * e2[:, None, :])
        moves = np.array([[a, b] for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)
                          if a or b])
    best = at(u[:, None, :])[:, 0]
    step = np.full(len(u), step)
    while step.max() > 1e-15:
        cand = u[:, None, :] + step[:, None, None] * moves
        v = at(cand)
        j = v.argmax(axis=1)
        gain = v[np.arange(len(u)), j] > best
        u[gain] = cand[gain, j[gain]]
        best = np.maximum(best, v.max(axis=1))
        step[~gain] /= 2.0
    return float(best.max())


@pytest.fixture(scope="module")
def l3():
    return build_space(parse_space_spec("lp:p=3,dim=2"))


@pytest.fixture(scope="module")
def l2_3d():
    return build_space(parse_space_spec("lp:p=2,dim=3"))


@pytest.fixture(scope="module")
def l15_3d():
    return build_space(parse_space_spec("lp:p=1.5,dim=3"))


@pytest.fixture(scope="module")
def all_consts(l1, l2, linf, l15, hexagon):
    """compute_all on the five reference spaces, shared by the value tests."""
    spaces = {"l1": l1, "l2": l2, "linf": linf, "l15": l15, "hex": hexagon}
    return {k: con.compute_all(s) for k, s in spaces.items()}


# --------------------------------------------------------------------------
# P-angle cosine
# --------------------------------------------------------------------------

class TestCosAngP:
    def test_orthogonal_euclidean_pair(self, l2):
        # (1+1-2)/(2*1*1) = 0 for perpendicular unit vectors.
        assert con.cos_ang_p(l2, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_equal_vectors(self, l2):
        assert con.cos_ang_p(l2, [0.3, 0.4], [0.3, 0.4]) == pytest.approx(1.0, abs=1e-12)

    def test_opposite_vectors(self, l1):
        assert con.cos_ang_p(l1, [1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_vector_rejected(self, l2):
        with pytest.raises(ValueError):
            con.cos_ang_p(l2, [0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError):
            con.cos_ang_p(l2, [1.0, 0.0], [0.0, 0.0])

    @given(ux=st.floats(-2, 2), uy=st.floats(-2, 2),
           vx=st.floats(-2, 2), vy=st.floats(-2, 2))
    @settings(max_examples=80, deadline=None)
    def test_bounded_by_one(self, l1, l2, hexagon, ux, uy, vx, vy):
        # The guard keeps the norm ratio moderate; extreme ratios amplify
        # rounding in the numerator beyond the 1e-12 headroom.
        u, v = np.array([ux, uy]), np.array([vx, vy])
        for space in (l1, l2, hexagon):
            if space.gauge(u) < 1e-2 or space.gauge(v) < 1e-2:
                continue
            assert abs(con.cos_ang_p(space, u, v)) <= 1.0 + 1e-12

    @given(ux=st.floats(-2, 2), uy=st.floats(-2, 2),
           vx=st.floats(-2, 2), vy=st.floats(-2, 2),
           lam=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    @settings(max_examples=60, deadline=None)
    def test_scaling_invariance_exact(self, l1, l2, linf, hexagon, ux, uy, vx, vy, lam):
        # Power-of-two scales evaluate exactly in these gauges, so the cosine
        # must reproduce bit-for-bit.
        u, v = np.array([ux, uy]), np.array([vx, vy])
        for space in (l1, l2, linf, hexagon):
            if space.gauge(u) < 1e-2 or space.gauge(v) < 1e-2:
                continue
            base = con.cos_ang_p(space, u, v)
            assert con.cos_ang_p(space, lam * u, lam * v) == base

    @given(lam=st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_scaling_invariance_general(self, l15, lam):
        u, v = np.array([0.8, -0.3]), np.array([0.2, 0.9])
        base = con.cos_ang_p(l15, u, v)
        assert con.cos_ang_p(l15, lam * u, lam * v) == pytest.approx(base, abs=1e-12)


# --------------------------------------------------------------------------
# Sphere-pair constants: frozen values
# --------------------------------------------------------------------------

class TestPairConstantValues:
    def test_sp_hilbert_is_zero(self, all_consts, l2_3d):
        assert abs(all_consts["l2"]["sp"].value) <= 1e-6
        assert abs(con.sp_constant(l2_3d).value) <= 1e-6

    def test_sp_l1_linf_half(self, all_consts):
        assert all_consts["l1"]["sp"].value == pytest.approx(0.5, abs=1e-6)
        assert all_consts["linf"]["sp"].value == pytest.approx(0.5, abs=1e-6)

    def test_sp_lp_lower_bound(self, all_consts, l3):
        # 1 - 2^(-|2/p - 1|) is attained-or-exceeded for every p.
        for key, p, sp in [("l15", 1.5, all_consts["l15"]["sp"].value),
                           ("l3", 3.0, con.sp_constant(l3).value)]:
            bound = 1.0 - 2.0 ** (-abs(2.0 / p - 1.0))
            assert sp >= bound - 1e-6, key
            # Dense-grid scans at 10^4 points per angle land on the bound
            # itself for these two exponents.
            assert sp == pytest.approx(bound, abs=1e-6)

    def test_sp_hexagon(self, all_consts):
        assert all_consts["hex"]["sp"].value == pytest.approx(0.25, abs=1e-6)

    def test_james_values(self, all_consts, l3):
        assert all_consts["l2"]["james"].value == pytest.approx(SQRT2, abs=1e-4)
        assert all_consts["l1"]["james"].value == pytest.approx(2.0, abs=1e-6)
        assert all_consts["hex"]["james"].value == pytest.approx(1.5, abs=1e-6)
        for space_james, p in [(all_consts["l15"]["james"].value, 1.5),
                               (con.james(l3).value, 3.0)]:
            expect = max(2.0 ** (1.0 / p), 2.0 ** (1.0 - 1.0 / p))
            assert space_james == pytest.approx(expect, abs=1e-3)

    @pytest.mark.parametrize("p", [150.0, 400.0, 1e6])
    def test_james_large_p(self, p):
        # J = 2^(1 - 1/p) for p >= 2; at these p many power sums underflow
        # and the gauge takes its scaled form.
        space = build_space(parse_space_spec(f"lp:p={p!r},dim=2"))
        assert con.james(space).value == pytest.approx(2.0 ** (1.0 - 1.0 / p), abs=1e-9)

    def test_schaffer_values(self, all_consts):
        assert all_consts["l2"]["schaffer"].value == pytest.approx(SQRT2, abs=1e-4)
        assert all_consts["l1"]["schaffer"].value == pytest.approx(1.0, abs=1e-4)
        assert all_consts["hex"]["schaffer"].value == pytest.approx(4.0 / 3.0, abs=1e-6)
        assert all_consts["l15"]["schaffer"].value == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-6)

    def test_schaffer_james_identity(self, all_consts):
        for key, ests in all_consts.items():
            prod = ests["schaffer"].value * ests["james"].value
            assert prod == pytest.approx(2.0, abs=1e-3), key

    def test_cnj_prime_values(self, all_consts):
        assert all_consts["l2"]["cnj_prime"].value == pytest.approx(1.0, abs=1e-6)
        assert all_consts["l1"]["cnj_prime"].value == pytest.approx(2.0, abs=1e-6)
        assert all_consts["hex"]["cnj_prime"].value == pytest.approx(1.25, abs=1e-6)
        assert all_consts["l15"]["cnj_prime"].value == pytest.approx(
            2.0 ** (1.0 / 3.0), abs=1e-6)

    def test_cnj_prime_dominates_half_james_squared(self, all_consts):
        for key, ests in all_consts.items():
            j = ests["james"].value
            assert ests["cnj_prime"].value >= j * j / 2.0 - 1e-6, key

    def test_sqrt2_pair_residual_vanishes(self, l1, l2, l15, hexagon):
        for space in (l1, l2, l15, hexagon):
            assert con.sqrt2_pair_residual(space).value <= 1e-8

    def test_t_and_T_values(self, all_consts):
        assert all_consts["l2"]["t"].value == pytest.approx(SQRT2, abs=1e-4)
        assert all_consts["l2"]["T"].value == pytest.approx(SQRT2, abs=1e-4)
        assert all_consts["l1"]["t"].value == pytest.approx(SQRT2, abs=1e-4)
        assert all_consts["l1"]["T"].value == pytest.approx(2.0, abs=1e-4)
        # Hexagon: inf-sup sits at 1 + 1/sqrt(5), the sup at the James value.
        assert all_consts["hex"]["t"].value == pytest.approx(
            1.0 + 1.0 / math.sqrt(5.0), abs=1e-6)
        assert all_consts["hex"]["T"].value == pytest.approx(1.5, abs=1e-6)
        assert all_consts["l15"]["T"].value == pytest.approx(2.0 ** (2.0 / 3.0), abs=1e-6)
        # The inf-sup dips below sqrt(2) on smooth strictly convex balls: at
        # the diagonal direction of this one, a 2e5-point dense scan confirms
        # the inner supremum tops out near 1.2837.
        assert all_consts["l15"]["t"].value == pytest.approx(1.2836760322, abs=1e-6)

    # t at the default config as it was when each mirror pair of outer starts
    # and of inner starts was zoomed twice (16 outer starts, 4 inner starts
    # per row over all of H u -H): battery_specs(7, 20), then the hexagon,
    # lp1.5 and lp1.5 in dim 3.  Zooming each pair once must not move them.
    PINNED_T = [
        1.333216148346108, 1.276459683337194, 1.3110738242036044, 1.3506099267061349,
        1.4044984130218898, 1.252683574691575, 1.3274867155158891, 1.331597991074179,
        1.3599424862998124, 1.3358084383865516, 1.3569291421412177, 1.3062614301957638,
        1.3760531811269536, 1.3359142854910513, 1.2949466600177788, 1.2782929068514768,
        1.3863062143418143, 1.2659891743770366, 1.3405227598537073, 1.3752043744140245,
        1.4472135955000278, 1.283676032238388, 1.3864252741685013,
    ]

    def test_t_matches_pinned_values(self, battery_t_and_T, all_consts, l15_3d):
        got = [t.value for t, _ in battery_t_and_T[:20]]
        got += [all_consts["hex"]["t"].value, all_consts["l15"]["t"].value,
                search.infsup_pair(l15_3d, search.PairNormObjective(con.geom_mean)).value]
        for i, (g, w) in enumerate(zip(got, self.PINNED_T, strict=True)):
            assert g == pytest.approx(w, abs=1e-12), i

    def test_t_and_T_euclidean_3d(self, l2_3d):
        # dim 3 runs the inf-sup polish in lockstep; every inner sup of the
        # Euclidean ball is sqrt(2).
        t, T = con.t_and_T(l2_3d, SearchConfig(grid_per_dim=12))
        assert t.value == pytest.approx(SQRT2, abs=1e-9)
        assert T.value == pytest.approx(SQRT2, abs=1e-9)

    @pytest.mark.parametrize("spec, grid", [
        (POLYGON0, None), (HEXAGON, None), ("lp:p=1.5,dim=2", None),
        ("lp:p=1.5,dim=3", 8)])
    def test_t_witness_is_the_inner_sup(self, spec, grid):
        # t is a sup over y at the reported x, so an independent dense inner
        # sup there may not exceed it.  Polygon #0 has four tied grid peaks in
        # the inner problem, one of them sharp.
        space = build_space(parse_space_spec(spec))
        cfg = SearchConfig.for_dim(space.dim)
        if grid is not None:
            cfg = replace(cfg, grid_per_dim=grid)
        t = search.infsup_pair(space, search.PairNormObjective(con.geom_mean), cfg)
        assert _dense_inner_sup(space, t.x) <= t.value + 1e-12
        a, b = space.gauge(np.stack([t.x + t.y, t.x - t.y]))
        assert math.sqrt(a * b) == pytest.approx(t.value, abs=1e-12)

    def test_t_independent_of_grid_3d(self):
        space = build_space(parse_space_spec("lp:p=1.5,dim=3"))
        t8, t12 = (con.t_and_T(space, SearchConfig(grid_per_dim=g))[0].value for g in (8, 12))
        assert t8 == pytest.approx(t12, abs=1e-10)

    def test_t_and_T_universal_bounds(self, all_consts):
        # Decomposing 2x as (x+y) + (x-y) forces max(a, b) >= 1 wherever
        # a = b, so the inner sup never drops below 1; the sqrt(2) floor
        # belongs to T (it is inherited from the exact-pair existence), not
        # to t, which sinks lower on smooth balls.
        for key, ests in all_consts.items():
            t, T = ests["t"].value, ests["T"].value
            assert 1.0 - 1e-6 <= t <= T <= 2.0 + 1e-6, key
            assert T >= SQRT2 - 1e-3, key


# --------------------------------------------------------------------------
# Ratio constants
# --------------------------------------------------------------------------

def _direct_ratio_oracle(space, n_angle=720, n_t=51):
    """Dense-grid sup of the two norm-ratio quotients over all nonzero pairs.

    Parameterizes x = u, y = t*v with u, v on the unit sphere and t in [0,1];
    homogeneity plus the symmetric angle sweep covers every length ratio.
    Deliberately refinement-free: an independent check on the reduction used
    by cnj()/zbaganu().
    """
    ang = 2.0 * np.pi * np.arange(n_angle) / n_angle
    dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    radius = np.asarray(space.gauge(dirs), dtype=float)
    U = dirs / radius[:, None]
    best_nj, best_z = 1.0, 0.0
    for t in np.linspace(0.0, 1.0, n_t):
        plus = np.asarray(space.gauge(U[:, None, :] + t * U[None, :, :]), dtype=float)
        minus = np.asarray(space.gauge(U[:, None, :] - t * U[None, :, :]), dtype=float)
        denom = 1.0 + t * t
        best_nj = max(best_nj, float(((plus ** 2 + minus ** 2) / (2.0 * denom)).max()))
        best_z = max(best_z, float((plus * minus / denom).max()))
    return best_nj, best_z


class TestRatioConstants:
    def test_cnj_values(self, all_consts):
        assert all_consts["l2"]["cnj"].value == pytest.approx(1.0, abs=1e-6)
        assert all_consts["l1"]["cnj"].value == pytest.approx(2.0, abs=1e-4)
        assert all_consts["hex"]["cnj"].value == pytest.approx(
            (3.0 + math.sqrt(5.0)) / 4.0, abs=1e-6)

    def test_cnj_at_least_one(self, all_consts):
        for key, ests in all_consts.items():
            assert ests["cnj"].value >= 1.0 - 1e-6, key

    def test_zbaganu_values(self, all_consts):
        assert all_consts["l2"]["zbaganu"].value == pytest.approx(1.0, abs=1e-4)
        assert all_consts["l1"]["zbaganu"].value == pytest.approx(2.0, abs=1e-4)
        assert all_consts["hex"]["zbaganu"].value == pytest.approx(1.25, abs=1e-6)

    def test_zbaganu_below_cnj(self, all_consts):
        for key, ests in all_consts.items():
            assert ests["zbaganu"].value <= ests["cnj"].value + 1e-6, key

    @pytest.mark.parametrize("spec", ["lp:p=1.5,dim=2", HEXAGON])
    def test_one_sweep_matches_separate_calls(self, spec):
        # pair_constants takes C_NJ and C_Z from one t-sweep.
        space = build_space(parse_space_spec(spec))
        found = con.pair_constants(space, SearchConfig.for_dim(2), None)
        pair = found["cnj"], found["zbaganu"]
        for one, alone in zip(pair, (con.cnj(space), con.zbaganu(space))):
            assert (one.value, one.t, one.evaluations) == (alone.value, alone.t, alone.evaluations)
            assert np.array_equal(one.x, alone.x) and np.array_equal(one.y, alone.y)

    def test_reduction_matches_direct_oracle(self, l1, l2, hexagon, all_consts):
        # The sphere-pair-and-ratio reduction must reproduce the unreduced
        # four-parameter supremum on spaces with very different geometry.
        # The hexagon extrema sit on multiples of 30 degrees, so the coarser
        # sweep still nails them while keeping the facet-wise gauge affordable.
        for key, space, n in [("l1", l1, 720), ("l2", l2, 720),
                              ("hex", hexagon, 360)]:
            direct_nj, direct_z = _direct_ratio_oracle(space, n_angle=n)
            assert all_consts[key]["cnj"].value == pytest.approx(
                direct_nj, abs=1e-3), key
            assert all_consts[key]["zbaganu"].value == pytest.approx(
                direct_z, abs=1e-3), key


# --------------------------------------------------------------------------
# gamma / rho moduli
# --------------------------------------------------------------------------

class TestGammaRho:
    def test_gamma_at_zero_is_exactly_one(self, l15, hexagon):
        assert con.gamma(l15, 0.0).value == 1.0
        assert con.gamma(hexagon, 0.0).value == 1.0

    def test_gamma_hilbert_closed_form(self, l2):
        assert con.gamma(l2, 0.7).value == pytest.approx(1.49, abs=1e-6)

    def test_gamma_l1_closed_form(self, l1):
        # (1+t)^2, attained by the coordinate pair.
        assert con.gamma(l1, 0.5).value == pytest.approx(2.25, abs=1e-6)

    def test_gamma_frozen_values(self, l15, hexagon):
        assert con.gamma(hexagon, 0.5).value == pytest.approx(13.0 / 8.0, abs=1e-6)
        assert con.gamma(hexagon, 1.0).value == pytest.approx(2.5, abs=1e-6)
        assert con.gamma(l15, 0.5).value == pytest.approx(1.4972713738789867, abs=1e-6)
        assert con.gamma(l15, 1.0).value == pytest.approx(
            2.0 * 2.0 ** (1.0 / 3.0), abs=1e-6)

    def test_gamma_at_one_doubles_cnj_prime(self, hexagon, l15, all_consts):
        # Both sides are the same supremum up to the factor 2.
        for key, space in [("hex", hexagon), ("l15", l15)]:
            assert con.gamma(space, 1.0).value == pytest.approx(
                2.0 * all_consts[key]["cnj_prime"].value, abs=1e-6)

    @given(t=st.floats(0.05, 1.0))
    @settings(max_examples=10, deadline=None)
    def test_gamma_lower_bound_property(self, l15, t):
        assert con.gamma(l15, t).value >= 1.0 + t * t - 1e-6

    def test_gamma_lower_bound_polygon(self, hexagon):
        for t in (0.3, 0.9):
            assert con.gamma(hexagon, t).value >= 1.0 + t * t - 1e-6

    def test_gamma_range_validation(self, l2):
        with pytest.raises(ValueError):
            con.gamma(l2, -0.1)
        with pytest.raises(ValueError):
            con.gamma(l2, 1.1)

    @pytest.mark.parametrize("spec", ["lp:p=1.5,dim=2", HEXAGON, POLYGON0, "lp:p=1.5,dim=3",
                                      "polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],"
                                      "[0,1,-1]]"])
    def test_gamma_profile_is_gamma_on_the_reduced_grid(self, spec):
        """gamma_profile zooms every t in one lockstep call; each estimate is
        gamma's on the reduced grid with four starts, bit for bit, count
        included, although the t's stop at different levels."""
        space = build_space(parse_space_spec(spec))
        cfg = SearchConfig.for_dim(space.dim)
        reduced = replace(cfg, grid_per_dim=min(cfg.grid_per_dim, 180 if space.dim == 2 else 8),
                          multistart=4)
        ts = [i / 10.0 for i in range(11)]
        for t, est in zip(ts, con.gamma_profile(space, ts, cfg)):
            ref = con.gamma(space, t, reduced)
            assert (est.value, est.converged, est.evaluations, est.t) == (
                ref.value, ref.converged, ref.evaluations, t if t else None), t
            assert np.array_equal(est.x, ref.x) and np.array_equal(est.y, ref.y), t
        with pytest.raises(ValueError):
            con.gamma_profile(space, [0.5, 1.1], cfg)

    def test_rho_at_zero_is_exactly_zero(self, l15):
        assert con.rho(l15, 0.0).value == 0.0

    def test_rho_l1_equals_t(self, l1):
        assert con.rho(l1, 0.8).value == pytest.approx(0.8, abs=1e-6)

    def test_rho_hilbert_closed_form(self, l2):
        assert con.rho(l2, 1.0).value == pytest.approx(SQRT2 - 1.0, abs=1e-6)

    def test_rho_hexagon_frozen(self, hexagon):
        # Attained by adjacent hull corners: the sum norm reaches 2 while the
        # difference norm stays 1.
        assert con.rho(hexagon, 1.0).value == pytest.approx(0.5, abs=1e-6)

    def test_rho_range_property(self, l15, hexagon):
        for space in (l15, hexagon):
            for t in (0.4, 1.0, 1.7):
                v = con.rho(space, t).value
                assert max(0.0, t - 1.0) - 1e-6 <= v <= t + 1e-6

    def test_rho_negative_t_rejected(self, l2):
        with pytest.raises(ValueError):
            con.rho(l2, -0.5)


# --------------------------------------------------------------------------
# Modulus of convexity and its characteristic
# --------------------------------------------------------------------------

class TestDelta:
    def test_zero_eps_exact(self, l2, hexagon):
        assert con.delta(l2, 0.0).value == 0.0
        assert con.delta(hexagon, 0.0).value == 0.0

    def test_hilbert_closed_form(self, l2):
        for eps in (0.5, 1.0, 1.5):
            expect = 1.0 - math.sqrt(1.0 - eps * eps / 4.0)
            assert con.delta(l2, eps).value == pytest.approx(expect, abs=1e-5)
        assert con.delta(l2, 1.0).value == pytest.approx(
            1.0 - math.sqrt(3.0) / 2.0, abs=1e-6)

    def test_l1_flat(self, l1):
        assert con.delta(l1, 1.5).value == pytest.approx(0.0, abs=1e-6)

    def test_l15_frozen_values(self, l15):
        # Dense-grid cross-checks sit a few 1e-6 higher (the grid quantizes
        # the constraint boundary); the two in-package solvers agree to 1e-12.
        assert con.delta(l15, 0.5).value == pytest.approx(0.015878505546, abs=1e-6)
        assert con.delta(l15, 1.0).value == pytest.approx(0.067122610329, abs=1e-6)
        assert con.delta(l15, 1.5).value == pytest.approx(0.173757880699, abs=1e-6)

    def test_hexagon_witness_feasible(self, hexagon):
        # delta(1.5) = 1/4 on the regular hexagon; the boundary solve must
        # not undercut it with a pair just inside ||x-y|| >= 1.5.
        est = con.delta(hexagon, 1.5)
        assert est.value == pytest.approx(0.25, abs=1e-12)
        assert hexagon.norm(est.x - est.y) >= 1.5 - 1e-12

    def test_hexagon_flat_until_characteristic(self, hexagon):
        assert abs(con.delta(hexagon, 0.5).value) <= 1e-9
        assert abs(con.delta(hexagon, 1.0).value) <= 1e-9
        assert con.delta(hexagon, 1.2).value > 1e-3

    def test_delta_at_two(self, l2, l1):
        # y = -x forces the midpoint to the origin in any strictly convex
        # norm; l1 admits flat pairs all the way out.
        assert con.delta(l2, 2.0).value == 1.0
        assert con.delta(l1, 2.0).value == 0.0

    def test_monotone_in_eps(self, l15, hexagon):
        for space in (l15, hexagon):
            cfg = SearchConfig.for_dim(space.dim)
            values = [con.delta(space, e, cfg).value
                      for e in np.arange(0.0, 2.01, 0.25)]
            for lo_v, hi_v in zip(values, values[1:]):
                assert hi_v >= lo_v - 1e-7

    def test_boundary_polish_counts_each_probe_once(self, l15, l15_3d):
        # One zoom level probes the 2k lattice points +-h e_i of every start,
        # k = 1 angle in 2D and k = dim direction coordinates in dim >= 3,
        # and each probe is one evaluation of the boundary objective.
        for space, grid in ((l15, 64), (l15_3d, 8)):
            k = 1 if space.dim == 2 else space.dim
            base = SearchConfig(grid_per_dim=grid, refine_iters=0, multistart=4)
            none = con._delta_boundary(space, 1.0, base).evaluations
            for levels in (1, 2, 5):
                est = con._delta_boundary(space, 1.0, replace(base, refine_iters=levels))
                assert est.evaluations - none == 2 * k * levels * base.multistart

    def test_eps_range_validation(self, l2):
        with pytest.raises(ValueError):
            con.delta(l2, -0.1)
        with pytest.raises(ValueError):
            con.delta(l2, 2.1)


def _assert_eps0_witness(space, est):
    """The witness of eps0 spans a segment of length eps0 in the sphere."""
    assert space.norm(est.x - est.y) == pytest.approx(est.value, abs=1e-12)
    assert 1.0 - space.norm(est.x + est.y) / 2.0 <= 1e-15


def _assert_delta2_witness(space, est):
    assert space.norm(est.x - est.y) >= 2.0 - 1e-12
    assert 1.0 - space.norm(est.x + est.y) / 2.0 == pytest.approx(est.value, abs=1e-12)


class TestEps0:
    def test_hilbert_zero(self, all_consts):
        assert all_consts["l2"]["eps0"].value == 0.0

    def test_l1_two(self, all_consts):
        assert all_consts["l1"]["eps0"].value == 2.0

    def test_uniformly_convex_near_zero(self, all_consts):
        assert all_consts["l15"]["eps0"].value == 0.0

    def test_hexagon_exactly_one(self, all_consts):
        # The longest segment in the sphere is an edge of the hexagon.
        assert all_consts["hex"]["eps0"].value == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("spec, value", [
        *((f"lp:p={p},dim={d}", 2.0 if p == 1 else 0.0) for p in (1, 1.5, 3, 40) for d in (2, 3)),
        *((f"wlp:p={p},w={w}", 2.0 if p == 1 else 0.0) for p in (1, 1.5)
          for w in ("[0.5,3]", "[0.5,3,7]")),
        ("linf:dim=2", 2.0), ("linf:dim=3", 2.0),
        # The CI polytope, the cube and the octahedron.
        ("polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]", 2.0),
        ("polyf:f=[[1,0,0],[0,1,0],[0,0,1]]", 2.0),
        ("polyf:f=[[1,1,1],[1,1,-1],[1,-1,1],[-1,1,1]]", 2.0)])
    def test_closed_forms(self, spec, value):
        """eps0 and delta(2) = 1 - eps0/2 exactly, from no search, with
        witnesses that show both values."""
        space = build_space(parse_space_spec(spec))
        est, d2 = con.eps0(space), con.delta(space, 2.0)
        assert (est.value, est.converged, est.evaluations) == (value, True, 0)
        assert d2.value == 1.0 - value / 2.0
        _assert_eps0_witness(space, est)
        _assert_delta2_witness(space, d2)

    @pytest.mark.parametrize("spec", [parse_space_spec(HEXAGON), *battery_specs(7, 20)],
                             ids=["hexagon", *(f"battery{i}" for i in range(20))])
    def test_polygon_is_longest_edge(self, spec):
        """On a polygon, 1 - ||x+y||/2 = 0 exactly when x and y lie on one
        edge of the unit sphere, so eps0 is L, the longest edge of the
        symmetric hull in the polygon's own norm; the witness is a pair that
        shows the value."""
        space = build_space(spec)
        v = np.asarray(spec.vertices)
        hull = _convex_hull_2d(np.concatenate([v, -v]))
        L = max(space.norm(b - a) for a, b in zip(hull, np.roll(hull, -1, axis=0)))
        est = con.eps0(space)
        assert abs(est.value - L) <= 1e-12
        _assert_eps0_witness(space, est)


# --------------------------------------------------------------------------
# dim 3: the lockstep polish of every constant
# --------------------------------------------------------------------------

class TestEuclidean3D:
    """Closed forms on lp:p=2,dim=3, where no float closure exists and every
    multistart polish runs in lockstep."""

    cfg = SearchConfig(grid_per_dim=8)

    def test_cnj_and_zbaganu_are_one(self, l2_3d):
        assert con.cnj(l2_3d, self.cfg).value == pytest.approx(1.0, abs=1e-6)
        assert con.zbaganu(l2_3d, self.cfg).value == pytest.approx(1.0, abs=1e-6)

    def test_gamma_closed_form(self, l2_3d):
        assert con.gamma(l2_3d, 0.5, self.cfg).value == pytest.approx(1.25, abs=1e-6)
        ts = (0.25, 0.5, 1.0)
        for t, est in zip(ts, con.gamma_profile(l2_3d, ts, self.cfg)):
            assert est.t == t
            assert est.value == pytest.approx(1.0 + t * t, abs=1e-6)

    def test_rho_closed_form(self, l2_3d):
        assert con.rho(l2_3d, 1.0, self.cfg).value == pytest.approx(SQRT2 - 1.0, abs=1e-6)

    def test_eps0_near_zero(self, l2_3d):
        assert con.eps0(l2_3d, self.cfg).value == 0.0

    def test_delta_eq_closed_form(self, l2_3d):
        # The boundary solve alone: bisection along the +-e_i edges of the
        # cube-surface lattice, then the zoom of the first point.
        for eps in (1.0, 1.5):
            est = con._delta_boundary(l2_3d, eps, self.cfg)
            assert est.value == pytest.approx(1.0 - math.sqrt(1.0 - eps * eps / 4.0), abs=1e-9)
            assert l2_3d.norm(est.x) == pytest.approx(1.0, abs=1e-9)
            assert l2_3d.norm(est.y) == pytest.approx(1.0, abs=1e-9)
            assert eps - 1e-12 <= l2_3d.norm(est.x - est.y) <= eps + 1e-8


def _hanner_delta(p: float, eps: float) -> float:
    """Hanner's modulus of lp, 1 < p <= 2, in any dim >= 2: the root d of
    (1 - d + eps/2)^p + |1 - d - eps/2|^p = 2, by bisection on [0, 1]."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        d = 0.5 * (lo + hi)
        if (1.0 - d + eps / 2.0) ** p + abs(1.0 - d - eps / 2.0) ** p > 2.0:
            lo = d
        else:
            hi = d
    return 0.5 * (lo + hi)


class TestDelta3D:
    """delta on lp^3 at the default config against the closed forms of
    delta, which hold in every dim >= 2: Hanner's for p = 1.5 and
    Clarkson's 1 - (1 - (eps/2)^p)^(1/p) for p = 3."""

    EPS = (0.5, 1.0, 1.5)
    CLOSED_FORMS = {"lp:p=1.5,dim=3": lambda e: _hanner_delta(1.5, e),
                    "lp:p=3,dim=3": lambda e: 1.0 - (1.0 - (e / 2.0) ** 3) ** (1.0 / 3.0)}

    @pytest.fixture(scope="class")
    def estimates(self):
        out = {}
        for spec in self.CLOSED_FORMS:
            space = build_space(parse_space_spec(spec))
            cfg = SearchConfig.for_dim(space.dim)
            for eps in self.EPS:
                out[spec, eps] = space, con.delta(space, eps, cfg)
        return out

    def test_closed_forms(self, estimates):
        for (spec, eps), (_, est) in estimates.items():
            expect = self.CLOSED_FORMS[spec](eps)
            assert est.value == pytest.approx(expect, abs=1e-9), (spec, eps)

    def test_witnesses_unit_and_feasible(self, estimates):
        for (spec, eps), (space, est) in estimates.items():
            assert space.norm(est.x) == pytest.approx(1.0, abs=1e-9)
            assert space.norm(est.y) == pytest.approx(1.0, abs=1e-9)
            dist = space.norm(est.x - est.y)
            assert eps - 1e-12 <= dist <= eps + 1e-8, (spec, eps)


# --------------------------------------------------------------------------
# Weighted lp: an isometric image of lp, so lp is its referee
# --------------------------------------------------------------------------

_WLP_CFG = SearchConfig(grid_per_dim=120, refine_iters=60, multistart=4)


@pytest.mark.parametrize("spec", ["wlp:p=1.5,w=[3e-308,1]", "wlp:p=40,w=[1e-100,1]",
                                  "wlp:p=2,w=[1e-26,1e-284]", "wlp:p=1.5,w=[1,9]"])
def test_weighted_lp_matches_lp(spec):
    """The grid is built in lp's coordinates, so however uneven the weights
    every constant is the same-p lp's.  Not tighter than 1e-8: l2's flat S_P
    reads about 4e-10 at this config."""
    space = build_space(parse_space_spec(spec))
    lp = build_space(parse_space_spec(f"lp:p={space.spec.p!r},dim=2"))
    got, want = con.compute_all(space, _WLP_CFG), con.compute_all(lp, _WLP_CFG)
    assert list(got) == list(want)
    for key in got:
        assert got[key].value == pytest.approx(want[key].value, abs=1e-8), key


@pytest.mark.parametrize("spec", ["wlp:p=1.5,w=[1e308,1e308]", "wlp:p=1.5,w=[5e-324,5e-324]",
                                  "wlp:p=1.5,w=[1,1e-320]"])
def test_extreme_weights_match_lp(spec):
    """Weights at both ends of the float range, whose gauge factors
    w^(1/p) and scales w^(-1/p) are normal floats, build and give lp1.5's
    pair constants."""
    cfg = SearchConfig(grid_per_dim=180)
    got, want = (con.pair_constants(space, cfg, pair_table(space, cfg))
                 for space in (build_space(parse_space_spec(spec)),
                               build_space(parse_space_spec("lp:p=1.5,dim=2"))))
    assert list(got) == list(want)
    for key in got:
        assert got[key].value == pytest.approx(want[key].value, rel=0.0, abs=1e-12), key


_FUZZ_CFG = SearchConfig(grid_per_dim=48, refine_iters=40, multistart=2)
_EXPONENT = st.floats(-300.0, 300.0)


@st.composite
def _norm_specs(draw):
    p = draw(st.one_of(st.sampled_from([1.0, 2.0, 1e3]), st.floats(1.0, 1e3)))
    family = draw(st.sampled_from(["lp", "linf", "wlp"]))
    if family == "lp":
        return f"lp:p={p!r},dim=2"
    if family == "linf":
        return "linf:dim=2"
    return f"wlp:p={p!r},w=[{10.0 ** draw(_EXPONENT)!r},{10.0 ** draw(_EXPONENT)!r}]"


@settings(max_examples=30, deadline=None)
@given(_norm_specs())
def test_spec_grammar_fuzz(text):
    """Every spec either exits 2 (ValueError from parsing or building) or
    gives finite pair constants in the proven ranges 0 <= S_P <= 1/2 and
    sqrt(2) <= J <= 2; weighted lp also reads lp's S_P."""
    try:
        space = build_space(parse_space_spec(text))
    except ValueError:
        return
    est = con.pair_constants(space, _FUZZ_CFG, pair_table(space, _FUZZ_CFG))
    assert all(math.isfinite(e.value) for e in est.values()), text
    assert -1e-9 <= est["sp"].value <= 0.5 + 1e-9, text
    assert SQRT2 - 1e-9 <= est["james"].value <= 2.0 + 1e-9, text
    if space.spec.family == "weighted-lp":
        lp = build_space(parse_space_spec(f"lp:p={space.spec.p!r},dim=2"))
        assert est["sp"].value == pytest.approx(
            con.sp_constant(lp, _FUZZ_CFG).value, abs=1e-6), text


# --------------------------------------------------------------------------
# Cross-cutting invariants
# --------------------------------------------------------------------------

class TestInvariants:
    def test_l1_linf_isometry(self, all_consts):
        # The 45-degree rotation maps one ball onto the other, so every
        # constant must agree.
        a, b = all_consts["l1"], all_consts["linf"]
        assert set(a) == set(b)
        for key in a:
            assert a[key].value == pytest.approx(b[key].value, abs=2e-6), key

    def test_sp_within_universal_range(self, all_consts):
        for key, ests in all_consts.items():
            assert -1e-6 <= ests["sp"].value <= 0.5 + 1e-6, key

    def test_james_within_universal_range(self, all_consts):
        for key, ests in all_consts.items():
            assert SQRT2 - 1e-3 <= ests["james"].value <= 2.0 + 1e-6, key

    def test_compute_all_key_set(self, all_consts):
        expect = {"sp", "james", "cnj", "cnj_prime", "zbaganu", "schaffer",
                  "t", "T", "eps0"}
        for key, ests in all_consts.items():
            assert set(ests) == expect, key

    def test_compute_all_optional_profiles(self, l2):
        ests = con.compute_all(l2, gamma_ts=[0.5], delta_eps=[1.0], rho_ts=[1.0])
        assert ests["gamma(0.5)"].value == pytest.approx(1.25, abs=1e-6)
        assert ests["delta(1)"].value == pytest.approx(
            1.0 - math.sqrt(3.0) / 2.0, abs=1e-5)
        assert ests["rho(1)"].value == pytest.approx(SQRT2 - 1.0, abs=1e-6)
        assert list(ests)[-3:] == ["gamma(0.5)", "delta(1)", "rho(1)"]


# --------------------------------------------------------------------------
# Shared zooms
# --------------------------------------------------------------------------

POLYF = "polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]"
_SHARED_SPECS = [("lp:p=1.5,dim=2", None), ("lp:p=2,dim=2", None), (HEXAGON, None),
                 (POLYGON0, None), ("lp:p=1.5,dim=3", 8), (POLYF, 8)]


def _shared_space(spec, grid):
    space = build_space(parse_space_spec(spec))
    return space, (SearchConfig.for_dim(space.dim) if grid is None
                   else SearchConfig(grid_per_dim=grid))


def _assert_same_estimate(got, ref, key):
    assert (got.value, got.t, got.converged, got.evaluations) == (
        ref.value, ref.t, ref.converged, ref.evaluations), key
    assert np.array_equal(got.x, ref.x) and np.array_equal(got.y, ref.y), key


@pytest.mark.parametrize("spec, grid", _SHARED_SPECS)
def test_pair_constants_match_separate_calls(spec, grid):
    """pair_constants zooms S_P, J, C'_NJ and S, which differ in combine,
    mode and exclusion, in one extremize call, and C_NJ and C_Z in one
    refine_pairs call; each estimate is its single-objective call's, bit
    for bit: value, witness, t, converged flag and evaluations."""
    space, cfg = _shared_space(spec, grid)
    cache = pair_table(space, cfg)
    found = con.pair_constants(space, cfg, cache)
    for key, fn, mode, exclude in (("sp", con.pair_cosine, "sup", True),
                                   ("james", con.min_norm, "sup", False),
                                   ("cnj_prime", con.mean_square_quarter, "sup", False),
                                   ("schaffer", con.max_norm, "inf", False)):
        (alone,), _ = search.extremize(space, [search.PairNormObjective(fn)], cfg, mode,
                                       exclude=exclude, cache=cache)
        _assert_same_estimate(found[key], alone, key)
    for key, fn in (("cnj", con._cnj_combine), ("zbaganu", con._zbaganu_combine)):
        (alone,) = con._scaled_extremum(space, [fn], cfg)
        _assert_same_estimate(found[key], alone, key)


def _nan_combine(a, b, *t):
    return np.full(np.shape(a), np.nan)


@pytest.mark.parametrize("key", ["sp", "james", "cnj_prime", "schaffer", "cnj", "zbaganu"])
def test_shared_zoom_failure_names_its_constant(monkeypatch, key):
    """A group of a shared zoom left without a finite grid start names its
    own constant, not the first of the call."""
    if key in con._PAIR_SCANS:
        _, mode, exclude = con._PAIR_SCANS[key]
        monkeypatch.setitem(con._PAIR_SCANS, key, (_nan_combine, mode, exclude))
    else:
        monkeypatch.setattr(con, f"_{key}_combine", _nan_combine)
    space, cfg = _shared_space("lp:p=1.5,dim=2", 90)
    with pytest.raises(RuntimeError, match=f"^computation of '{key}' failed: no "):
        con.pair_constants(space, cfg, pair_table(space, cfg))

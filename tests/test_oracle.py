import math

import numpy as np
import pytest

from normgeo import constants as con
from normgeo import oracle
from normgeo.oracle import oracle_infsup, oracle_pair_norm_extrema
from normgeo.spaces import battery_specs, build_space, parse_space_spec


def _zero(a, b):
    return np.zeros(np.shape(a))


def test_l1_sp_value(l1):
    r = oracle_pair_norm_extrema(l1, {"sp": (con.pair_cosine, "sup")},
                                 grid_size=3600, eta=1e-6)["sp"]
    assert r.value == pytest.approx(0.5, abs=1e-3)


def test_l2_james_value(l2):
    r = oracle_pair_norm_extrema(l2, {"james": (con.min_norm, "sup")}, grid_size=3600)["james"]
    assert r.value == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_constant_objective_trivial(l2, hexagon):
    for sp in (l2, hexagon):
        for mode in ("sup", "inf"):
            combine = (lambda a, b: np.full(np.shape(a), 7.25), mode)
            r = oracle_pair_norm_extrema(sp, {"c": combine}, grid_size=100)["c"]
            assert r.value == 7.25


def test_rejects_high_dim():
    sp3 = build_space(parse_space_spec("lp:p=2,dim=3"))
    with pytest.raises(ValueError, match="dim 2 only"):
        oracle_pair_norm_extrema(sp3, {"zero": (_zero, "sup")})


def test_rejects_bad_mode(l2):
    with pytest.raises(ValueError, match="mode of 'sp'"):
        oracle_pair_norm_extrema(l2, {"sp": (con.pair_cosine, "max")})


def test_grid_doubling_convergence(hexagon):
    """|value(2N) - value(N)| decreases monotonically for N >= 900."""
    vals = [oracle_pair_norm_extrema(hexagon, {"sp": (con.pair_cosine, "sup")},
                                     grid_size=n, eta=1e-6)["sp"].value
            for n in (900, 1800, 3600)]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 <= d1


def _full_grid(space, fn, grid_size, eta):
    """fn(||x+y||, ||x-y||) at every pair of the n x n grid, every pair norm
    through the gauge, with excluded and NaN pairs -inf."""
    pts = oracle._unit_circle_points(space, grid_size)
    a = np.asarray(space.gauge(pts[:, None, :] + pts[None, :, :]))
    b = np.asarray(space.gauge(pts[:, None, :] - pts[None, :, :]))
    v = fn(a, b)
    return np.where(np.isnan(v) | (a < eta) | (b < eta), -np.inf, v)


def test_shared_scan_matches_single(l15):
    """The shared upper-triangle scan gives the sup and the inf of a full
    n x n scan, bit for bit in value, theta and phi: argmax takes the first
    pair in row-major order among ties."""
    combines = {
        "james": (con.min_norm, "sup"),
        "schaffer": (con.max_norm, "inf"),
    }
    n = 720
    shared = oracle_pair_norm_extrema(l15, combines, grid_size=n, eta=1e-6)
    for name, (fn, mode) in combines.items():
        sign = 1.0 if mode == "sup" else -1.0
        v = _full_grid(l15, lambda a, b: sign * fn(a, b), n, 1e-6)
        i, j = divmod(int(v.argmax()), n)
        ref = (sign * v[i, j], 2.0 * np.pi * i / n, 2.0 * np.pi * j / n)
        assert (shared[name].value, shared[name].theta, shared[name].phi) == ref


def test_infsup_l2_value(l2):
    r = oracle_infsup(l2, con.geom_mean, grid_size=1800, eta=1e-6)
    assert r.value == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_ties_resolve_first_row_major(l2):
    # A constant objective ties everywhere; the reported witness must be the
    # first grid pair.
    r = oracle_pair_norm_extrema(l2, {"zero": (_zero, "sup")}, grid_size=100)["zero"]
    assert (r.theta, r.phi) == (0.0, 0.0)


def test_excluded_everything_raises(l2):
    with pytest.raises(ValueError, match="every oracle grid pair was excluded for 'sp'"):
        oracle_pair_norm_extrema(l2, {"sp": (con.pair_cosine, "sup")}, grid_size=100, eta=10.0)


def test_infsup_excluded_everything_raises(l2):
    """An inf-sup with no admissible pair raises, naming its combine, as the
    sup and inf reductions do, rather than returning -inf."""
    with pytest.raises(ValueError, match="every oracle grid pair.* was excluded"):
        oracle_infsup(l2, con.geom_mean, grid_size=100, eta=10.0)
    combines = {"T": (con.geom_mean, "sup"), "t": (con.geom_mean, "infsup")}
    with pytest.raises(ValueError, match="excluded for 'T'"):
        oracle_pair_norm_extrema(l2, combines, grid_size=100, eta=10.0)
    with pytest.raises(ValueError, match="excluded for 't'"):
        oracle_pair_norm_extrema(l2, {"t": combines["t"]}, grid_size=100, eta=10.0)


def test_rejects_unknown_reduction(l2):
    with pytest.raises(ValueError, match="mode of 'x'"):
        oracle_pair_norm_extrema(l2, {"x": (con.geom_mean, "supinf")}, grid_size=100)


def _full_grid_infsup(space, grid_size, eta):
    """inf over rows of the sup over each full row of _full_grid: the first
    argmax column, then the first argmin row."""
    v = _full_grid(space, con.geom_mean, grid_size, eta)
    cols = v.argmax(axis=1)
    sups = v[np.arange(grid_size), cols]
    i = int(sups.argmin())
    return (float(sups[i]), float(2.0 * np.pi * i / grid_size),
            float(2.0 * np.pi * cols[i] / grid_size))


@pytest.mark.parametrize("chunk", [oracle._CHUNK_PAIRS, 997])
@pytest.mark.parametrize("grid_size", [240, 241])
@pytest.mark.parametrize("spec", [
    "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]",
    "lp:p=1.5,dim=2", "polygon0", "lp:p=2,dim=2", "linf:dim=2"],
    ids=["hexagon", "lp1.5", "polygon0", "l2", "linf"])
def test_infsup_matches_full_grid_reference(monkeypatch, spec, grid_size, chunk):
    """The inf-sup from the upper-triangle scan (row maxima merged with the
    column maxima of the earlier chunks) equals a scan of every full row,
    bit for bit in value, theta and phi.  l2 ties nearly everywhere."""
    space = build_space(battery_specs(7, 20)[0] if spec == "polygon0"
                        else parse_space_spec(spec))
    ref = _full_grid_infsup(space, grid_size, 1e-6)
    monkeypatch.setattr(oracle, "_CHUNK_PAIRS", chunk)
    combines = {"sp": (con.pair_cosine, "sup"), "t": (con.geom_mean, "infsup"),
                "schaffer": (con.max_norm, "inf")}
    shared = oracle_pair_norm_extrema(space, combines, grid_size=grid_size, eta=1e-6)["t"]
    alone = oracle_infsup(space, con.geom_mean, grid_size=grid_size, eta=1e-6)
    for r in (shared, alone):
        assert (r.value, r.theta, r.phi) == ref
        assert r.grid_size == grid_size


@pytest.mark.parametrize("rows", [1, 3, 7, 50])
def test_row_sups_break_ties_as_full_rows(rows):
    """Every row's sup and argmax from upper-triangle chunks of a symmetric
    matrix with ties nearly everywhere (and excluded -inf cells) equal those
    of its full rows: the lowest column wins, from either half of the merge."""
    rng = np.random.default_rng(5)
    n = 50
    m = rng.integers(0, 3, size=(n, n)).astype(float)
    m[m == 0] = -np.inf
    m = np.triu(m) + np.triu(m, 1).T
    merged = oracle._RowSups(n)
    for i0 in range(0, n, rows):
        merged.add(i0, m[i0:i0 + rows, i0:])
    assert np.array_equal(merged.arg, m.argmax(axis=1))
    assert np.array_equal(merged.sup, m.max(axis=1))


def test_results_independent_of_chunk_size(monkeypatch, hexagon, l15):
    """A chunk size that divides nothing evenly leaves every value and angle
    of the shared scan and of the inf-sup as they are."""
    combines = {"sp": (con.pair_cosine, "sup"), "james": (con.min_norm, "sup"),
                "schaffer": (con.max_norm, "inf"), "T": (con.geom_mean, "sup"),
                "t": (con.geom_mean, "infsup")}
    for space in (hexagon, l15, build_space(battery_specs(7, 20)[0])):
        ref = (oracle_pair_norm_extrema(space, combines, grid_size=240, eta=1e-6),
               oracle_infsup(space, con.geom_mean, grid_size=240, eta=1e-6))
        with monkeypatch.context() as m:
            m.setattr(oracle, "_CHUNK_PAIRS", 997)
            chunked = (oracle_pair_norm_extrema(space, combines, grid_size=240, eta=1e-6),
                       oracle_infsup(space, con.geom_mean, grid_size=240, eta=1e-6))
        assert chunked == ref


def test_weighted_lp_in_lp_coordinates():
    """Weighted lp is an isometric copy of lp; with weights 3e-308 and 1 a
    raw-coordinate grid crowds onto one axis and read S = 1.5874.  In lp's
    coordinates the oracle finds lp1.5's S = 2^(1/3) within its 1e-3 gate."""
    space = build_space(parse_space_spec("wlp:p=1.5,w=[3e-308,1]"))
    r = oracle_pair_norm_extrema(space, {"schaffer": (con.max_norm, "inf")})["schaffer"]
    assert r.value == pytest.approx(2.0 ** (1.0 / 3.0), abs=1e-3)

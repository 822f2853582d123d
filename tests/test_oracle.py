import math

import numpy as np
import pytest

from normgeo import constants as con
from normgeo import oracle
from normgeo.oracle import (oracle_infsup, oracle_pair_extremum,
                            oracle_pair_norm_extrema)
from normgeo.spaces import build_space, parse_space_spec


def sp_objective(space):
    def obj(x, y):
        a = np.asarray(space.gauge(x + y))
        b = np.asarray(space.gauge(x - y))
        return (a * a + b * b - 4.0) / (2.0 * a * b)
    return obj


def test_l1_sp_value(l1):
    r = oracle_pair_extremum(l1, sp_objective(l1), "sup", grid_size=3600, eta=1e-6)
    assert r.value == pytest.approx(0.5, abs=1e-3)


def test_l2_james_value(l2):
    def james_obj(x, y):
        return np.minimum(np.asarray(l2.gauge(x + y)), np.asarray(l2.gauge(x - y)))
    r = oracle_pair_extremum(l2, james_obj, "sup", grid_size=3600)
    assert r.value == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_constant_objective_trivial(l2, hexagon):
    for sp in (l2, hexagon):
        for mode in ("sup", "inf"):
            r = oracle_pair_extremum(sp, lambda x, y: np.full(np.broadcast(x, y).shape[:-1], 7.25),
                                     mode, grid_size=100)
            assert r.value == 7.25


def test_rejects_high_dim():
    sp3 = build_space(parse_space_spec("lp:p=2,dim=3"))
    with pytest.raises(ValueError):
        oracle_pair_extremum(sp3, lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]), "sup")


def test_rejects_bad_mode(l2):
    with pytest.raises(ValueError):
        oracle_pair_extremum(l2, sp_objective(l2), "max")


def test_grid_doubling_convergence(hexagon):
    """|value(2N) - value(N)| decreases monotonically for N >= 900."""
    obj = sp_objective(hexagon)
    vals = [oracle_pair_extremum(hexagon, obj, "sup", grid_size=n, eta=1e-6).value
            for n in (900, 1800, 3600)]
    d1 = abs(vals[1] - vals[0])
    d2 = abs(vals[2] - vals[1])
    assert d2 <= d1


def test_shared_scan_matches_single(l15):
    combines = {
        "james": (con.min_norm, "sup"),
        "schaffer": (con.max_norm, "inf"),
    }
    shared = oracle_pair_norm_extrema(l15, combines, grid_size=720, eta=1e-6)

    def james_obj(x, y):
        return np.minimum(np.asarray(l15.gauge(x + y)), np.asarray(l15.gauge(x - y)))
    single = oracle_pair_extremum(l15, james_obj, "sup", grid_size=720, eta=1e-6)
    assert shared["james"].value == single.value
    assert (shared["james"].theta, shared["james"].phi) == (single.theta, single.phi)


def test_infsup_l2_value(l2):
    r = oracle_infsup(l2, con.geom_mean, grid_size=1800, eta=1e-6)
    assert r.value == pytest.approx(math.sqrt(2.0), abs=1e-3)


def test_ties_resolve_first_row_major(l2):
    # A constant objective ties everywhere; the reported witness must be the
    # first grid pair.
    r = oracle_pair_extremum(l2, lambda x, y: np.zeros(np.broadcast(x, y).shape[:-1]),
                             "sup", grid_size=100)
    assert (r.theta, r.phi) == (0.0, 0.0)


def test_excluded_everything_raises(l2):
    with pytest.raises(ValueError):
        oracle_pair_extremum(l2, sp_objective(l2), "sup", grid_size=100, eta=10.0)


def test_results_independent_of_chunk_size(monkeypatch, hexagon, l15):
    """A chunk size that divides nothing evenly leaves every value and angle
    of the shared scan and of the inf-sup as they are."""
    combines = {"sp": (con.pair_cosine, "sup"), "james": (con.min_norm, "sup"),
                "schaffer": (con.max_norm, "inf"), "T": (con.geom_mean, "sup")}
    for space in (hexagon, l15):
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

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normgeo.spaces import (NormSpec, battery_specs, build_space, parse_space_spec,
                            polygon_facet_functionals, validate_space)


# --------------------------------------------------------------------------
# Gauge values
# --------------------------------------------------------------------------

def test_lp_gauge_values(l1, l2, linf):
    v = np.array([3.0, -4.0])
    assert l1.norm(v) == 7.0
    assert l2.norm(v) == 5.0
    assert linf.norm(v) == 4.0


def test_lp_general_p():
    sp = build_space(parse_space_spec("lp:p=3,dim=2"))
    assert sp.norm([1.0, 1.0]) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-14)


def test_weighted_lp_gauge():
    sp = build_space(parse_space_spec("wlp:p=2,w=[4,1]"))
    # sqrt(4*x0^2 + x1^2)
    assert sp.norm([1.0, 0.0]) == pytest.approx(2.0)
    assert sp.norm([0.0, 1.0]) == pytest.approx(1.0)
    assert sp.dim == 2


def test_functional_space_gauge():
    sp = build_space(parse_space_spec("polyf:f=[[1,0],[0,1]]"))
    assert sp.norm([0.5, -2.0]) == 2.0   # max |<f_i, x>|; this is linf


def test_polyv_square_is_linf():
    sp = build_space(parse_space_spec("polyv:v=[[1,1],[1,-1]]"))
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((32, 2))
    assert np.allclose(sp.gauge(pts), np.abs(pts).max(axis=1), rtol=1e-13)


def test_polyv_diamond_is_l1():
    sp = build_space(parse_space_spec("polyv:v=[[1,0],[0,1]]"))
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((32, 2))
    assert np.allclose(sp.gauge(pts), np.abs(pts).sum(axis=1), rtol=1e-13)


def test_hexagon_gauge(hexagon):
    # Vertices are on the unit sphere of their own gauge.
    for v in hexagon.spec.vertices:
        assert hexagon.norm(v) == pytest.approx(1.0, abs=1e-12)
    # Midpoint of an edge is also on the sphere; a scaled-in point is not.
    a = np.array(hexagon.spec.vertices[0])
    b = np.array(hexagon.spec.vertices[1])
    assert hexagon.norm((a + b) / 2.0) == pytest.approx(1.0, abs=1e-12)
    assert hexagon.norm(0.5 * a) == pytest.approx(0.5, abs=1e-12)


# --------------------------------------------------------------------------
# Facet extraction
# --------------------------------------------------------------------------

def test_facet_count_square():
    facets = polygon_facet_functionals([[1.0, 1.0], [1.0, -1.0]])
    assert facets.shape == (4, 2)


def test_facets_reject_collinear():
    with pytest.raises(ValueError):
        polygon_facet_functionals([[1.0, 0.0], [2.0, 0.0]])


def test_facets_interior_points_redundant():
    base = [[1.0, 0.0], [0.0, 1.0]]
    with_interior = base + [[0.1, 0.1]]
    f1 = polygon_facet_functionals(base)
    f2 = polygon_facet_functionals(with_interior)
    assert sorted(map(tuple, np.round(f1, 12))) == sorted(map(tuple, np.round(f2, 12)))


# --------------------------------------------------------------------------
# Axiom sampling
# --------------------------------------------------------------------------

def test_validate_space_passes_on_battery(battery_spaces):
    for sp in battery_spaces:
        assert validate_space(sp, samples=500) == []


def test_validate_space_catches_broken_gauge():
    broken = build_space(parse_space_spec("lp:p=2,dim=2"))
    bad = type(broken)(dim=2, gauge=lambda z: np.asarray(z)[..., 0], spec=None)
    violations = validate_space(bad, samples=500)
    assert any(v.axiom == "positivity" for v in violations)


# --------------------------------------------------------------------------
# Spec grammar
# --------------------------------------------------------------------------

@pytest.mark.parametrize("text,family,dim", [
    ("lp:p=1.5,dim=2", "lp", 2),
    ("lp:p=2,dim=3", "lp", 3),
    ("linf:dim=4", "linf", 4),
    ("wlp:p=1,w=[1,2,3]", "weighted-lp", 3),
    ("polyf:f=[[1,0],[0,1],[1,1]]", "poly-functionals", 2),
    ("polyv:v=[[1,0],[0.6,0.8],[0,1]]", "poly-vertices", 2),
    ("lp:p=1.2345678,dim=2", "lp", 2),
] + [pytest.param("polyv:v=[" + ",".join(f"[{x!r},{y!r}]" for x, y in spec.vertices) + "]",
                  "poly-vertices", 2, id=f"battery7-{i}")
     for i, spec in enumerate(battery_specs(7, 20))])
def test_parse_roundtrip(text, family, dim):
    spec = parse_space_spec(text)
    assert spec.family == family
    assert spec.effective_dim == dim
    again = parse_space_spec(spec.to_string())
    assert again == spec


def test_parse_whitespace_insensitive():
    assert parse_space_spec(" lp : p = 2 , dim = 2 ") == parse_space_spec("lp:p=2,dim=2")


@pytest.mark.parametrize("text", [
    "xx:p=2,dim=2",          # unknown family
    "lp:dim=2",              # missing p
    "lp:p=0.5,dim=2",        # p < 1
    "lp:p=2,dim=1",          # dim < 2
    "lp:p=2,dim=2,q=3",      # unknown key
    "lp:p=2,p=3,dim=2",      # duplicate key
    "wlp:p=2,w=[1,-1]",      # nonpositive weight
    "wlp:p=2,w=[2]",         # single weight
    "polyf:f=[[1,0],[2,0]]", # rank-deficient functionals
    "polyv:v=[[1,0],[2,0]]", # collinear vertices
    "polyv:v=[[1,0],[0,1]",  # unbalanced brackets
])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        spec = parse_space_spec(text)
        build_space(spec)


@pytest.mark.parametrize("text, axiom", [
    ("wlp:p=2,w=[1e999,1]", "positivity"),        # an infinite weight: the gauge is inf
    ("wlp:p=1.5,w=[1e308,1e308]", "positivity"),  # the weighted power sum overflows to inf
])
def test_build_rejects_gauge_failing_axioms(text, axiom):
    with pytest.raises(ValueError, match=f"fails the {axiom} axiom"):
        build_space(parse_space_spec(text))


@pytest.mark.parametrize("text", ["lp:p=50,dim=2", "lp:p=50,dim=3", "wlp:p=50,w=[1,2,3]",
                                  "lp:p=150,dim=2", "lp:p=400,dim=2", "lp:p=1e6,dim=2",
                                  "wlp:p=300,w=[1,2]"])
def test_build_accepts_large_p_that_holds(text):
    space = build_space(parse_space_spec(text))
    assert validate_space(space) == []


@pytest.mark.parametrize("p", [1.5, 3.0, 70.0, 400.0, 1e6])
@pytest.mark.parametrize("r", [1e300, 1.0, 3e-5, 6.5e-215, 1e-300])
def test_lp_gauge_has_no_underflow_or_overflow(p, r):
    # Where r^p leaves the float range the point is evaluated scaled by
    # max |z_i| = r, so the gauge of (r, r/2) is r (1 + 2^-p)^(1/p) at every
    # magnitude, alone and in a batch with a point that needs no scaling.
    sp = build_space(parse_space_spec(f"lp:p={p!r},dim=2"))
    expect = r * (1.0 + 0.5 ** p) ** (1.0 / p)
    assert sp.norm([r, r / 2]) == pytest.approx(expect, rel=1e-15)
    assert sp.norm([0.0, -r]) == pytest.approx(r, rel=1e-15)
    assert sp.norm([0.0, 0.0]) == 0.0
    batch = sp.gauge(np.array([[r, r / 2], [1.0, 0.5], [0.0, 0.0]]))
    assert batch[0] == pytest.approx(expect, rel=1e-15)
    assert batch[2] == 0.0


def test_parse_skeleton_for_sweeps():
    spec = parse_space_spec("lp:dim=2", allow_missing_p=True)
    assert spec.p is None
    with pytest.raises(ValueError):
        build_space(spec)


def test_spec_json_roundtrip():
    spec = parse_space_spec("polyv:v=[[1,0],[0.6,0.8],[0,1]]")
    assert NormSpec.from_dict(spec.to_dict()) == spec


# --------------------------------------------------------------------------
# Battery generator
# --------------------------------------------------------------------------

def test_battery_is_deterministic():
    assert battery_specs(7, 20) == battery_specs(7, 20)
    assert battery_specs(7, 5) == battery_specs(7, 20)[:5]


def test_battery_vertex_counts():
    for spec in battery_specs(7, 20):
        space = build_space(spec)
        m = int(space.name.split("m=")[1].rstrip(")"))
        assert 6 <= m <= 16


def test_battery_seeds_differ():
    assert battery_specs(7, 3) != battery_specs(8, 3)


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(x0=st.floats(-10, 10), x1=st.floats(-10, 10),
       c=st.sampled_from([0.25, 0.5, 2.0, 4.0, -2.0]),
       text=st.sampled_from(["lp:p=1,dim=2", "lp:p=2,dim=2", "linf:dim=2"]))
def test_homogeneity_exact_for_powers_of_two(x0, x1, c, text):
    # abs/sum, sqrt, and max all commute exactly with power-of-two scaling;
    # general p goes through pow and is only approximately homogeneous.
    sp = build_space(parse_space_spec(text))
    v = np.array([x0, x1])
    assert sp.norm(c * v) == abs(c) * sp.norm(v)


@settings(max_examples=60, deadline=None)
@given(x0=st.floats(-10, 10), x1=st.floats(-10, 10),
       c=st.floats(0.1, 8.0))
@example(x0=0.0, x1=6.474165824746383e-215, c=0.5)   # |x1|^p is subnormal
@example(x0=0.0, x1=2.28e-212, c=2.0)
def test_homogeneity_general_p(x0, x1, c):
    sp = build_space(parse_space_spec("lp:p=1.5,dim=2"))
    v = np.array([x0, x1])
    assert sp.norm(c * v) == pytest.approx(c * sp.norm(v), rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(x0=st.floats(-5, 5), x1=st.floats(-5, 5),
       y0=st.floats(-5, 5), y1=st.floats(-5, 5))
def test_triangle_inequality(x0, x1, y0, y1):
    sp = build_space(parse_space_spec("polyv:v=[[1,0],[0.6,0.8],[0,1]]"))
    x = np.array([x0, x1])
    y = np.array([y0, y1])
    assert sp.norm(x + y) <= sp.norm(x) + sp.norm(y) + 1e-12

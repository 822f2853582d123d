import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normgeo.spaces import (NormSpec, Space, _checked, battery_specs, build_space,
                            parse_space_spec, polygon_facet_functionals, validate_space)


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


@pytest.mark.parametrize("spec", [
    "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]",
    battery_specs(7, 20)[0],
    "polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]"],
    ids=["hexagon", "polygon0", "polyf-dim3"])
def test_functional_gauge_bits_of_row_max(spec):
    # The gauge takes the facet max one column at a time; the max is exact,
    # so it must give the bits of a max over the last axis, NaN included.
    # The product is the gauge's own (with F^T contiguous): its layout
    # decides the rounding.
    spec = parse_space_spec(spec) if isinstance(spec, str) else spec
    sp = build_space(spec)
    F = (np.asarray(spec.functionals) if spec.functionals is not None
         else polygon_facet_functionals(spec.vertices))
    F_t = np.ascontiguousarray(F.T)
    rng = np.random.default_rng(3)
    for shape in [(sp.dim,), (1, sp.dim), (7, sp.dim), (4, 9, sp.dim), (3, 720, sp.dim)]:
        z = rng.standard_normal(shape)
        if len(shape) > 1:
            z[(0,) * (len(shape) - 1)][0] = np.nan
        got = sp.gauge(z)
        assert np.ndim(got) == len(shape) - 1
        assert np.array_equal(got, np.abs(z @ F_t).max(axis=-1), equal_nan=True), shape
        if len(shape) > 1:
            assert np.isnan(got[(0,) * (len(shape) - 1)])
            assert np.isfinite(got.ravel()[1:]).all()


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

def _parsed_case(text, expected, as_dict, id=None):
    return pytest.param(text, expected, as_dict,
                        id=id or f"{text}-{expected.family}-{expected.effective_dim}")


@pytest.mark.parametrize("text, expected, as_dict", [
    _parsed_case("lp:p=1.5,dim=2", NormSpec("lp", dim=2, p=1.5),
                 {"family": "lp", "dim": 2, "p": 1.5}),
    _parsed_case("lp:p=2,dim=3", NormSpec("lp", dim=3, p=2.0),
                 {"family": "lp", "dim": 3, "p": 2.0}),
    _parsed_case("linf:dim=4", NormSpec("linf", dim=4), {"family": "linf", "dim": 4}),
    _parsed_case("wlp:p=1,w=[1,2,3]", NormSpec("weighted-lp", dim=3, p=1.0, weights=(1, 2, 3)),
                 {"family": "weighted-lp", "dim": 3, "p": 1.0, "weights": [1.0, 2.0, 3.0]}),
    _parsed_case("polyf:f=[[1,0],[0,1],[1,1]]",
                 NormSpec("poly-functionals", dim=2, functionals=((1, 0), (0, 1), (1, 1))),
                 {"family": "poly-functionals", "dim": 2,
                  "functionals": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}),
    _parsed_case("polyv:v=[[1,0],[0.6,0.8],[0,1]]",
                 NormSpec("poly-vertices", dim=2, vertices=((1, 0), (0.6, 0.8), (0, 1))),
                 {"family": "poly-vertices", "dim": 2,
                  "vertices": [[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]]}),
    _parsed_case("lp:p=1.2345678,dim=2", NormSpec("lp", dim=2, p=1.2345678),
                 {"family": "lp", "dim": 2, "p": 1.2345678}),
] + [_parsed_case("polyv:v=[" + ",".join(f"[{x!r},{y!r}]" for x, y in spec.vertices) + "]",
                  spec, {"family": "poly-vertices", "dim": 2,
                         "vertices": [list(v) for v in spec.vertices]}, id=f"battery7-{i}")
     for i, spec in enumerate(battery_specs(7, 20))])
def test_parse_roundtrip(text, expected, as_dict):
    """The parsed spec equals the expected one, field for field (battery
    vertices written with repr come back bit for bit), and to_dict, which the
    CLI prints, lists its fields."""
    spec = parse_space_spec(text)
    assert spec == expected
    assert spec.to_dict() == as_dict


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


@pytest.mark.parametrize("gauge, axiom", [
    (lambda z: -np.abs(z).sum(axis=-1), "positivity"),
    (lambda z: (np.asarray(z) ** 2).sum(axis=-1), "homogeneity"),
    (lambda z: np.sqrt(np.abs(z)).sum(axis=-1) ** 2, "triangle"),   # the l_1/2 quasi-norm
], ids=["positivity", "homogeneity", "triangle"])
def test_checked_names_failed_axiom(gauge, axiom):
    # build_space runs this check on every lp and weighted-lp gauge.
    space = Space(2, gauge, name="broken")
    with pytest.raises(ValueError, match=f"broken fails the {axiom} axiom"):
        _checked(space)


@pytest.mark.parametrize("text, message", [
    ("wlp:p=1,w=[1,1e-320]", "w[1] = 1e-320 gives w^(1/p) = 1e-320 and w^(-1/p) = inf"),
    ("wlp:p=1,w=[1e-310,1e-310]", "w[0] = 1e-310 gives w^(1/p) = 1e-310 and w^(-1/p) = inf"),
    ("wlp:p=1,w=[1e308,1e308]", "w[0] = 1e+308 gives w^(1/p) = 1e+308 and w^(-1/p) = 1e-308"),
])
def test_spec_rejects_extreme_weights(text, message):
    # The gauge scales by w^(1/p) and the grids by Space.scale, w^(-1/p);
    # the spec check keeps both normal, before any gauge is built or sampled.
    spec = parse_space_spec(text)
    with pytest.raises(ValueError, match=re.escape(message)):
        spec.validate()


@pytest.mark.parametrize("text, axiom", [
    # At p = 1 the gauge is the weighted sum, which overflows to inf on
    # sampled vectors with |x_1| + |x_2| > 4.5.
    ("wlp:p=1,w=[4e307,4e307]", "positivity"),
])
def test_build_rejects_gauge_failing_axioms(text, axiom):
    with pytest.raises(ValueError, match=f"fails the {axiom} axiom"):
        build_space(parse_space_spec(text))


@pytest.mark.parametrize("text, index, weight", [
    ("wlp:p=2,w=[1e999,1]", 0, "inf"),
    ("wlp:p=1.5,w=[1,-1e999]", 1, "-inf"),
])
def test_spec_rejects_nonfinite_weights(text, index, weight):
    # The spec check names the weight, before any gauge is built or sampled.
    spec = parse_space_spec(text)
    with pytest.raises(ValueError, match=rf"weight w\[{index}\] = {weight} is not finite"):
        spec.validate()


@pytest.mark.parametrize("text", ["lp:p=50,dim=2", "lp:p=50,dim=3", "wlp:p=50,w=[1,2,3]",
                                  "lp:p=150,dim=2", "lp:p=400,dim=2", "lp:p=1e6,dim=2",
                                  "wlp:p=300,w=[1,2]"])
def test_build_accepts_large_p_that_holds(text):
    space = build_space(parse_space_spec(text))
    assert validate_space(space) == []


@pytest.mark.parametrize("text", ["wlp:p=2,w=[1,1e20]", "wlp:p=3,w=[1,1e100]"])
def test_build_accepts_far_apart_weights(text):
    # Norms whose sampled triangle excess is one ulp of gauge(x) + gauge(y)
    # (8.2e9 and 4.1e33): the triangle tolerance is relative.
    space = build_space(parse_space_spec(text))
    assert validate_space(space) == []


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 70.0, 400.0, 1e6])
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


@pytest.mark.parametrize("text", ["lp:p=1.5,dim=2", "lp:p=1.5,dim=3", "lp:p=3,dim=3",
                                  "wlp:p=1.5,w=[2,0.5]"])
def test_lp_gauge_lone_vector_bits_of_batch(text):
    # numpy powers a lone float64 on another path than an array; evaluated
    # that way, about 5% of these points got other last bits alone.
    sp = build_space(parse_space_spec(text))
    z = np.random.default_rng(0).standard_normal((5000, sp.dim))
    lone = [sp.gauge(v) for v in z]
    assert all(np.ndim(g) == 0 for g in lone)
    assert np.array_equal(lone, sp.gauge(z))


@pytest.mark.parametrize("text", [
    *(f"lp:p={p},dim={d}" for p in (1, 1.5, 2, 3) for d in (2, 3)),
    "linf:dim=2", "linf:dim=3", "wlp:p=1.5,w=[0.5,2]", "wlp:p=1.5,w=[0.5,2,3]",
    "polyf:f=[[1,0],[0,1],[1,1]]", "polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]",
    "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]"])
def test_gauge_of_empty_batch(text):
    # An empty batch, as the bisection of delta's boundary solve passes when
    # no lattice edge brackets the constraint, maps to an empty result.
    sp = build_space(parse_space_spec(text))
    assert np.asarray(sp.gauge(np.empty((0, sp.dim)))).shape == (0,)


def test_weighted_lp_weights_before_the_power():
    # Weighted after the power, |z|^p = (0, 5e-324) would leave the sum one
    # scaled subnormal, in the normal range, and the gauge 0.397; weighted
    # before it, the spec builds and the gauge matches a log-domain sum.
    p, w = 726.1267488450687, (3.163817100932328e+263, 5.196916940422011e+31)
    space = build_space(parse_space_spec(f"wlp:p={p!r},w=[{w[0]!r},{w[1]!r}]"))
    z = (0.3194, -0.3589)
    logs = [math.log(wi) + p * math.log(abs(zi)) for wi, zi in zip(w, z)]
    top = max(logs)
    ref = math.exp((top + math.log(sum(math.exp(t - top) for t in logs))) / p)
    assert ref == pytest.approx(0.7365792954337337, rel=1e-15)
    assert space.norm(z) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("dim", [2, 3])
def test_lp2_gauge_keeps_normal_range_bits(dim):
    # Points whose sum of squares lies in the normal range get the bits of
    # the plain formula sqrt(sum_i z_i^2), weighted lp that of lp at the
    # coordinates w_i^(1/2) z_i.
    rng = np.random.default_rng(dim)
    z = rng.normal(size=(1000, dim)) * 10.0 ** rng.uniform(-150, 150, (1000, 1))
    w = rng.uniform(0.5, 3.0, dim)
    plain = build_space(parse_space_spec(f"lp:p=2,dim={dim}"))
    weighted = build_space(NormSpec("weighted-lp", dim=dim, p=2.0, weights=tuple(w)))
    assert np.array_equal(plain.gauge(z), np.sqrt((z ** 2).sum(axis=-1)))
    assert np.array_equal(weighted.gauge(z), np.sqrt(((w ** 0.5 * z) ** 2).sum(axis=-1)))


def test_parse_skeleton_for_sweeps():
    spec = parse_space_spec("lp:dim=2", allow_missing_p=True)
    assert spec.p is None
    with pytest.raises(ValueError):
        build_space(spec)


def test_spec_json_roundtrip():
    """The spec's JSON, as the CLI prints it, reads back as its fields."""
    spec = parse_space_spec("polyv:v=[[1,0],[0.6,0.8],[0,1]]")
    assert spec == NormSpec("poly-vertices", dim=2, vertices=((1, 0), (0.6, 0.8), (0, 1)))
    assert json.loads(json.dumps(spec.to_dict())) == {
        "family": "poly-vertices", "dim": 2, "vertices": [[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]]}


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
@example(x0=5e-324, x1=5e-324, c=0.5, text="lp:p=1,dim=2")    # c*v rounds to 0
@example(x0=2.2250738585e-313, x1=2.2250738585e-313, c=0.25, text="lp:p=1,dim=2")  # c*v rounds
@example(x0=5e-324, x1=5e-324, c=2.0, text="lp:p=2,dim=2")    # a subnormal norm rounds
@example(x0=0.0, x1=3.1e-162, c=0.25, text="lp:p=2,dim=2")    # subnormal squares
@example(x0=1.2e-154, x1=-3e-155, c=2.0, text="lp:p=2,dim=2")  # v scaled, c*v plain
def test_homogeneity_exact_for_powers_of_two(x0, x1, c, text):
    # abs, sums, squares, sqrt and max commute exactly with power-of-two
    # scaling where no operand or result leaves the normal float range.
    # That is where c*v is exact ((c*v)/c == v), both norms are >= 2^-1022
    # and, for lp2, every nonzero |v_i| and |c v_i| is >= 2^-511: then each
    # square is normal and both points take the plain formula sqrt(sum z_i^2).
    sp = build_space(parse_space_spec(text))
    v = np.array([x0, x1])
    cv = c * v
    lhs, rhs = sp.norm(cv), abs(c) * sp.norm(v)
    normal = (np.array_equal(cv / c, v) and min(lhs, rhs) >= 2.0 ** -1022
              and (text != "lp:p=2,dim=2"
                   or all(z == 0.0 or abs(z) >= 2.0 ** -511 for z in (*v, *cv))))
    if normal:
        assert lhs == rhs
    else:
        # Each coordinate of c*v is within half a quantum (2^-1075) of the
        # exact product, which moves either norm by at most 2 * 2^-1075 =
        # 2^-1074.  Each side takes at most six correctly rounded steps (a
        # scaling division, squares, a sum, the root, the multiplication by
        # max |z_i| and the one by |c|), each off by at most half a unit in
        # the last place, or half a quantum where the result is subnormal.
        # So the sides differ by less than 2^-50 relative plus 4 quanta.
        assert abs(lhs - rhs) <= 2.0 ** -50 * rhs + 4 * 2.0 ** -1074


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


_EVEN_SPECS = ["lp:p=1,dim=2", "lp:p=1.5,dim=2", "lp:p=3,dim=2", "lp:p=2,dim=3", "linf:dim=2",
               "wlp:p=1.5,w=[1,9]",
               "polyv:v=[[1,0],[0.5,0.8660254037844386],[-0.5,0.8660254037844386]]",
               "polygon0", "polyf:f=[[1,1,0],[1,-1,0],[1,0,1],[1,0,-1],[0,1,1],[0,1,-1]]"]


@settings(max_examples=60, deadline=None)
@given(text=st.sampled_from(_EVEN_SPECS), data=st.data())
def test_gauge_evenness_bitwise(text, data):
    """Every gauge is bitwise even, and (-x) + y = -(x - y) exactly, so
    gauge((-x) + y) is gauge(x - y) bit for bit, for a lone vector and in a
    batch.  The antipodal grids read ||x - y|| as ||(-x) + y|| on this."""
    space = build_space(battery_specs(7, 20)[0] if text == "polygon0"
                        else parse_space_spec(text))
    coords = st.floats(-1e3, 1e3, allow_subnormal=True)
    rows = st.lists(st.lists(coords, min_size=space.dim, max_size=space.dim),
                    min_size=2, max_size=6)
    x, y = (np.array(data.draw(rows)) for _ in range(2))
    y = np.resize(y, x.shape)
    for v in (x, x[0]):
        assert np.array_equal(np.asarray(space.gauge(-v)), np.asarray(space.gauge(v)))
    for a, b in ((x, y), (x[0], y[0])):
        assert np.array_equal(np.asarray(space.gauge(-a + b)), np.asarray(space.gauge(a - b)))

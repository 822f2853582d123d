"""Norm families and gauge evaluation for finite-dimensional real normed spaces.

A space is described by a NormSpec (family plus parameters) and realized as a
Space carrying a vectorized gauge: a callable mapping arrays of shape
(..., dim) to nonnegative norms of shape (...).  Supported families:

  lp                (sum_i |x_i|^p)^(1/p), p >= 1
  linf              max_i |x_i|
  weighted-lp       (sum_i w_i |x_i|^p)^(1/p), w_i > 0
  poly-functionals  max_i |<f_i, x>| for functionals f_i spanning R^dim
  poly-vertices     Minkowski gauge of conv(V u -V), dim 2 only
"""
from __future__ import annotations

import ast
import itertools
import math
import random
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

Gauge = Callable[[np.ndarray], np.ndarray]

FAMILIES = ("lp", "linf", "weighted-lp", "poly-functionals", "poly-vertices")

# Grammar tokens used in CLI space strings, e.g. "lp:p=1.5,dim=2".
_FAMILY_TOKENS = {
    "lp": "lp",
    "linf": "linf",
    "wlp": "weighted-lp",
    "polyf": "poly-functionals",
    "polyv": "poly-vertices",
}


# --------------------------------------------------------------------------
# Specs
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NormSpec:
    """Declarative description of a norm.  Validated by build_space.

    p may be None only as a sweep placeholder (filled in per row); building a
    space from an incomplete spec is rejected.
    """

    family: str
    dim: int = 0
    p: float | None = None
    weights: tuple[float, ...] | None = None
    functionals: tuple[tuple[float, ...], ...] | None = None
    vertices: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        # Normalize nested sequences to tuples so specs hash and compare.
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.functionals is not None:
            object.__setattr__(
                self, "functionals",
                tuple(tuple(float(c) for c in row) for row in self.functionals))
        if self.vertices is not None:
            object.__setattr__(
                self, "vertices",
                tuple(tuple(float(c) for c in row) for row in self.vertices))

    def validate(self) -> None:
        """Raise ValueError naming the violated invariant."""
        if self.family not in FAMILIES:
            raise ValueError(f"unknown norm family {self.family!r}; expected one of {FAMILIES}")
        if self.family in ("lp", "weighted-lp"):
            if self.p is None:
                raise ValueError(f"{self.family} spec is missing p")
            if not (1.0 <= self.p < math.inf):
                raise ValueError(f"{self.family} requires a finite p >= 1, got p={self.p}")
        if self.family in ("lp", "linf"):
            if self.dim < 2:
                raise ValueError(f"dim must be >= 2, got {self.dim}")
        elif self.family == "weighted-lp":
            if not self.weights:
                raise ValueError("weighted-lp requires a nonempty weight vector")
            for i, w in enumerate(self.weights):
                if not math.isfinite(w):
                    raise ValueError(f"weighted-lp weight w[{i}] = {w!r} is not finite")
            if any(not (w > 0.0) for w in self.weights):
                raise ValueError(f"weighted-lp weights must be strictly positive, got {self.weights}")
            # The gauge scales coordinate i by w_i^(1/p), and the grids map
            # lp's coordinates in by Space.scale, w_i^(-1/p): both factors
            # must be normal floats, as the code computes them.
            w = np.asarray(self.weights)
            with np.errstate(over="ignore", under="ignore"):
                factors = (w ** (1.0 / self.p)).tolist(), (w ** (-1.0 / self.p)).tolist()
            for i, (wi, f, s) in enumerate(zip(self.weights, *factors)):
                if not (_NORMAL_MIN <= min(f, s) and max(f, s) < math.inf):
                    raise ValueError(f"weighted-lp weight w[{i}] = {wi!r} gives w^(1/p) = "
                                     f"{f!r} and w^(-1/p) = {s!r}; both must be finite "
                                     "and at least 2^-1022")
            if len(self.weights) < 2:
                raise ValueError("dim must be >= 2; provide at least two weights")
        elif self.family == "poly-functionals":
            if not self.functionals:
                raise ValueError("poly-functionals requires a nonempty functional list")
            mat = np.asarray(self.functionals, dtype=float)
            if mat.ndim != 2 or mat.shape[1] < 2:
                raise ValueError("functionals must be vectors of a common dim >= 2")
            if np.linalg.matrix_rank(mat) < mat.shape[1]:
                raise ValueError("functionals do not span the space; the gauge would vanish on a nonzero vector")
        elif self.family == "poly-vertices":
            if not self.vertices:
                raise ValueError("poly-vertices requires a nonempty vertex list")
            arr = np.asarray(self.vertices, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError("poly-vertices supports dim 2 only; vertices must be [x, y] pairs")

    @property
    def effective_dim(self) -> int:
        if self.family in ("lp", "linf"):
            return self.dim
        if self.family == "weighted-lp":
            return len(self.weights) if self.weights else 0
        if self.family == "poly-functionals":
            return len(self.functionals[0]) if self.functionals else 0
        return 2

    def to_dict(self) -> dict:
        d: dict = {"family": self.family, "dim": self.effective_dim}
        if self.p is not None:
            d["p"] = self.p
        if self.weights is not None:
            d["weights"] = list(self.weights)
        if self.functionals is not None:
            d["functionals"] = [list(row) for row in self.functionals]
        if self.vertices is not None:
            d["vertices"] = [list(row) for row in self.vertices]
        return d


# --------------------------------------------------------------------------
# Gauges
# --------------------------------------------------------------------------

_NORMAL_MIN = np.finfo(float).tiny             # 2^-1022
_TINY = np.finfo(float).smallest_subnormal      # 2^-1074


def _lp_gauge(p: float, weights: np.ndarray | None = None) -> Gauge:
    """(sum_i w_i |z_i|^p)^(1/p), with w_i = 1 when unweighted.

    Weighted lp is lp's gauge of (w_i^(1/p) z_i), the isometry of
    Space.scale: each coordinate is weighted before the power, never after
    it, so each power is the weighted term w_i |z_i|^p itself and leaves
    the float range only where that term does.  The factor itself stays in
    range: w^(1/p) <= w for w > 1 and >= w for w < 1.

    For p other than 1 the power sum is added up one column at a time (a
    sum over the short last axis costs more than the powers), and a point
    whose power sum leaves the normal float range is evaluated again scaled
    by m = max_i |z_i|, as m (sum_i (|z_i|/m)^p)^(1/p), whose power sum
    lies in [1, dim].  Unscaled, the sum underflows for tiny coordinates
    or large p (lp1.5 of (0, 6.5e-215) is 2e-3 relative off, lp400 of
    (1e-3, 0) is 0, lp2 of (3e-160, 4e-160) is 6e-6 relative low) and
    overflows for huge ones (lp2 of (1e200, 0)).  p = 2 takes its root
    with sqrt.  Which formula a point gets depends on that point alone,
    never on the rest of the batch, and the gauge is homogeneous to rounding
    for every finite z and p.  numpy powers a lone float64 on another path
    than an array, which rounds differently, so a lone vector is evaluated
    as a one-row batch: it gets the bits it gets in any batch.
    """
    if weights is not None:
        factor = np.asarray(weights, dtype=float) ** (1.0 / p)
        lp = _lp_gauge(p)
        return lambda z: lp(np.asarray(z, dtype=float) * factor)
    if p == 1.0:
        return lambda z: np.abs(z).sum(axis=-1)
    pinv = 1.0 / p
    root = np.sqrt if p == 2.0 else (lambda s: s ** pinv)

    def power_sum(a):          # a = |z|, a fresh array that is overwritten
        a **= p
        s = a[..., 0] + a[..., 1]
        for i in range(2, a.shape[-1]):
            s += a[..., i]
        return s

    def scaled(z):
        a = np.abs(z)
        m = np.maximum(a.max(axis=-1), _TINY)     # the zero vector: 0/_TINY
        a /= m[..., None]
        return m * root(power_sum(a))

    def gauge(z):
        z = np.asarray(z, dtype=float)
        if z.ndim == 1:
            return gauge(z[None])[0]
        with np.errstate(over="ignore"):          # an overflowed row is redone scaled
            s = power_sum(np.abs(z))
        g = root(s)
        redo = ~((s >= _NORMAL_MIN) & (s < np.inf))   # NaN rows too
        if redo.any():
            g[redo] = scaled(z[redo])
        return g

    return gauge


def _linf_gauge() -> Gauge:
    return lambda z: np.abs(z).max(axis=-1)


def _functional_gauge(functionals: np.ndarray) -> Gauge:
    mat_t = np.ascontiguousarray(functionals.T)  # (dim, m)

    def gauge(z):
        values = np.asarray(z, dtype=float) @ mat_t
        np.abs(values, out=values)   # in place: one N x m temporary
        # The max over the short facet axis one column at a time, as the lp
        # power sum adds: a reduction over a short last axis costs more.
        # The max is exact, so the bits are those of values.max(axis=-1).
        g = values[..., 0].copy()
        for i in range(1, values.shape[-1]):
            np.maximum(g, values[..., i], out=g)
        return g[()]   # a scalar for a single vector

    return gauge


def _convex_hull_2d(points: np.ndarray) -> np.ndarray:
    """Counterclockwise hull vertices via the monotone chain, no libraries."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)  # lexicographic sort + dedup
    if len(pts) < 3:
        raise ValueError("degenerate hull: fewer than 3 distinct points")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for pt in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list = []
    for pt in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    hull = np.asarray(lower[:-1] + upper[:-1])
    if len(hull) < 3:
        raise ValueError("degenerate hull: all points are collinear")
    return hull


def polygon_facet_functionals(vertices) -> np.ndarray:
    """Facet functionals of the symmetric polygon conv(V u -V).

    Returns an (m, 2) array F with gauge(x) = max_i |<F_i, x>|; each row is an
    outward facet normal scaled so the facet lies on <F_i, x> = 1.
    """
    varr = np.asarray(vertices, dtype=float)
    sym = np.vstack([varr, -varr])
    hull = _convex_hull_2d(sym)
    a = hull
    b = np.roll(hull, -1, axis=0)
    # Outward normal of the CCW edge a->b.
    normals = np.stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]], axis=1)
    offsets = (normals * a).sum(axis=1)
    scale = np.abs(hull).max()
    if np.any(offsets <= 1e-12 * scale * np.abs(normals).max()):
        raise ValueError("degenerate hull: origin is not interior to conv(V u -V)")
    return normals / offsets[:, None]


def longest_facet_segment(F, gauge: Gauge) -> tuple[np.ndarray, np.ndarray]:
    """Ends (u, v) of the longest segment, in the norm gauge, in one facet of
    the ball max_i |<F_i, x>| <= 1: two vertices of the facet, as the norm
    is convex.  The vertices of facet i solve <F_i, x> = 1 with dim - 1
    other facet equations <+-F_j, x> = 1 and lie in the ball; the facets of
    -F are the negations of those of F."""
    F = np.asarray(F, dtype=float)
    m, dim = F.shape
    rows = np.array([(i, *rest) for i in range(m) for rest in
                     itertools.combinations([j for j in range(2 * m) if j % m != i], dim - 1)])
    A = np.concatenate([F, -F])[rows]
    ok = np.abs(np.linalg.det(A)) > 1e-12 * np.abs(A).max(axis=(1, 2)) ** dim
    X = np.linalg.solve(A[ok], np.ones((int(ok.sum()), dim, 1)))[..., 0]
    inside = np.abs(X @ F.T).max(axis=1) <= 1.0 + 1e-9
    X, facet = X[inside], rows[ok, 0][inside]
    i, j = np.nonzero(facet[:, None] == facet)
    best = np.argmax(gauge(X[i] - X[j]))
    return X[i[best]], X[j[best]]


# --------------------------------------------------------------------------
# Space
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Space:
    """A realized normed space: dimension plus vectorized gauge."""

    dim: int
    gauge: Gauge
    spec: NormSpec | None = None
    is_euclidean: bool = False
    name: str = ""
    # Always None: nothing in the package reads it.  perfbench/count_cli.py
    # still reads and replaces it when it counts gauge calls.
    scalar_gauge: Callable[[float, float], float] | None = None
    # Weighted lp only: w^(-1/p), the isometry z -> scale * z from lp onto this
    # space.  search.sphere_points takes directions in lp's coordinates through
    # it, so the grids are uniform on the lp sphere however uneven the weights.
    scale: np.ndarray | None = field(default=None, compare=False)

    def norm(self, v) -> float:
        return float(self.gauge(np.asarray(v, dtype=float)))

    def __repr__(self):  # keep dataclass repr from dumping the closure
        return f"Space({self.name or self.spec or self.dim})"


def build_space(spec: NormSpec) -> Space:
    """Validate a spec and construct the Space realizing it.

    lp and weighted-lp gauges are also sample-checked against the norm
    axioms (validate_space), and a violation raises ValueError naming the
    axiom.  The
    polygon families are checked by NormSpec.validate.
    """
    spec.validate()
    fam = spec.family
    if fam == "lp":
        return _checked(Space(spec.dim, _lp_gauge(spec.p), spec, is_euclidean=(spec.p == 2.0),
                              name=f"lp(p={spec.p:g},dim={spec.dim})"))
    if fam == "linf":
        return Space(spec.dim, _linf_gauge(), spec, name=f"linf(dim={spec.dim})")
    if fam == "weighted-lp":
        w = np.asarray(spec.weights, dtype=float)
        return _checked(Space(len(w), _lp_gauge(spec.p, w), spec, is_euclidean=(spec.p == 2.0),
                              name=f"wlp(p={spec.p:g},dim={len(w)})",
                              scale=w ** (-1.0 / spec.p)))
    if fam == "poly-functionals":
        mat = np.asarray(spec.functionals, dtype=float)
        return Space(mat.shape[1], _functional_gauge(mat), spec,
                     name=f"polyf(m={mat.shape[0]},dim={mat.shape[1]})")
    # poly-vertices
    facets = polygon_facet_functionals(spec.vertices)
    return Space(2, _functional_gauge(facets), spec, name=f"polyv(m={len(facets)})")


def _checked(space: Space) -> Space:
    """space, or ValueError naming the first axiom its gauge fails."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        bad = validate_space(space)
    if bad:
        raise ValueError(f"{space.name} fails the {bad[0].axiom} axiom on sampled "
                         f"vectors: {bad[0].detail}")
    return space


# --------------------------------------------------------------------------
# Axiom validation by sampling
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomViolation:
    axiom: str       # "positivity" | "homogeneity" | "triangle"
    detail: str
    error: float


def validate_space(space: Space, samples: int = 1000, seed: int = 0) -> list[AxiomViolation]:
    """Sample-check the norm axioms; an empty list means no violation found.

    positivity   0 < gauge(x) < inf for sampled x != 0
    homogeneity  gauge(c x) = |c| gauge(x) within 1e-12 relative
    triangle     gauge(x + y) <= gauge(x) + gauge(y) within 1e-12 relative
    """
    # Draws from the stdlib generator: importing numpy.random takes longer
    # (about 12 ms) than this whole check, which build_space runs.
    n = 2 * samples * space.dim
    bits = np.frombuffer(random.Random(seed).randbytes(8 * (2 * n + samples)), dtype="<u8")
    u = ((bits >> np.uint64(11)) + 0.5) * 2.0 ** -53     # uniform in (0, 1)
    xs, ys = (np.sqrt(-2.0 * np.log(u[:n])) * np.cos(2.0 * np.pi * u[n:2 * n])   # Box-Muller
              ).reshape(2, samples, space.dim)
    cs = -3.0 + 6.0 * u[2 * n:]

    gx = np.asarray(space.gauge(xs), dtype=float)
    gy = np.asarray(space.gauge(ys), dtype=float)
    out: list[AxiomViolation] = []

    bad = np.flatnonzero(~((gx > 0.0) & (gx < np.inf)))   # NaN fails both
    for i in bad[:100]:
        out.append(AxiomViolation(
            "positivity", f"gauge({xs[i].tolist()}) = {float(gx[i])!r} is not finite and > 0",
            float(-gx[i])))

    gcx = np.asarray(space.gauge(cs[:, None] * xs), dtype=float)
    expect = np.abs(cs) * gx
    herr = np.abs(gcx - expect)
    bad = np.flatnonzero(herr > 1e-12 * np.maximum(1.0, np.abs(expect)))
    for i in bad[:100]:
        out.append(AxiomViolation(
            "homogeneity", f"gauge({cs[i]} * x) = {float(gcx[i])!r}, expected {float(expect[i])!r}", float(herr[i])))

    gxy = np.asarray(space.gauge(xs + ys), dtype=float)
    terr = gxy - (gx + gy)
    bad = np.flatnonzero(terr > 1e-12 * np.maximum(1.0, gx + gy))
    for i in bad[:100]:
        out.append(AxiomViolation(
            "triangle", f"gauge(x+y) = {float(gxy[i])!r} exceeds gauge(x)+gauge(y) = {float((gx + gy)[i])!r}", float(terr[i])))

    return out


# --------------------------------------------------------------------------
# Spec-string grammar
# --------------------------------------------------------------------------

def parse_space_spec(text: str, allow_missing_p: bool = False) -> NormSpec:
    """Parse a space string such as "lp:p=1.5,dim=2" or "polyv:v=[[1,0],[0,1]]".

    Whitespace-insensitive.  allow_missing_p admits an lp/wlp skeleton without
    p for parameter sweeps.
    """
    s = re.sub(r"\s+", "", text)
    token, sep, rest = s.partition(":")
    if token not in _FAMILY_TOKENS:
        raise ValueError(f"unknown family token {token!r}; expected one of {sorted(_FAMILY_TOKENS)}")
    family = _FAMILY_TOKENS[token]
    kv: dict[str, str] = {}
    for part in _split_top_level(rest):
        if not part:
            continue
        key, eq, value = part.partition("=")
        if not eq or not value:
            raise ValueError(f"malformed parameter {part!r}; expected key=value")
        if key in kv:
            raise ValueError(f"duplicate parameter {key!r}")
        kv[key] = value

    allowed = {"lp": {"p", "dim"}, "linf": {"dim"}, "wlp": {"p", "w"},
               "polyf": {"f"}, "polyv": {"v"}}[token]
    extra = set(kv) - allowed
    if extra:
        raise ValueError(f"unexpected parameter(s) {sorted(extra)} for family {token!r}")

    def want(key: str) -> str:
        if key not in kv:
            raise ValueError(f"family {token!r} requires parameter {key!r}")
        return kv[key]

    try:
        p = float(kv["p"]) if "p" in kv else None
        if p is None and token in ("lp", "wlp") and not allow_missing_p:
            raise ValueError(f"family {token!r} requires parameter 'p'")
        if token == "lp":
            return NormSpec("lp", dim=int(want("dim")), p=p)
        if token == "linf":
            return NormSpec("linf", dim=int(want("dim")))
        if token == "wlp":
            w = _parse_list(want("w"))
            return NormSpec("weighted-lp", dim=len(w), p=p, weights=tuple(w))
        if token == "polyf":
            rows = _parse_nested(want("f"))
            return NormSpec("poly-functionals", dim=len(rows[0]) if rows else 0,
                            functionals=tuple(tuple(r) for r in rows))
        rows = _parse_nested(want("v"))
        return NormSpec("poly-vertices", dim=2, vertices=tuple(tuple(r) for r in rows))
    except ValueError:
        raise
    except Exception as exc:
        raise ValueError(f"could not parse space spec {text!r}: {exc}") from exc


def _split_top_level(s: str) -> list[str]:
    # Split on commas not nested inside brackets.
    parts, depth, cur = [], 0, []
    for ch in s:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced brackets in {s!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced brackets in {s!r}")
    parts.append("".join(cur))
    return parts


def _parse_list(text: str) -> list[float]:
    val = ast.literal_eval(text)
    if not isinstance(val, (list, tuple)) or not all(isinstance(x, (int, float)) for x in val):
        raise ValueError(f"expected a flat numeric list, got {text!r}")
    return [float(x) for x in val]


def _parse_nested(text: str) -> list[list[float]]:
    val = ast.literal_eval(text)
    if not isinstance(val, (list, tuple)) or not val:
        raise ValueError(f"expected a list of vectors, got {text!r}")
    rows = []
    for row in val:
        if not isinstance(row, (list, tuple)) or not all(isinstance(x, (int, float)) for x in row):
            raise ValueError(f"expected numeric vectors, got {row!r}")
        rows.append([float(x) for x in row])
    if len({len(r) for r in rows}) != 1:
        raise ValueError("vectors must share a common length")
    return rows


# --------------------------------------------------------------------------
# Battery of random polyhedral norms
# --------------------------------------------------------------------------

def battery_specs(seed: int, count: int) -> list[NormSpec]:
    """Seeded random symmetric 2D polyhedral norms, 6-16 hull vertices each."""
    rng = np.random.default_rng(seed)
    specs: list[NormSpec] = []
    while len(specs) < count:
        m = int(rng.integers(3, 9))  # generators; symmetric hull has <= 2m vertices
        angles = rng.uniform(0.0, 2.0 * np.pi, m)
        # Snap vertex directions to the 0.1-degree lattice: hull corners then
        # sit exactly on dense angular reference grids, so refinement-free
        # cross-checks are not handicapped by corner extrema falling between
        # grid lines.
        step = 2.0 * np.pi / 3600.0
        angles = np.round(angles / step) * step
        # Moderate radius spread keeps hull kinks gentle enough that
        # refinement-free reference grids resolve edge-interior extrema too.
        radii = rng.uniform(0.75, 1.25, m)
        verts = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)
        spec = NormSpec("poly-vertices", dim=2, vertices=tuple(map(tuple, verts)))
        try:
            facets = polygon_facet_functionals(verts)
        except ValueError:
            continue  # collinear draw; redo deterministically
        if not 6 <= len(facets) <= 16:
            continue  # hull dropped interior generators below the floor
        specs.append(spec)
    return specs

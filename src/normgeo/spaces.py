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
import math
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
_TOKEN_OF_FAMILY = {v: k for k, v in _FAMILY_TOKENS.items()}


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
        if self.family == "lp":
            if self.p is None:
                raise ValueError("lp spec is missing p")
            if not (1.0 <= self.p < math.inf):
                raise ValueError(f"lp requires a finite p >= 1, got p={self.p}")
            if self.dim < 2:
                raise ValueError(f"dim must be >= 2, got {self.dim}")
        elif self.family == "linf":
            if self.dim < 2:
                raise ValueError(f"dim must be >= 2, got {self.dim}")
        elif self.family == "weighted-lp":
            if self.p is None:
                raise ValueError("weighted-lp spec is missing p")
            if not (1.0 <= self.p < math.inf):
                raise ValueError(f"weighted-lp requires a finite p >= 1, got p={self.p}")
            if not self.weights:
                raise ValueError("weighted-lp requires a nonempty weight vector")
            if any(not (w > 0.0) for w in self.weights):
                raise ValueError(f"weighted-lp weights must be strictly positive, got {self.weights}")
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

    @classmethod
    def from_dict(cls, d: dict) -> "NormSpec":
        return cls(
            family=d["family"],
            dim=int(d.get("dim", 0)),
            p=d.get("p"),
            weights=d.get("weights"),
            functionals=d.get("functionals"),
            vertices=d.get("vertices"),
        )

    def to_string(self) -> str:
        """Render in the CLI grammar, inverse of parse_space_spec.  Floats
        are written with repr, so parsing the result gives back an equal spec."""
        token = _TOKEN_OF_FAMILY[self.family]
        if self.family == "lp":
            return f"{token}:p={float(self.p)!r},dim={self.dim}"
        if self.family == "linf":
            return f"{token}:dim={self.dim}"
        if self.family == "weighted-lp":
            w = "[" + ",".join(repr(x) for x in self.weights) + "]"
            return f"{token}:p={float(self.p)!r},w={w}"
        if self.family == "poly-functionals":
            f = "[" + ",".join("[" + ",".join(repr(c) for c in row) + "]" for row in self.functionals) + "]"
            return f"{token}:f={f}"
        v = "[" + ",".join("[" + ",".join(repr(c) for c in row) + "]" for row in self.vertices) + "]"
        return f"{token}:v={v}"


# --------------------------------------------------------------------------
# Gauges
# --------------------------------------------------------------------------

def _lp_gauge(p: float, weights: np.ndarray | None = None) -> Gauge:
    if weights is None:
        if p == 1.0:
            return lambda z: np.abs(z).sum(axis=-1)
        if p == 2.0:
            return lambda z: np.sqrt((np.asarray(z, dtype=float) ** 2).sum(axis=-1))
        return lambda z: (np.abs(z) ** p).sum(axis=-1) ** (1.0 / p)
    w = np.asarray(weights, dtype=float)
    if p == 1.0:
        return lambda z: (w * np.abs(z)).sum(axis=-1)
    if p == 2.0:
        return lambda z: np.sqrt((w * np.asarray(z, dtype=float) ** 2).sum(axis=-1))
    return lambda z: (w * np.abs(z) ** p).sum(axis=-1) ** (1.0 / p)


def _linf_gauge() -> Gauge:
    return lambda z: np.abs(z).max(axis=-1)


# Scalar twins of the 2D gauges, used by the optimizer's polish loop where
# per-call numpy overhead would dominate.  Same formulas, plain floats.

def _scalar_lp2(p: float, weights=None):
    if weights is None:
        if p == 1.0:
            return lambda a, b: abs(a) + abs(b)
        if p == 2.0:
            return lambda a, b: math.sqrt(a * a + b * b)
        pinv = 1.0 / p
        return lambda a, b: (abs(a) ** p + abs(b) ** p) ** pinv
    w0, w1 = float(weights[0]), float(weights[1])
    if p == 1.0:
        return lambda a, b: w0 * abs(a) + w1 * abs(b)
    if p == 2.0:
        return lambda a, b: math.sqrt(w0 * a * a + w1 * b * b)
    pinv = 1.0 / p
    return lambda a, b: (w0 * abs(a) ** p + w1 * abs(b) ** p) ** pinv


def _scalar_linf2():
    return lambda a, b: max(abs(a), abs(b))


def _scalar_functional2(functionals: np.ndarray):
    rows = [(float(r[0]), float(r[1])) for r in functionals]

    def sg(a, b):
        best = 0.0
        for f0, f1 in rows:
            v = f0 * a + f1 * b
            if v < 0.0:
                v = -v
            if v > best:
                best = v
        return best

    return sg


def _functional_gauge(functionals: np.ndarray) -> Gauge:
    mat_t = np.ascontiguousarray(functionals.T)  # (dim, m)

    def gauge(z):
        values = np.asarray(z, dtype=float) @ mat_t
        return np.abs(values, out=values).max(axis=-1)   # in place: one N x m temporary

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


# --------------------------------------------------------------------------
# Space
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Space:
    """A realized normed space: dimension plus vectorized gauge.

    scalar_gauge, present for 2D spaces, is a float twin of the vectorized
    gauge taking the two components directly; the optimizer uses it for its
    many single-point polish evaluations.
    """

    dim: int
    gauge: Gauge
    spec: NormSpec | None = None
    is_euclidean: bool = False
    name: str = ""
    scalar_gauge: Callable[[float, float], float] | None = None

    def norm(self, v) -> float:
        return float(self.gauge(np.asarray(v, dtype=float)))

    def __repr__(self):  # keep dataclass repr from dumping the closure
        return f"Space({self.name or self.spec or self.dim})"


def build_space(spec: NormSpec) -> Space:
    """Validate a spec and construct the Space realizing it."""
    spec.validate()
    fam = spec.family
    if fam == "lp":
        gauge = _lp_gauge(spec.p)
        return Space(spec.dim, gauge, spec, is_euclidean=(spec.p == 2.0),
                     name=f"lp(p={spec.p:g},dim={spec.dim})",
                     scalar_gauge=_scalar_lp2(spec.p) if spec.dim == 2 else None)
    if fam == "linf":
        return Space(spec.dim, _linf_gauge(), spec, name=f"linf(dim={spec.dim})",
                     scalar_gauge=_scalar_linf2() if spec.dim == 2 else None)
    if fam == "weighted-lp":
        w = np.asarray(spec.weights, dtype=float)
        gauge = _lp_gauge(spec.p, w)
        return Space(len(w), gauge, spec, is_euclidean=(spec.p == 2.0),
                     name=f"wlp(p={spec.p:g},dim={len(w)})",
                     scalar_gauge=_scalar_lp2(spec.p, w) if len(w) == 2 else None)
    if fam == "poly-functionals":
        mat = np.asarray(spec.functionals, dtype=float)
        return Space(mat.shape[1], _functional_gauge(mat), spec,
                     name=f"polyf(m={mat.shape[0]},dim={mat.shape[1]})",
                     scalar_gauge=_scalar_functional2(mat) if mat.shape[1] == 2 else None)
    # poly-vertices
    facets = polygon_facet_functionals(spec.vertices)
    return Space(2, _functional_gauge(facets), spec, name=f"polyv(m={len(facets)})",
                 scalar_gauge=_scalar_functional2(facets))


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

    positivity   gauge(x) > 0 for sampled x != 0
    homogeneity  gauge(c x) = |c| gauge(x) within 1e-12 relative
    triangle     gauge(x + y) <= gauge(x) + gauge(y) + 1e-12
    """
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((samples, space.dim))
    ys = rng.standard_normal((samples, space.dim))
    cs = rng.uniform(-3.0, 3.0, samples)

    gx = np.asarray(space.gauge(xs), dtype=float)
    gy = np.asarray(space.gauge(ys), dtype=float)
    out: list[AxiomViolation] = []

    bad = np.flatnonzero(~(gx > 0.0))
    for i in bad[:100]:
        out.append(AxiomViolation(
            "positivity", f"gauge({xs[i].tolist()}) = {gx[i]!r} is not > 0", float(-gx[i])))

    gcx = np.asarray(space.gauge(cs[:, None] * xs), dtype=float)
    expect = np.abs(cs) * gx
    herr = np.abs(gcx - expect)
    bad = np.flatnonzero(herr > 1e-12 * np.maximum(1.0, np.abs(expect)))
    for i in bad[:100]:
        out.append(AxiomViolation(
            "homogeneity", f"gauge({cs[i]} * x) = {gcx[i]!r}, expected {expect[i]!r}", float(herr[i])))

    gxy = np.asarray(space.gauge(xs + ys), dtype=float)
    terr = gxy - (gx + gy)
    bad = np.flatnonzero(terr > 1e-12)
    for i in bad[:100]:
        out.append(AxiomViolation(
            "triangle", f"gauge(x+y) = {gxy[i]!r} exceeds gauge(x)+gauge(y) = {(gx + gy)[i]!r}", float(terr[i])))

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
        if token == "lp":
            p = float(kv["p"]) if "p" in kv else None
            if p is None and not allow_missing_p:
                raise ValueError("family 'lp' requires parameter 'p'")
            return NormSpec("lp", dim=int(want("dim")), p=p)
        if token == "linf":
            return NormSpec("linf", dim=int(want("dim")))
        if token == "wlp":
            p = float(kv["p"]) if "p" in kv else None
            if p is None and not allow_missing_p:
                raise ValueError("family 'wlp' requires parameter 'p'")
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

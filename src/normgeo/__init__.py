"""Geometric constants of finite-dimensional normed spaces.

Computes sphere-pair constants (the P-angle constant, James, von
Neumann-Jordan variants, Zbaganu, Schaffer, and friends), the moduli of
convexity and smoothness, and runs a registry of inequality checks relating
them, with explicit witnesses for every reported extremum.
"""
from .spaces import (
    NormSpec,
    Space,
    AxiomViolation,
    build_space,
    validate_space,
    parse_space_spec,
    battery_specs,
)
from .search import SearchConfig, ConstantEstimate, maximize_pair, minimize_pair, infsup_pair
from . import constants, oracle, verify

__all__ = [
    "NormSpec",
    "Space",
    "AxiomViolation",
    "build_space",
    "validate_space",
    "parse_space_spec",
    "battery_specs",
    "SearchConfig",
    "ConstantEstimate",
    "maximize_pair",
    "minimize_pair",
    "infsup_pair",
    "constants",
    "oracle",
    "verify",
]

__version__ = "0.1.0"

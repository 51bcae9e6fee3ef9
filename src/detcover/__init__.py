"""Randomized determinant sieve for exact cover by k-sets and
k-dimensional matching, with exact oracles and parameter tables."""

from .gf2m import GF2m, GF8, GF64, field_for, is_irreducible
from .hypergraph import (Hypergraph, ParseError, ProjectedView, Violation,
                         generate, parse, project, restrict_avoiding,
                         serialize, validate)
from .linalg import determinant, evaluate, interpolate, series_determinant
from .matchweight import cover_weight, elementary_symmetric, loop_weights
from .oracle import (cover_weight_brute, dlx_count, dlx_enumerate,
                     enumerate_matchings, ie_count)
from .params import (ParamRow, REFERENCE_ROWS, general_bound, kdm_base,
                     optimize, repetitions, runtime_base,
                     success_probability_exact)
from .solver import Decision, SieveConfig, sieve_decide, solve_kdm, solve_xkc

__version__ = "0.1.0"

__all__ = [
    "GF2m", "GF8", "GF64", "field_for", "is_irreducible",
    "Hypergraph", "ParseError", "ProjectedView", "Violation",
    "generate", "parse", "project", "restrict_avoiding", "serialize", "validate",
    "determinant", "evaluate", "interpolate", "series_determinant",
    "cover_weight", "elementary_symmetric", "loop_weights",
    "cover_weight_brute", "dlx_count", "dlx_enumerate", "enumerate_matchings",
    "ie_count",
    "ParamRow", "REFERENCE_ROWS", "general_bound", "kdm_base", "optimize",
    "repetitions", "runtime_base", "success_probability_exact",
    "Decision", "SieveConfig", "sieve_decide", "solve_kdm", "solve_xkc",
    "__version__",
]

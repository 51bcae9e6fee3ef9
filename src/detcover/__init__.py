"""Randomized determinant sieve for exact cover by k-sets and
k-dimensional matching, with exact oracles and parameter tables."""

from .gf2m import GF2m, GF8, GF64, field_for, is_irreducible
from .hypergraph import (Hypergraph, ParseError, ProjectedView, generate,
                         parse, project, restrict_avoiding, serialize,
                         validate)
from .linalg import determinant, evaluate, interpolate, series_determinant
from .matchweight import cover_weight, elementary_symmetric, loop_weights
from .oracle import dlx_count, dlx_enumerate, ie_count
from .params import (ParamRow, REFERENCE_ROWS, general_bound, kdm_base,
                     optimize, repetitions, runtime_base,
                     success_probability_exact)
from .solver import Decision, SieveConfig, sieve_decide, solve_kdm, solve_xkc

__version__ = "0.1.0"

__all__ = [
    "GF2m", "GF8", "GF64", "field_for", "is_irreducible",
    "Hypergraph", "ParseError", "ProjectedView",
    "generate", "parse", "project", "restrict_avoiding", "serialize", "validate",
    "determinant", "evaluate", "interpolate", "series_determinant",
    "cover_weight", "elementary_symmetric", "loop_weights",
    "dlx_count", "dlx_enumerate", "ie_count",
    "ParamRow", "REFERENCE_ROWS", "general_bound", "kdm_base", "optimize",
    "repetitions", "runtime_base", "success_probability_exact",
    "Decision", "SieveConfig", "sieve_decide", "solve_kdm", "solve_xkc",
    "__version__",
]

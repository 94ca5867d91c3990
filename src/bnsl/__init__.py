"""Exact toolkit for score-based Bayesian network and polytree learning.

Submodules:
  instances  -- score representations, file formats, scoring, validation
  graphs     -- spanning forests, feedback edges, tree decompositions
  kernel     -- polynomial-time data reduction with solution lifting
  lfen_dp    -- record DP over a witness spanning tree
  tw_dp      -- snapshot DP over a nice tree decomposition (additive scores)
  relations  -- packed boundary relations shared by both DP families
  polytree   -- spanning-forest and matroid-intersection polytree solvers
  depset     -- subset DP over the dependent vertices
  oracle     -- exhaustive reference solvers used by the test suites
  generate   -- reproducible random instances
"""

from .instances import (
    AdditiveInstance,
    Network,
    NonZeroInstance,
    ParseError,
    Superstructure,
    parse_additive,
    parse_nonzero,
    parse_solution,
    score_of,
    superstructure,
    to_nonzero,
    validate,
    write_additive,
    write_nonzero,
    write_solution,
)

__all__ = [
    "AdditiveInstance",
    "Network",
    "NonZeroInstance",
    "ParseError",
    "Superstructure",
    "parse_additive",
    "parse_nonzero",
    "parse_solution",
    "score_of",
    "superstructure",
    "to_nonzero",
    "validate",
    "write_additive",
    "write_nonzero",
    "write_solution",
]

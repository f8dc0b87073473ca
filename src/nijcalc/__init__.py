"""Exact invariants of polynomial almost complex structures.

Core layers:
  poly        exact multivariate polynomials and vector fields
  linalg      exact linear algebra over any exact field
  tensor      point tensors and multilinear operations
  structures  structure fields on a chart, validation, realization
  invariants  Nijenhuis tensor, higher tensor, linear space, differentials
  forms       vector-valued forms and the two graded brackets
  genpos      general-position tests and subspace decompositions
  jets        Cauchy-Riemann jet residuals, obstructions, lifting
  classify    4D frame invariants, Tanaka forms, Lie-structure checks
"""

__version__ = "0.1.0"

"""Numerical tolerances shared across modules.

Rank/orthogonality decisions default to 1e-9 and may be overridden
through the NLWE_TOLERANCE environment variable, which every decision
reads (``tolerance()``); only the ``linalg`` rank primitives also take an
explicit threshold.  Eigenvalue sign decisions use the tighter 1e-10
default.

The span tolerance bounds a singular value of unit-normalised vectors
(see ``linalg``).  It must be finite and lie in (0, (sqrt(5) - 1)/2),
about (0, 0.618): there no pair of unit vectors is both rank 1 within
tolerance (its smaller singular value, sqrt(1 - overlap), <= tol) and
orthogonal within tolerance (overlap <= tol), which needs
tol >= sqrt(1 - tol).  The extendibility search further requires
tol < 1/sqrt(d) on its largest local dimension d (see
``upb.extendibility_search``).
"""

from __future__ import annotations

import math
import os

from .errors import PreconditionError

DEFAULT_TOLERANCE = 1e-9
EIGENVALUE_SIGN_TOL = 1e-10
MAX_TOLERANCE = (math.sqrt(5) - 1) / 2


def tolerance(override: float | None = None) -> float:
    """Resolve the span/orthogonality tolerance for one operation."""
    if override is not None:
        value, source = override, "tolerance"
    else:
        value, source = os.environ.get("NLWE_TOLERANCE"), "NLWE_TOLERANCE"
        if not value:
            return DEFAULT_TOLERANCE
    try:
        tol = float(value)
    except (TypeError, ValueError):
        raise PreconditionError(f"{source} {value!r} is not a number") from None
    if not 0.0 < tol < MAX_TOLERANCE:
        raise PreconditionError(
            f"{source} {value!r} must be finite and in (0, (sqrt(5)-1)/2)"
        )
    return tol

"""Exception hierarchy with machine-parsable error codes.

Every error carries a short ``code`` used by the CLI to print one-line
``error:<code>: <message>`` diagnostics.
"""

from __future__ import annotations


class NlweError(Exception):
    """Base class for all toolkit errors."""

    code = "error"


class InvalidDimensionError(NlweError):
    code = "invalid-dimension"


class DimensionMismatchError(NlweError):
    code = "dimension-mismatch"


class ContractViolationError(NlweError):
    code = "contract-violation"


class ConvergenceError(NlweError):
    code = "no-convergence"


class DegenerateCutError(NlweError):
    code = "degenerate-cut"


class ConstructionError(NlweError):
    code = "construction-error"


class PreconditionError(NlweError):
    code = "precondition-failed"


class UnsupportedShapeError(NlweError):
    code = "unsupported-shape"


class TooLargeError(NlweError):
    code = "too-large"


class UnknownPresetError(NlweError):
    code = "unknown-preset"


class MalformedJsonError(NlweError):
    code = "malformed-json"

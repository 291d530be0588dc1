"""Exception types shared across the package, and its checks for integers
and real numbers."""

import math
import numbers
import operator


class MtdistError(Exception):
    """Base class for all library errors."""


class ValidationError(MtdistError):
    """A structural invariant of a merge tree or its labeling is violated."""


class CycleDetected(ValidationError):
    pass


class MultipleRoots(ValidationError):
    pass


class NonDecreasingScalar(ValidationError):
    """A child's scalar is not strictly below its parent's."""


class DisconnectedVertex(ValidationError):
    pass


class MissingLeafLabel(ValidationError):
    """A leaf carries no label."""


class InvalidVertex(MtdistError):
    pass


class UnknownLabel(MtdistError):
    pass


class DuplicateLabel(MtdistError):
    pass


class NonLeafLabel(MtdistError):
    pass


class LabelMismatch(MtdistError):
    """Two matrices do not share the same label index sets."""


class KTooLarge(MtdistError):
    pass


class NonFiniteCost(MtdistError):
    pass


class NotFullAgreement(MtdistError):
    pass


class DisagreementUnsupported(MtdistError):
    """The baseline needs geometric embedding data to handle disjoint labels."""


class DisagreementEmptyTree(MtdistError):
    pass


class TooLarge(MtdistError):
    """Instance exceeds the exhaustive-search guard."""


class TooSmall(MtdistError):
    pass


class TooManyDeletions(MtdistError):
    pass


class MtreeSyntaxError(MtdistError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def integer(value, what: str) -> int:
    """``value`` as an int by ``operator.index``, the rule labels and vertex
    ids follow; ValidationError naming ``what`` for anything else."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {value!r}") from None


def real(value, what: str) -> float:
    """``value`` as a float if it is a finite real number (``numbers.Real``,
    so ints and numpy scalars too, but no string); ValidationError naming
    ``what`` for anything else."""
    if not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValidationError(f"{what} must be a finite real number, got {value!r}")
    return float(value)

"""Exception hierarchy.

``SchemaError`` marks malformed input documents (CLI exit code 2); every
other domain failure derives from ``DomainError`` (CLI exit code 1).
"""

__all__ = [
    "DomainError",
    "SchemaError",
    "SectorError",
    "LabelError",
    "ImproperPairError",
    "OutOfImageError",
    "PosetCycleError",
    "TriangularError",
    "SearchLimitError",
]


class DomainError(ValueError):
    """A well-formed request that violates a mathematical precondition."""


class SchemaError(ValueError):
    """An input document that does not match its declared schema."""


class SectorError(DomainError):
    """A sector index that does not belong to the model in question."""


class LabelError(DomainError):
    """A fiber-class label outside the model's label image, or a bad rank."""


class ImproperPairError(DomainError):
    """An insertion pair whose degrees do not match the label data."""


class OutOfImageError(DomainError):
    """An absolute datum with no relative preimage (uncarried phase, or codimension 1)."""


class PosetCycleError(DomainError):
    """A cycle reported by the linear-extension sort (ordering bug)."""


class TriangularError(DomainError):
    """A zero diagonal entry or dimension mismatch in a triangular system."""


class SearchLimitError(DomainError):
    """The bounded comparison search would exceed its component cap."""

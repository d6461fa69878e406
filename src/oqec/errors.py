"""Exception types shared across the package.

Everything derives from ValueError so callers that do not care about the
fine-grained failure mode can catch one thing.
"""


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class NotHermitianError(ValueError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotAStateError(ValueError):
    """A matrix fails the density-matrix contract (Hermitian, PSD, unit trace)."""


class NotCorrectableError(ValueError):
    """The noise fails the correctability test for the given decomposition."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = float(residual)


class DegenerateChannelError(ValueError):
    """The channel annihilates the code sector; there is nothing to normalize."""


class FormatError(ValueError):
    """A serialized payload violates the interchange schema."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field

"""Exception types shared across the package."""


class TetIndexError(Exception):
    """Base class for all package-specific errors."""


class PrecisionError(TetIndexError):
    """A series does not carry enough known coefficients for the request."""


class DegreeCeilingError(TetIndexError):
    """Minimal-degree search exhausted its precision ceiling without
    finding a nonzero coefficient."""


class StabilizationError(TetIndexError):
    """An adaptive summation window or box hit its cap before the
    truncation bound was satisfied."""


class ExprSyntaxError(TetIndexError):
    """Lattice-sum expression failed to parse.

    `position` is the character offset of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position

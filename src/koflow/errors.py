"""Exception types shared across the library.

The CLI maps these onto exit codes: ValidationError and its subclasses
exit with 2, numerical-guard failures (AmbiguousKernelError,
ObstructionError) exit with 3.
"""


class ValidationError(ValueError):
    """Input fails a structural precondition (shape, symmetry, relations)."""


class InvalidModuleError(ValidationError):
    """A multiplicity came out non-integral; carries the fractional value."""

    def __init__(self, message, fraction=None):
        super().__init__(message)
        self.fraction = fraction


class AmbiguousKernelError(RuntimeError):
    """No clean spectral gap between the zero cluster and the rest."""

    def __init__(self, message, gap_ratio=None):
        super().__init__(message)
        self.gap_ratio = gap_ratio


class ObstructionError(RuntimeError):
    """A kernel module does not extend by one more skew generator.

    Carries the nonzero obstruction class (a KOClass).
    """

    def __init__(self, message, ko_class=None):
        super().__init__(message)
        self.ko_class = ko_class

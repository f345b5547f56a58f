"""Exception types shared across the package."""


class StructureError(ValueError):
    """Operation tables are malformed (dimensions or index range); axioms were not checked."""


class ParseError(ValueError):
    """A semiring definition or certificate file is not well-formed."""


class CapExceededError(RuntimeError):
    """An enumeration would exceed the configured size cap.

    The offending size is available as ``size`` so callers can report it;
    it is None when the size is too large to form.
    """

    def __init__(self, message: str, size: int | None):
        super().__init__(message)
        self.size = size


class FingerprintError(ValueError):
    """A certificate does not belong to the supplied semiring."""


class InternalCheckError(RuntimeError):
    """A certification step that is mathematically guaranteed to succeed failed.

    This always indicates a bug in the tool, never a genuine negative result.
    """

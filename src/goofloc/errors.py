"""Exception types shared across the toolkit."""


class ConfigError(ValueError):
    """An experiment configuration field is missing or inconsistent."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):
        # pickle (field, message), not the joined text, so the error
        # survives the trip back from a sweep's worker process
        return type(self), (self.field, self.message)


class FormatError(Exception):
    """A persisted artifact is malformed or truncated.

    ``byte_offset`` points at the first byte that could not be interpreted.
    """

    def __init__(self, message: str, byte_offset: int | None = None):
        self.byte_offset = byte_offset
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)


class DegenerateGeometryError(ValueError):
    """Source and array positions coincide; no bearing is defined."""


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested estimate (e.g. all-zero row)."""


class NumericalFailure(RuntimeError):
    """An iterative numerical routine failed to converge."""

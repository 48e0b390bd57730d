"""Exception hierarchy shared by the library and the CLI exit-code mapping."""


class GraphhomError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GraphhomError):
    """Bad input: malformed data, violated precondition, out-of-range value."""


class ResourceCapError(GraphhomError):
    """A configured resource cap (cube count, dimension) was exceeded."""


class InternalError(GraphhomError):
    """An internal invariant failed; indicates a bug, not bad input."""

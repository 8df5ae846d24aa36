"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operands have incompatible shapes or an index is out of range."""


class SynthesisError(ValueError):
    """Target matrix cannot be realized by the requested synthesis route."""


class NonFiniteError(ValueError):
    """A value is nan or infinite, or overflows to infinity."""


class ContractionError(ValueError):
    """Matrix has a singular value above one and is not physically realizable."""

"""Typed errors shared across the package."""


class PadicError(ValueError):
    """Base class for domain errors raised by this package."""


class NotPIntegralError(PadicError):
    """Denominator is not a power of the prime."""


class PrimeMismatchError(PadicError):
    """Operands belong to different primes."""


class ModeMismatchError(PadicError):
    """Exact and floating coefficient modes were mixed."""


class LatticeMismatchError(PadicError):
    """Sampled functions live on different (resolution, support) lattices."""


class ResolutionError(PadicError):
    """Sampling lattice too coarse or too small; carries the required bound."""

    def __init__(self, message: str, required: int):
        super().__init__(f"{message} (required: {required})")
        self.required = required


class DepthTooSmallError(PadicError):
    """Enumeration depth below the sound bound; carries the required depth."""

    def __init__(self, depth: int, required: int):
        super().__init__(f"depth {depth} too small (required: {required})")
        self.required = required


class EmptyFunctionError(PadicError):
    """Operation needs a nonzero test function."""


class NonGenericError(PadicError):
    """Operation requires a generic function."""


class SpanError(PadicError):
    """Target function does not lie in the stated span."""


class SpecScaleError(PadicError):
    """A stabilizer spec's gamma_0 lies more than one above the minimal scale
    of f, so its translation group moves a term's support."""


class ConfigError(PadicError):
    """Malformed run configuration."""


class InvariantError(PadicError):
    """An internal invariant of the exact computation failed."""

"""Exception types shared across the toolkit."""


class DataError(ValueError):
    """Malformed, inconsistent, or missing input data."""


class NumericalError(ArithmeticError):
    """A computation failed numerically (silent input, divergence, overflow)."""

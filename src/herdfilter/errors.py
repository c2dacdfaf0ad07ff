"""Shared exception types."""


class NumericalError(RuntimeError):
    """A numerical contract was violated (factorization, clamp, divergence)."""


class DegenerateFilterError(NumericalError):
    """Every particle has log weight -inf at some timestep."""

    def __init__(self, t: int):
        self.t = t
        super().__init__(f"degenerate filter at t={t}: every log weight is -inf")


class ConfigError(ValueError):
    """Bad or missing experiment configuration."""

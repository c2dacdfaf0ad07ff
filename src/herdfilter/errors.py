"""Shared exception types."""


class NumericalError(RuntimeError):
    """A numerical contract was violated (factorization, clamp, divergence)."""


class DegenerateFilterError(NumericalError):
    """Every particle has zero weight (log weight -inf) at some timestep."""

    def __init__(self, t: int, total: float):
        self.t = t
        self.total = total
        super().__init__(
            f"degenerate filter at t={t}: total unnormalized weight {total!r}"
        )


class ConfigError(ValueError):
    """Bad or missing experiment configuration."""

"""Shared exception types."""


class CapacityError(RuntimeError):
    """Raised when an exact computation exceeds the configured size limit."""


class DistanceViolation(ValueError):
    """A claimed code contains a pair closer than the required distance."""

    def __init__(self, sigma, tau, distance: int, required: int):
        self.sigma = sigma
        self.tau = tau
        self.distance = distance
        self.required = required
        super().__init__(
            f"pair at Ulam distance {distance} < {required}: "
            f"{' '.join(map(str, sigma))} vs {' '.join(map(str, tau))}"
        )


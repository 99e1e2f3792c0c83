"""Exception types shared across the package."""


class SpinTomoError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpinTomoError):
    """Invalid or inconsistent run configuration."""


class NyquistError(SpinTomoError):
    """Sampling interval too coarse for the spectral content."""


class DegenerateTransitionError(SpinTomoError):
    """Two or more single-quantum transitions coincide in frequency."""

    def __init__(self, message, pairs=()):
        super().__init__(message)
        self.pairs = tuple(pairs)


class RankDeficiencyError(SpinTomoError):
    """Least-squares system does not determine all requested coefficients."""

    def __init__(self, message, labels=()):
        super().__init__(message)
        self.labels = tuple(labels)

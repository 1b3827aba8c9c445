"""Exceptions and warnings shared across the toolkit."""


class HawkesError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(HawkesError):
    """Malformed or dimensionally inconsistent input."""


class DomainError(HawkesError):
    """Argument outside the mathematically valid domain (e.g. query time
    outside the observation window)."""


class UnsupportedKernelError(HawkesError):
    """The kernel is not a :class:`~blockhawkes.kernels.SumExpKernel`."""


class LikelihoodUndefinedError(HawkesError):
    """An event has zero (or numerically vanishing) intensity under the model.

    Carries ``event_index`` so the offending event can be inspected.
    """

    def __init__(self, event_index, intensity):
        self.event_index = int(event_index)
        self.intensity = float(intensity)
        super().__init__(
            f"intensity {intensity:g} at event index {event_index} is below the "
            f"1e-300 floor; log-likelihood undefined"
        )


class NumericalError(HawkesError):
    """A numerical routine failed to reach its requested accuracy."""


class StabilityError(HawkesError):
    """Kernel-norm spectral radius >= 1 where a stationary model is required."""


class SimulationTruncatedError(HawkesError):
    """Simulation hit the event cap.  ``partial`` holds the sequence so far."""

    def __init__(self, message, partial):
        self.partial = partial
        super().__init__(message)


class FittingError(HawkesError):
    """Estimation failed with no usable iterate."""


class UndefinedSlopeError(HawkesError):
    """Q-Q regression slope is undefined (degenerate abscissae)."""


class ConfigError(HawkesError):
    """Invalid configuration value or combination."""


class ParseError(HawkesError):
    """Input file could not be parsed.  ``bad_lines`` lists (line_no, text)."""

    def __init__(self, message, bad_lines=None):
        self.bad_lines = list(bad_lines or [])
        super().__init__(message)


class StationarityWarning(UserWarning):
    """Kernel-norm spectral radius >= 1: the model is non-stationary."""


class DegenerateComponentWarning(UserWarning):
    """A component has too few events for some of its parameters to be
    identified; they were pinned to floor values."""

"""Exception types shared across the package."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioError(SimulationError):
    """A scenario file failed validation before any computation started."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


class NodeProximity(SimulationError):
    """The guiding density fell below the node threshold; the velocity is
    unreliable there and the trajectory must stop."""

    def __init__(self, s, message=None):
        super().__init__(message or f"density below node threshold at s={s}")
        self.s = s


class ValidityBreach(SimulationError):
    """A point left the region where the foliation is certified space-like."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class EnvelopeBreach(SimulationError):
    """Rejection sampling found a weight above the scanned envelope."""


class SamplerStall(SimulationError):
    """Rejection sampling accepted no proposal for some sample within its
    round limit; a finer envelope cannot help, so it is not retried."""


class BoundaryLeak(SimulationError):
    """The sampling box boundary carries non-negligible outward flux."""


class ConsistencyError(SimulationError):
    """An internal identity that must hold to roundoff was violated
    (e.g. a spinor bilinear came out with a non-real part)."""


class EmptyMarginal(SimulationError, ValueError):
    """A leaf density carries no mass on its box, so its marginal CDF
    cannot be normalized."""


class LabelOutOfRange(SimulationError, ValueError):
    """A crossing was requested on a leaf outside the integrated range."""


class NoSamples(SimulationError, ValueError):
    """The equivariance test was given no trajectories at all."""

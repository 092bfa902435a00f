"""Exception types shared across the package."""

from __future__ import annotations


class MagnlsError(Exception):
    """Base class for all errors raised by magnls."""


class GridMismatchError(MagnlsError):
    """Two fields (or a field and an operator) live on different grids."""


class ConfigError(MagnlsError):
    """A run configuration is malformed or violates a documented constraint."""


class NonConvergenceError(MagnlsError):
    """An iterative solve stopped without meeting its tolerance.

    Carries the last residual and iteration count so callers can report
    exactly how far the solve got.
    """

    def __init__(self, message: str, *, residual: float | None = None,
                 iterations: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class NoBoundStateError(MagnlsError):
    """The lowest eigenvalue is not below -1e-6, the threshold at which
    ``spectrum`` counts a level as bound: no linear bound state."""


class ContractionSetViolation(MagnlsError):
    """A fixed-point iterate left the invariant set of the small-amplitude map."""


class NewtonDivergence(MagnlsError):
    """The 2x2 Newton solve for the decomposition parameters did not converge."""


class ConservationBreach(MagnlsError):
    """A conserved quantity drifted past its configured tolerance mid-run.

    ``quantity`` names the drift ("mass_drift" or "energy_drift") and
    ``drift`` is its value when the run stopped.
    """

    def __init__(self, message: str, *, quantity: str, drift: float):
        super().__init__(message)
        self.quantity = quantity
        self.drift = drift


class InsufficientDecayWindow(MagnlsError):
    """Too few usable samples in the radial window to fit a decay rate."""

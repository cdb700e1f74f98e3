"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SyncgridError(Exception):
    """Base class for all package errors."""


# --- graph construction / topology ---

class DegenerateGraphError(SyncgridError):
    """Graph too small to analyze (n < 2)."""


class DisconnectedGraphError(SyncgridError):
    """Operation requires a connected graph."""


class DimensionMismatchError(SyncgridError):
    """Vector length does not match the node or edge count."""


class NotAcyclicError(SyncgridError):
    """Operation requires a tree."""


class NotACycleError(SyncgridError):
    """Operation requires a single cycle graph."""


# --- analysis preconditions ---

class NonZeroMeanFrequenciesError(SyncgridError):
    """Natural frequencies could not be recentred to zero mean."""


class GammaOutOfRangeError(SyncgridError):
    """Cohesiveness angle outside [0, pi/2]."""


class PsiOutOfRangeError(SyncgridError):
    """Edge variable has |psi_e| > 1, arcsin undefined."""


# --- solvers ---

class NoConvergenceError(SyncgridError):
    """Newton iteration did not reach the residual tolerance.

    Carries the last iterate and its residual for diagnostics.
    """

    def __init__(self, message: str, theta=None, residual: float | None = None):
        super().__init__(message)
        self.theta = theta
        self.residual = residual


class SingularJacobianError(SyncgridError):
    """Reduced Jacobian numerically singular: its 1-norm condition estimate
    exceeds equilibrium.CONDITION_LIMIT, or its LU has an exactly zero pivot."""


class NotAnEquilibriumError(SyncgridError):
    """Stability assessment called on a point that is not a fixed point."""


class NonFiniteStateError(SyncgridError):
    """Trajectory diverged to non-finite values."""


class NoSyncInBracketError(SyncgridError):
    """Critical-coupling search exhausted its bracket growth."""


# --- sampling ---

class InvalidSpecError(SyncgridError, ValueError):
    """Study parameters (random network spec, scenario config, loading grid)
    outside their documented ranges."""


class NonFiniteInputError(SyncgridError, ValueError):
    """A solver input (frequencies, initial angles) holds nan or inf."""


class ConnectivityRetryExceededError(SyncgridError):
    """Random graph sampling failed to produce a connected graph."""


class MarginRetryExceededError(SyncgridError):
    """Rejection sampling failed to produce a network with margin < 1."""


# --- power cases ---

class ParseError(SyncgridError):
    """Malformed case text; message carries line information when known."""


class InconsistentCaseError(SyncgridError):
    """Case references missing buses or violates schema constraints."""


class NonLosslessCaseError(SyncgridError):
    """Strict mode rejected a case with resistive branches."""


class SingularSystemError(SyncgridError):
    """Linear power-flow system is singular (disconnected network)."""


class IslandingDetectedError(SyncgridError):
    """Contingency trips split the network."""


class NoAdjustableSourcesError(SyncgridError):
    """Scenario config selects zero fast-ramping / controllable units."""


class InvalidLevelError(SyncgridError):
    """Accuracy or confidence level outside (0, 1)."""

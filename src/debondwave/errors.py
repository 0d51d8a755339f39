"""Exception hierarchy shared by all modules.

Numerical failures (instability, lost ellipticity, escaped flows) are kept
separate from scenario-file problems so the CLI can map them to distinct
exit codes.
"""


class DebondWaveError(Exception):
    """Base class for all package errors."""


# --- geometry -----------------------------------------------------------


class NonPositiveScale(DebondWaveError):
    """A scale profile (length, homothety or level offset) is <= 0 on [0, T]."""


class ProfileStart(DebondWaveError):
    """A homothety profile does not start at lam(0) = 1."""


class LevelOutOfRange(DebondWaveError):
    """Sublevel family would touch or cross the outer level set."""


class FlowEscape(DebondWaveError):
    """Sublevel flow left the region where the level function is usable."""


class DegenerateNormal(DebondWaveError):
    """Normal pushforward produced a zero vector (broken map fields)."""


# --- transform ----------------------------------------------------------


class NotElliptic(DebondWaveError):
    """min eig(B) <= 0 on the sample grid; H2 violated or corrupted map fields."""


class BoundaryMismatch(DebondWaveError):
    """Initial data does not match the boundary load on the fixed boundary."""


# --- hyperbolic ---------------------------------------------------------


class QuadratureFailure(DebondWaveError):
    """Non-finite coefficient values met during assembly."""


class BlowUp(DebondWaveError):
    """State norm exceeded the instability threshold."""


class RunTooLarge(DebondWaveError):
    """A run's step count exceeds kernels.MAX_STEPS; refused before it allocates."""


class CflViolation(DebondWaveError):
    """Requested time step violates the CFL guard."""


class NotMonotone(DebondWaveError):
    """Domain family shrinks between partition points."""


# --- characteristics ----------------------------------------------------


class TooFewSamples(DebondWaveError):
    """Not enough interior samples for a one-sided boundary stencil."""


class CompatibilityViolated(DebondWaveError):
    """Initial data violates the debonding compatibility conditions."""


# --- energy / griffith --------------------------------------------------


class SupersonicSpeed(DebondWaveError):
    """Front speed outside [0, 1)."""


class NonPositiveToughness(DebondWaveError):
    """Toughness must be strictly positive."""


class SupersonicStep(DebondWaveError):
    """Flow rule returned a speed at (or beyond) 1; trace is corrupted."""


class HorizonReached(DebondWaveError):
    """Coupled evolution hit its validity horizon."""


# --- cli ----------------------------------------------------------------


class ScenarioError(DebondWaveError):
    """Base for scenario-file problems; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnknownKey(ScenarioError):
    pass


class MissingRequired(ScenarioError):
    pass


class TypeMismatch(ScenarioError):
    pass


class UnknownSuite(DebondWaveError):
    """Requested verification suite does not exist."""

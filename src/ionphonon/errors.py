"""Exception hierarchy shared across the package.

``PhysicsError`` subclasses signal a well-defined physical failure mode
(instability, divergence, missing order parameter); the CLI maps them to
exit code 3.  Plain ``ValueError`` is reserved for malformed input.
"""

from __future__ import annotations


class IonPhononError(Exception):
    """Base class for all package-specific errors."""


class PhysicsError(IonPhononError):
    """A computation is impossible for physical (not programming) reasons."""


class BareInstabilityError(PhysicsError):
    """A bare local oscillator frequency became imaginary (kappa too large)."""


class DynamicalInstabilityError(PhysicsError):
    """The quadratic form has complex mode frequencies."""

    def __init__(self, message: str, frequencies=None):
        super().__init__(message)
        # offending complex eigenvalues (imaginary mode frequencies)
        self.frequencies = list(frequencies) if frequencies is not None else []


class DivergenceError(PhysicsError):
    """A requested thermodynamic-limit quantity diverges (gapless branch)."""


class NoOrderParameterError(PhysicsError):
    """An observable that needs a zigzag order parameter was requested below kappa_c."""


class ConvergenceError(PhysicsError):
    """A certified sum/tail bound could not reach the requested tolerance."""


class BracketingError(PhysicsError):
    """Root bracketing failed; carries the scanned interval."""

    def __init__(self, message: str, interval=None):
        super().__init__(message)
        self.interval = interval


class ZeroModeToleranceError(PhysicsError):
    """Zero-pair extraction failed: zero and soft modes could not be separated."""


class InternalConsistencyError(IonPhononError):
    """A certified internal identity (completeness, W inverse, ...) failed."""


class ResolutionWarning(UserWarning):
    """The requested temperature is below the scale resolvable by the k grid."""

"""Package-wide exception and warning types."""


class ConfigError(ValueError):
    """A run configuration failed strict validation (unknown key, bad type)."""


class BoundaryMismatch(ValueError):
    """Two maps that must share boundary data disagree on it."""


class ContradictionDetected(RuntimeError):
    """A verified stability criterion or inertia count contradicts the stability index.

    This combination can only come from an implementation defect, so it is
    surfaced as a hard error instead of being recorded as a finding.
    """


class NotMinimalWarning(UserWarning):
    """A second-variation quantity was evaluated away from the critical set."""

"""Exception and warning types shared across the package."""

from __future__ import annotations


class SizeError(ValueError):
    """Requested tensor exceeds the entry budget."""


class DivergenceError(RuntimeError):
    """An SDE iterate left the representable range (step size too large);
    the message gives the step."""


class ScanError(RuntimeError):
    """A grid scan had per-point failures; the message gives their count
    and the first failed point."""


class TruncationWarning(UserWarning):
    """Minimizer support reached the solver's fixed endpoint
    ``parisi.Q_TOP``, so the value is that of a truncated measure."""


class StabilityWarning(UserWarning):
    """Langevin step size looks large for the local gradient scale."""


class MixingWarning(UserWarning):
    """Sampler diagnostics indicate poor mixing (e.g. low swap rate)."""

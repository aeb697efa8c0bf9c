"""Exception hierarchy shared across the package.

Data problems (bad files, series that never reach the alignment
threshold) and estimation problems (degenerate fits, failed forecasts)
are kept on separate branches so callers can map them to different
exit codes.
"""

from __future__ import annotations


class LatecastError(Exception):
    """Base class for all package errors."""

    def details(self) -> dict:
        """Machine-readable payload for structured error reporting."""
        return {"error": type(self).__name__, "message": str(self)}


class DataFormatError(LatecastError):
    """Input data violates the expected file or series contract."""


class NotLatecomerError(DataFormatError):
    """Series never reached the alignment threshold."""

    def __init__(self, name: str, threshold: int, max_count: int):
        super().__init__(
            f"{name!r} is not yet a latecomer: max cumulative count "
            f"{max_count} below threshold {threshold}"
        )
        self.name = name
        self.threshold = threshold
        self.max_count = max_count

    def details(self) -> dict:
        d = super().details()
        d.update(name=self.name, threshold=self.threshold, max_count=self.max_count)
        return d


class EstimationError(LatecastError):
    """Model fitting or forecasting failed."""


class ForecastError(EstimationError):
    """Forecast recursion could not be evaluated."""

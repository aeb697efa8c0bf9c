"""Peer-based forecasting for late-arriving epidemic series.

Countries hit early by an epidemic trace out trajectories that a
late-hit country has yet to travel.  After aligning every series on
days since a common case threshold, this package selects informative
early countries by penalized regression, ties the target to them
through an error-correction model on a short rolling window, and
produces bias-corrected level forecasts with simulated confidence
bands.
"""

from .align import (
    AlignedPanel,
    DEFAULT_CASE_THRESHOLD,
    DEFAULT_DEATH_THRESHOLD,
    build_panel,
)
from .backtest import BacktestConfig, BacktestReport, run_backtest
from .ecm import EcmFit, ForecastPath, fit_ecm, simulate_bands
from .errors import (
    DataFormatError,
    EstimationError,
    ForecastError,
    LatecastError,
    NotLatecomerError,
)
from .ingest import CountrySeries, parse_jhu_wide, parse_long
from .lasso import LassoFit, select_by_bic

__version__ = "0.1.0"

__all__ = [
    "AlignedPanel",
    "BacktestConfig",
    "BacktestReport",
    "CountrySeries",
    "DataFormatError",
    "DEFAULT_CASE_THRESHOLD",
    "DEFAULT_DEATH_THRESHOLD",
    "EcmFit",
    "EstimationError",
    "ForecastError",
    "ForecastPath",
    "LassoFit",
    "LatecastError",
    "NotLatecomerError",
    "build_panel",
    "fit_ecm",
    "parse_jhu_wide",
    "parse_long",
    "run_backtest",
    "select_by_bic",
    "simulate_bands",
    "__version__",
]

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
    CountrySeries,
    DEFAULT_CASE_THRESHOLD,
    DEFAULT_DEATH_THRESHOLD,
    build_panel,
    inflation_weights,
    parse_jhu_wide,
    parse_long,
    to_tau,
    truncate_series,
)
from .backtest import (
    BacktestConfig,
    BacktestReport,
    report_to_csv,
    report_to_json,
    run_backtest,
    score,
)
from .ecm import (
    EcmFit,
    ForecastPath,
    fit_ecm,
    forecast_levels,
    forecast_log,
    level_bias_correction,
    simulate_bands,
    simulate_log_paths,
)
from .errors import (
    DataFormatError,
    EstimationError,
    ForecastError,
    LatecastError,
    NotLatecomerError,
)
from .lasso import (
    LassoFit,
    bic,
    fit_lasso,
    kkt_violation,
    lambda_path,
    select_by_bic,
)

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
    "bic",
    "build_panel",
    "fit_ecm",
    "fit_lasso",
    "forecast_levels",
    "forecast_log",
    "inflation_weights",
    "kkt_violation",
    "lambda_path",
    "level_bias_correction",
    "parse_jhu_wide",
    "parse_long",
    "report_to_csv",
    "report_to_json",
    "run_backtest",
    "score",
    "select_by_bic",
    "simulate_bands",
    "simulate_log_paths",
    "to_tau",
    "truncate_series",
    "__version__",
]

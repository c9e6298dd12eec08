"""Regression engines for the Inference Engine (Sec. III-C, IV-B2).

Four interchangeable algorithms -- generalized linear regression,
second-order polynomial regression (PredictDDL's default), epsilon-SVR and
a small MLP -- plus NNLS (Ernest's solver), log-target wrapping, metrics,
splitting, grid search and model selection.
"""

from .base import Regressor, StandardScaler
from .linear import LinearRegression, LogTargetRegressor, NNLSRegression
from .metrics import (mape, mean_relative_error, prediction_ratio,
                      r_squared, relative_error, rmse)
from .mlp import MLPRegressor
from .polynomial import PolynomialRegression, polynomial_expand
from .selection import (GridSearchResult, SelectionResult, grid_search,
                        select_best_model, train_test_split)
from .svr import SVR, linear_kernel, rbf_kernel

__all__ = [
    "Regressor", "StandardScaler",
    "LinearRegression", "NNLSRegression", "LogTargetRegressor",
    "PolynomialRegression", "polynomial_expand",
    "SVR", "rbf_kernel", "linear_kernel",
    "MLPRegressor",
    "rmse", "prediction_ratio", "relative_error", "mean_relative_error",
    "mape", "r_squared",
    "train_test_split", "grid_search", "GridSearchResult",
    "select_best_model", "SelectionResult",
]

"""Dense-grid oracle for ``optimizer.solve_rate``, shared by the optimizer tests."""

from __future__ import annotations

import numpy as np

from tradelab.cost_model import RateCoefficients, RiskParams
from tradelab.optimizer import ALPHA_MAX_DEFAULT, ALPHA_MIN_DEFAULT


def solve_rate_grid(risk_aversion: float, coeffs: RateCoefficients, risk: RiskParams,
                    alpha_min: float = ALPHA_MIN_DEFAULT,
                    alpha_max: float = ALPHA_MAX_DEFAULT,
                    n_points: int = 10_000) -> float:
    """Dense-grid minimizer over the same interval: the oracle for solve_rate."""
    grid = np.linspace(alpha_min, alpha_max, n_points)
    values = (coeffs.temp_coeff * np.sqrt(grid) + coeffs.perm_coeff
              + risk_aversion * risk.price * risk.order_size * risk.sigma
              * np.sqrt(risk.horizon_fraction / (3.0 * grid)))
    return float(grid[int(np.argmin(values))])

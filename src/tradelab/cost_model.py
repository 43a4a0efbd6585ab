"""Market-impact and timing-risk cost functions.

The impact side follows the top-down calibration style: a total impact cost
for the order (``impact_total``), allocated either across an explicit trading
schedule (``mi_schedule``) or expressed against a constant trading rate
(``mi_rate`` with its square-root temporary term), plus the imbalance-based
dissipation form (``mi_dissipation``). Timing risk is volatility acting on
the unexecuted residual, in schedule form (``risk_schedule``) and rate form
(``risk_rate``).

Two printed-form caveats, preserved deliberately rather than repaired:

  * The schedule form and the rate form do not reduce into one another by
    substituting a constant rate; the published rearrangement is not
    reproducible. Both are implemented exactly as stated and only their
    qualitative agreement (both increase with rate) is asserted.
  * ``same_side_ratio`` treats the cumulative same-side volume as the printed
    sum of signs, which is dimensionally a count; callers may pass any
    positive ratio directly.

Rate convention: ``alpha`` is shares traded per unit of expected market
volume (x_j = alpha * v_j), so alpha = 1 means trading one-for-one with the
market. ``t`` is the per-period fraction of a year, ``s`` the total-horizon
fraction of a year. All functions are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class ImpactParams:
    """Calibration set for the total-impact power law.

    scale/size_exponent/vol_exponent are the calibration coefficients;
    temp_fraction is the share of impact that is temporary (dissipating),
    the remainder permanent. adv is average daily volume in shares, sigma
    the annualized volatility fraction, price the current price, order_size
    the parent order in shares.
    """

    scale: float
    size_exponent: float
    vol_exponent: float
    temp_fraction: float
    adv: float
    sigma: float
    price: float
    order_size: float

    def __post_init__(self):
        if self.adv <= 0:
            raise ValueError("adv must be positive")
        if not 0.0 <= self.temp_fraction <= 1.0:
            raise ValueError("temp_fraction must lie in [0, 1]")
        if self.order_size < 0:
            raise ValueError("order_size must be >= 0")
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass(frozen=True)
class RateCoefficients:
    """Coefficients of the rate-form impact curve I1*sqrt(alpha) + I2."""

    total_impact: float   # whole-order impact cost (currency)
    temp_coeff: float     # I1
    perm_coeff: float     # I2

    @classmethod
    def from_params(cls, params: ImpactParams) -> "RateCoefficients":
        total = impact_total(params)
        if params.order_size == 0:
            return cls(total_impact=0.0, temp_coeff=0.0, perm_coeff=0.0)
        x = params.order_size
        temp = (2.0 / 3.0) * params.temp_fraction * total / x
        perm = (1.0 - params.temp_fraction) * total / x
        return cls(total_impact=total, temp_coeff=temp, perm_coeff=perm)


@dataclass(frozen=True)
class RiskParams:
    """Inputs to the rate-form timing risk: R = price*X*sigma*sqrt(s/(3a))."""

    price: float
    order_size: float
    sigma: float
    horizon_fraction: float   # s: trading horizon as a fraction of a year

    def __post_init__(self):
        if self.horizon_fraction <= 0:
            raise ValueError("horizon_fraction must be positive")
        if self.sigma < 0 or self.order_size < 0:
            raise ValueError("sigma and order_size must be >= 0")


def impact_total(params: ImpactParams) -> float:
    """Whole-order impact cost: scale * (X/ADV)^a2 * sigma^a3 * X * price."""
    x = params.order_size
    if x == 0:
        return 0.0
    return (params.scale
            * (x / params.adv) ** params.size_exponent
            * params.sigma ** params.vol_exponent
            * x * params.price)


def mi_schedule(quantities: Sequence[float], volumes: Sequence[float],
                temp_fraction: float, total_impact: float, order_size: float) -> float:
    """Impact cost of an explicit schedule.

    Temporary term sum_j b1*I*x_j^2 / (X*(x_j + 0.5*v_j)) plus the permanent
    term (1-b1)*I/X. Periods with x_j = 0 contribute nothing.
    """
    if len(quantities) != len(volumes):
        raise ValueError("schedule and volume vectors differ in length")
    if order_size <= 0:
        raise ValueError("order_size must be positive")
    temp = 0.0
    for x_j, v_j in zip(quantities, volumes):
        if x_j == 0:
            continue
        denom = x_j + 0.5 * v_j
        if denom <= 0:
            raise ValueError("traded period with x_j + 0.5*v_j <= 0")
        temp += temp_fraction * total_impact * x_j * x_j / (order_size * denom)
    perm = (1.0 - temp_fraction) * total_impact / order_size
    return temp + perm


def mi_rate(alpha: float, coeffs: RateCoefficients) -> float:
    """Impact cost at a constant trading rate: I1*sqrt(alpha) + I2."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    return coeffs.temp_coeff * math.sqrt(alpha) + coeffs.perm_coeff


def mi_dissipation(impact_bp: float, mu: float, temp_fraction: float) -> float:
    """Imbalance form: I * (b1/mu + (1 - b1)), mu the same-side volume ratio."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return impact_bp * (temp_fraction / mu + (1.0 - temp_fraction))


def same_side_ratio(signed_volumes: Sequence[float], imbalance: float) -> float:
    """mu = V_side / Q with V_side the printed sum-of-signs form."""
    if imbalance == 0:
        raise ValueError("imbalance must be nonzero")
    v_side = sum(1.0 if v > 0 else (-1.0 if v < 0 else 0.0) for v in signed_volumes)
    return v_side / imbalance


def risk_schedule(residuals: Sequence[float], sigma: float, price: float,
                  period_fraction: float, n_periods: int) -> float:
    """Timing risk of a schedule: price * sqrt(sum_j r_j^2 * t * sigma^2 / n).

    residuals[j] is the unexecuted quantity entering period j (r_1 = X).
    """
    if n_periods <= 0:
        raise ValueError("n_periods must be positive")
    prev = None
    for r in residuals:
        if r < 0:
            raise ValueError("residuals must be >= 0")
        if prev is not None and r > prev:
            raise ValueError("residuals must be non-increasing")
        prev = r
    inner = sum(r * r for r in residuals) * period_fraction * sigma * sigma / n_periods
    return price * math.sqrt(inner)


def risk_rate(alpha: float, risk: RiskParams) -> float:
    """Timing risk at a constant rate: price*X*sigma*sqrt(s/(3*alpha))."""
    if alpha <= 0:
        raise ValueError("alpha must be positive (risk diverges at zero)")
    if risk.sigma == 0 or risk.order_size == 0:
        return 0.0
    return (risk.price * risk.order_size * risk.sigma
            * math.sqrt(risk.horizon_fraction / (3.0 * alpha)))


def sample_cost_surface(coeffs: RateCoefficients, risk: RiskParams,
                        alphas: Sequence[float]) -> list[tuple[float, float, float]]:
    """(alpha, impact, timing risk) triples over a rate grid, for plotting."""
    return [(a, mi_rate(a, coeffs), risk_rate(a, risk)) for a in alphas]

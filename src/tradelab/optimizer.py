"""Optimal constant-rate execution and the efficient trading frontier.

The objective is cost-plus-weighted-risk over the trading rate,
``MI(a) + lam * R(a)``. With the square-root impact curve and inverse
square-root risk curve the stationary point is closed-form; the tests check
it against a dense grid search over the same interval.
The frontier is the locus of optimal (risk, cost) pairs traced by the
risk-aversion weight, optionally re-based to a previous-close benchmark by
adding the decision-to-arrival drift and the full permanent-impact offset
to the cost coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from tradelab.cost_model import RateCoefficients, RiskParams, mi_rate, risk_rate

ALPHA_MIN_DEFAULT = 1e-4
ALPHA_MAX_DEFAULT = 1.0


class InfeasibleRiskCap(ValueError):
    """The timing-risk cap cannot be met even at the maximum trading rate."""


@dataclass(frozen=True)
class FrontierPoint:
    risk_aversion: float
    alpha_star: float
    cost: float
    risk: float
    benchmark: str = "arrival"


def objective(alpha: float, risk_aversion: float, coeffs: RateCoefficients,
              risk: RiskParams) -> float:
    """MI(alpha) + lam * R(alpha); defined for alpha > 0."""
    if risk_aversion < 0:
        raise ValueError("risk_aversion must be >= 0")
    return mi_rate(alpha, coeffs) + risk_aversion * risk_rate(alpha, risk)


def solve_rate(risk_aversion: float, coeffs: RateCoefficients, risk: RiskParams,
               alpha_min: float = ALPHA_MIN_DEFAULT,
               alpha_max: float = ALPHA_MAX_DEFAULT) -> float:
    """Rate minimizing the objective over (alpha_min, alpha_max].

    Stationarity of I1*sqrt(a) + lam*c/sqrt(a), c = price*X*sigma*sqrt(s/3),
    gives a* = lam*c/I1, clamped to the domain. lam = 0 returns alpha_min
    (the objective is then monotone increasing: the most patient rate).
    """
    if risk_aversion < 0:
        raise ValueError("risk_aversion must be >= 0")
    if not 0 < alpha_min <= alpha_max:
        raise ValueError("need 0 < alpha_min <= alpha_max")
    if risk_aversion == 0:
        return alpha_min
    if coeffs.temp_coeff <= 0:
        # no temporary-impact penalty: cost is flat, risk favors the fastest rate
        return alpha_max
    c = (risk.price * risk.order_size * risk.sigma
         * math.sqrt(risk.horizon_fraction / 3.0))
    alpha_star = risk_aversion * c / coeffs.temp_coeff
    return min(max(alpha_star, alpha_min), alpha_max)


def solve_constrained(risk_cap: float, coeffs: RateCoefficients, risk: RiskParams,
                      alpha_min: float = ALPHA_MIN_DEFAULT,
                      alpha_max: float = ALPHA_MAX_DEFAULT) -> float:
    """Least-cost rate subject to R(alpha) <= risk_cap.

    Impact rises and risk falls with the rate, so the optimum is the smallest
    feasible rate: alpha* = (price*X*sigma)^2 * s / (3 * cap^2), clamped below
    at alpha_min. Raises InfeasibleRiskCap when even alpha_max breaches the cap.
    """
    if risk_cap <= 0:
        raise ValueError("risk_cap must be positive")
    if risk_rate(alpha_max, risk) > risk_cap:
        raise InfeasibleRiskCap(
            f"R(alpha_max)={risk_rate(alpha_max, risk):.6g} exceeds cap {risk_cap:.6g}")
    scale = risk.price * risk.order_size * risk.sigma
    alpha_star = scale * scale * risk.horizon_fraction / (3.0 * risk_cap * risk_cap)
    return min(max(alpha_star, alpha_min), alpha_max)


def frontier(risk_aversions: Sequence[float], coeffs: RateCoefficients,
             risk: RiskParams, benchmark: str = "arrival", drift: float = 0.0,
             alpha_min: float = ALPHA_MIN_DEFAULT,
             alpha_max: float = ALPHA_MAX_DEFAULT) -> list[FrontierPoint]:
    """One optimal point per risk-aversion value, in grid order.

    ``arrival`` benchmark: cost is MI(alpha*). ``previous_close``: cost adds
    the decision-to-arrival drift (currency, a config input) plus the full
    permanent-impact offset on top of the arrival-cost coordinate.
    """
    lams = list(risk_aversions)
    if any(l <= 0 for l in lams):
        raise ValueError("risk-aversion grid must be strictly positive")
    if any(b >= a for a, b in zip(lams[1:], lams)):
        raise ValueError("risk-aversion grid must be strictly increasing")
    if benchmark not in ("arrival", "previous_close"):
        raise ValueError(f"unknown benchmark {benchmark!r}")
    points = []
    for lam in lams:
        alpha_star = solve_rate(lam, coeffs, risk, alpha_min, alpha_max)
        cost = mi_rate(alpha_star, coeffs)
        if benchmark == "previous_close":
            cost += drift + coeffs.perm_coeff
        points.append(FrontierPoint(risk_aversion=lam, alpha_star=alpha_star,
                                    cost=cost, risk=risk_rate(alpha_star, risk),
                                    benchmark=benchmark))
    return points


def frontier_to_delimited(points: Sequence[FrontierPoint]) -> str:
    """Frontier table as delimited text: lambda, alpha_star, cost, risk, benchmark."""
    lines = ["lambda|alpha_star|cost|risk|benchmark"]
    for p in points:
        lines.append(f"{p.risk_aversion!r}|{p.alpha_star!r}|{p.cost!r}|{p.risk!r}|{p.benchmark}")
    return "\n".join(lines) + "\n"

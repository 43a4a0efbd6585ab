"""Solver-vs-grid oracle agreement, constrained solutions, frontier geometry."""

import math
import random

import pytest

from rate_oracle import solve_rate_grid
from tradelab.cost_model import (
    ImpactParams,
    RateCoefficients,
    RiskParams,
    mi_rate,
    risk_rate,
)
from tradelab.optimizer import (
    ALPHA_MAX_DEFAULT,
    ALPHA_MIN_DEFAULT,
    FrontierPoint,
    InfeasibleRiskCap,
    frontier,
    frontier_to_delimited,
    objective,
    solve_constrained,
    solve_rate,
)


def default_pair(**risk_overrides):
    p = ImpactParams(scale=0.5, size_exponent=0.5, vol_exponent=1.0, temp_fraction=0.8,
                     adv=1e6, sigma=0.25, price=50.0, order_size=1e5)
    coeffs = RateCoefficients.from_params(p)
    rk = dict(price=50.0, order_size=1e5, sigma=0.25, horizon_fraction=0.1)
    rk.update(risk_overrides)
    return coeffs, RiskParams(**rk)


class TestObjective:
    def test_lambda_zero_is_pure_impact(self):
        coeffs, risk = default_pair()
        assert objective(0.3, 0.0, coeffs, risk) == mi_rate(0.3, coeffs)

    def test_linear_in_lambda(self):
        coeffs, risk = default_pair()
        base = objective(0.3, 0.0, coeffs, risk)
        slope = objective(0.3, 1.0, coeffs, risk) - base
        assert objective(0.3, 2.5, coeffs, risk) == pytest.approx(base + 2.5 * slope,
                                                                  rel=1e-12)

    def test_composition_of_frozen_fixtures(self):
        # mi_rate(0.25) + 1.0 * risk_rate(0.25), both frozen in test_cost_model
        coeffs, risk = default_pair()
        got = objective(0.25, 1.0, coeffs, risk)
        assert got == pytest.approx(0.9223309842157773 + 456435.4645876384, rel=1e-12)


class TestSolveRate:
    def test_lambda_zero_most_patient(self):
        coeffs, risk = default_pair()
        assert solve_rate(0.0, coeffs, risk) == ALPHA_MIN_DEFAULT

    def test_large_lambda_clamps_at_max(self):
        coeffs, risk = default_pair()
        assert solve_rate(1e9, coeffs, risk) == ALPHA_MAX_DEFAULT

    def test_interior_matches_grid_oracle(self):
        coeffs, risk = default_pair()
        # pick a lambda that lands the optimum mid-domain
        c = risk.price * risk.order_size * risk.sigma * math.sqrt(risk.horizon_fraction / 3)
        lam = 0.5 * coeffs.temp_coeff / c
        closed = solve_rate(lam, coeffs, risk)
        gridded = solve_rate_grid(lam, coeffs, risk)
        step = (ALPHA_MAX_DEFAULT - ALPHA_MIN_DEFAULT) / (10_000 - 1)
        assert abs(closed - gridded) <= step
        assert closed == pytest.approx(0.5, rel=1e-9)

    def test_oracle_agreement_on_random_draws(self):
        rng = random.Random(2024)
        step = (ALPHA_MAX_DEFAULT - ALPHA_MIN_DEFAULT) / (10_000 - 1)
        for _ in range(100):
            p = ImpactParams(scale=rng.uniform(0.1, 1.0),
                             size_exponent=rng.uniform(0.2, 0.9),
                             vol_exponent=rng.uniform(0.2, 1.2),
                             temp_fraction=rng.uniform(0.05, 0.95),
                             adv=rng.uniform(1e5, 1e7),
                             sigma=rng.uniform(0.05, 0.6),
                             price=rng.uniform(1.0, 500.0),
                             order_size=rng.uniform(1e3, 1e6))
            coeffs = RateCoefficients.from_params(p)
            risk = RiskParams(price=p.price, order_size=p.order_size, sigma=p.sigma,
                              horizon_fraction=rng.uniform(0.005, 0.5))
            lam = 10 ** rng.uniform(-9, -3)
            closed = solve_rate(lam, coeffs, risk)
            gridded = solve_rate_grid(lam, coeffs, risk)
            assert abs(closed - gridded) <= step + 1e-15

    def test_clamp_bounds_always_respected(self):
        coeffs, risk = default_pair()
        for lam in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0, 1e6):
            a = solve_rate(lam, coeffs, risk)
            assert ALPHA_MIN_DEFAULT <= a <= ALPHA_MAX_DEFAULT


class TestSolveConstrained:
    def test_cap_at_max_rate_risk_binds_boundary(self):
        coeffs, risk = default_pair()
        cap = risk_rate(ALPHA_MAX_DEFAULT, risk)
        assert solve_constrained(cap, coeffs, risk) == pytest.approx(ALPHA_MAX_DEFAULT,
                                                                     rel=1e-12)

    def test_huge_cap_most_patient(self):
        coeffs, risk = default_pair()
        assert solve_constrained(1e18, coeffs, risk) == ALPHA_MIN_DEFAULT

    def test_unit_point(self):
        coeffs, risk = default_pair()
        cap = risk.price * risk.order_size * risk.sigma
        assert solve_constrained(cap, coeffs, risk) == pytest.approx(
            risk.horizon_fraction / 3.0, rel=1e-12)

    def test_interior_cap_binds_to_relative_1e9(self):
        coeffs, risk = default_pair()
        cap = 1.7 * risk.price * risk.order_size * risk.sigma
        alpha = solve_constrained(cap, coeffs, risk)
        assert ALPHA_MIN_DEFAULT < alpha < ALPHA_MAX_DEFAULT
        assert risk_rate(alpha, risk) == pytest.approx(cap, rel=1e-9)

    def test_infeasible_cap(self):
        coeffs, risk = default_pair()
        with pytest.raises(InfeasibleRiskCap):
            solve_constrained(1.0, coeffs, risk)


class TestFrontier:
    def lambda_grid(self, n=50):
        # spans patient to aggressive through the interior
        return [10 ** (-8 + 6 * i / (n - 1)) for i in range(n)]

    def test_single_lambda_single_point(self):
        coeffs, risk = default_pair()
        pts = frontier([1e-6], coeffs, risk)
        assert len(pts) == 1
        assert isinstance(pts[0], FrontierPoint)

    def test_monotone_sweep(self):
        coeffs, risk = default_pair()
        pts = frontier(self.lambda_grid(), coeffs, risk)
        risks = [p.risk for p in pts]
        costs = [p.cost for p in pts]
        assert all(b <= a for a, b in zip(risks, risks[1:]))
        assert all(b >= a for a, b in zip(costs, costs[1:]))

    def test_benchmark_offset_is_exactly_permanent_impact(self):
        coeffs, risk = default_pair()
        grid = self.lambda_grid(10)
        arrival = frontier(grid, coeffs, risk, benchmark="arrival")
        close = frontier(grid, coeffs, risk, benchmark="previous_close", drift=0.0)
        for a, c in zip(arrival, close):
            assert c.cost - a.cost == pytest.approx(coeffs.perm_coeff, rel=1e-12)
            assert c.risk == a.risk
        shifted = frontier(grid, coeffs, risk, benchmark="previous_close", drift=0.125)
        for c0, c1 in zip(close, shifted):
            assert c1.cost - c0.cost == pytest.approx(0.125, rel=1e-12)

    def test_no_point_dominates_another(self):
        coeffs, risk = default_pair()
        pts = frontier(self.lambda_grid(), coeffs, risk)
        for i, p in enumerate(pts):
            for q in pts[i + 1:]:
                assert not (q.cost < p.cost and q.risk < p.risk)
                assert not (p.cost < q.cost and p.risk < q.risk)

    def test_non_optimal_strategies_sit_above(self):
        coeffs, risk = default_pair()
        pts = frontier(self.lambda_grid(), coeffs, risk)
        rng = random.Random(11)
        for _ in range(20):
            lam = 10 ** rng.uniform(-8, -2)
            alpha = rng.uniform(ALPHA_MIN_DEFAULT, ALPHA_MAX_DEFAULT)
            cost, rk = mi_rate(alpha, coeffs), risk_rate(alpha, risk)
            # weakly above: no frontier point has both higher cost and higher risk
            assert not any(p.cost > cost + 1e-12 and p.risk > rk + 1e-12 for p in pts)

    def test_rejects_bad_grid(self):
        coeffs, risk = default_pair()
        with pytest.raises(ValueError):
            frontier([1e-6, 1e-7], coeffs, risk)
        with pytest.raises(ValueError):
            frontier([0.0, 1e-6], coeffs, risk)

    def test_delimited_export_header(self):
        coeffs, risk = default_pair()
        text = frontier_to_delimited(frontier([1e-6, 1e-5], coeffs, risk))
        lines = text.strip().split("\n")
        assert lines[0] == "lambda|alpha_star|cost|risk|benchmark"
        assert len(lines) == 3

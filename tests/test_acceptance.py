"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion asserts both its substance and its time budget.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lob_driver
from rate_oracle import solve_rate_grid
from tradelab import harness
from tradelab.cost_model import (
    ImpactParams,
    RateCoefficients,
    RiskParams,
    impact_total,
    mi_dissipation,
    mi_rate,
    mi_schedule,
    risk_rate,
    risk_schedule,
)
from tradelab.exec_algos import (
    AlgoSpec,
    ParentOrder,
    TiltPolicy,
    pov_child_size,
    run_algorithm,
    twap_schedule,
    vwap_schedule,
)
from tradelab.optimizer import (
    frontier,
    objective,
    solve_constrained,
    solve_rate,
)
from tradelab.orderbook import Side
from tradelab.scenario import load_scenario
from tradelab.tca import TCAInputs, expanded_tc, shortfall
from tradelab.venue_sim import MarketParams, MarketSim, VolumeProfile

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class Criterion:
    def __init__(self, number: int, label: str, budget_s: float):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.start = time.monotonic()

    def finish(self):
        elapsed = time.monotonic() - self.start
        status = "PASS" if elapsed < self.budget else "FAIL (over budget)"
        print(f"ACCEPTANCE {self.number:2d} {status} [{elapsed:6.2f}s "
              f"< {self.budget:.0f}s] {self.label}")
        assert elapsed < self.budget, f"criterion {self.number} exceeded time budget"


def fixture_results():
    return {r.name: r for r in harness.replay_fixtures()}


def test_criterion_01_table3_replay():
    c = Criterion(1, "Table 3 replay: market cross, synthetic and native iceberg", 1.0)
    results = fixture_results()
    for name in ("table3_panel_b", "table3_panel_c", "table3_panel_d"):
        assert results[name].passed, f"{name}: {results[name].diff}"
    c.finish()


def test_criterion_02_tables_1_2_replay():
    c = Criterion(2, "Tables 1-2 replay per narrative (corrections documented)", 1.0)
    results = fixture_results()
    for name in ("table1_hidden", "table2_iceberg"):
        assert results[name].passed, f"{name}: {results[name].diff}"
    c.finish()


def test_criterion_03_orderbook_property_suite():
    c = Criterion(3, "order-book property suite, 10^4 randomized sequences", 60.0)
    n = lob_driver.run_suite(10_000, n_ops=12)
    assert n == 10_000
    c.finish()


def test_criterion_04_pov_participation():
    c = Criterion(4, "POV participation +/-1pp over 30 seeds x {5,10,20}%", 120.0)
    for pr in (0.05, 0.1, 0.2):
        for seed in range(30):
            sim = MarketSim(MarketParams(
                initial_price=50.0, volatility=0.1, adv=1_000_000, seed=seed,
                session_ticks=5_850, intensity=1.0))
            parent = ParentOrder(side=Side.BUY, quantity=10_000_000,
                                 start=0, end=5_850)
            trace = run_algorithm(AlgoSpec(type="pov", pr=pr, bucket_ticks=450),
                                  parent, sim)
            assert trace.participation == pytest.approx(pr, abs=0.01), \
                f"pr={pr} seed={seed}: {trace.participation}"
    # the 1/(1-pr) own-volume identity, exact on the rational form
    for pr_num in range(0, 10):
        pr = Fraction(pr_num, 10)
        for volume in (1, 17, 900, 12_345, 10**6):
            child = pr / (1 - pr) * volume
            assert child / (child + volume) == pr
    # and the rounded integer form agrees at the worked point
    assert pov_child_size(900, 0.1) == 100
    c.finish()


def test_criterion_05_schedule_mass():
    c = Criterion(5, "schedule mass: sum == X on 10^3 draws; uniform VWAP == TWAP", 5.0)
    rng = random.Random(99)
    for i in range(1_000):
        x = rng.randint(1, 10**6)
        n_buckets = rng.randint(1, 40)
        if i % 2 == 0:
            weights = [rng.random() + 1e-6 for _ in range(n_buckets)]
            total = sum(weights)
            profile = VolumeProfile(tuple(w / total for w in weights))
            parent = ParentOrder(side=Side.BUY, quantity=x, start=0,
                                 end=max(n_buckets, 10))
            sched = vwap_schedule(parent, profile)
        else:
            horizon = rng.randint(n_buckets, n_buckets * 100)
            parent = ParentOrder(side=Side.BUY, quantity=x, start=0, end=horizon)
            tilt = TiltPolicy(threshold=rng.random(), factor=rng.uniform(0.5, 3.0),
                              jitter=rng.uniform(0.0, 0.5), seed=i)
            sched = twap_schedule(parent, max(1, horizon // n_buckets), tilt)
        assert sched.total == x, f"draw {i}: {sched.total} != {x}"
    parent = ParentOrder(side=Side.BUY, quantity=10_000, start=0, end=4_000)
    uniform = vwap_schedule(parent, VolumeProfile.uniform(4))
    twap = twap_schedule(parent, 1_000)
    assert uniform.targets == twap.targets
    c.finish()


def test_criterion_06_cost_model_fixtures():
    c = Criterion(6, "cost-model fixtures at 1e-12 relative; limits exact", 1.0)
    params = ImpactParams(scale=0.5, size_exponent=0.5, vol_exponent=1.0,
                          temp_fraction=0.8, adv=1e6, sigma=0.25, price=50.0,
                          order_size=1e5)
    # frozen by independent REPL evaluation (see test_cost_model.py)
    assert impact_total(params) == pytest.approx(197642.35376052372, rel=1e-12)
    total = impact_total(params)
    assert mi_schedule([1e5], [1e5], 0.8, total, 1e5) == pytest.approx(
        105409.6506236535, rel=1e-12)
    assert risk_schedule([1000.0] * 4, 0.3, 50.0, 1 / 250, 4) == pytest.approx(
        948.6832980505138, rel=1e-12)
    risk = RiskParams(price=50.0, order_size=1e5, sigma=0.25, horizon_fraction=0.1)
    assert risk_rate(0.25, risk) == pytest.approx(456435.4645876384, rel=1e-12)
    # limiting cases, exact
    zero = ImpactParams(scale=0.5, size_exponent=0.5, vol_exponent=1.0,
                        temp_fraction=0.8, adv=1e6, sigma=0.25, price=50.0,
                        order_size=0.0)
    assert impact_total(zero) == 0.0
    assert risk_rate(0.5, RiskParams(price=50.0, order_size=1e5, sigma=0.0,
                                     horizon_fraction=0.1)) == 0.0
    coeffs = RateCoefficients.from_params(params)
    assert mi_rate(0.0, coeffs) == coeffs.perm_coeff
    all_perm = RateCoefficients.from_params(
        ImpactParams(scale=0.5, size_exponent=0.5, vol_exponent=1.0,
                     temp_fraction=0.0, adv=1e6, sigma=0.25, price=50.0,
                     order_size=1e5))
    assert all_perm.temp_coeff == 0.0
    all_temp = RateCoefficients.from_params(
        ImpactParams(scale=0.5, size_exponent=0.5, vol_exponent=1.0,
                     temp_fraction=1.0, adv=1e6, sigma=0.25, price=50.0,
                     order_size=1e5))
    assert all_temp.perm_coeff == 0.0
    assert mi_dissipation(123.0, 1.0, 0.8) == 123.0
    c.finish()


def test_criterion_07_optimizer_oracle():
    c = Criterion(7, "closed-form vs 10^4-point grid on 100 draws; risk cap", 10.0)
    rng = random.Random(1234)
    for _ in range(100):
        p = ImpactParams(scale=rng.uniform(0.1, 1.0),
                         size_exponent=rng.uniform(0.2, 0.9),
                         vol_exponent=rng.uniform(0.2, 1.2),
                         temp_fraction=rng.uniform(0.05, 0.95),
                         adv=rng.uniform(1e5, 1e7), sigma=rng.uniform(0.05, 0.6),
                         price=rng.uniform(1.0, 500.0),
                         order_size=rng.uniform(1e3, 1e6))
        coeffs = RateCoefficients.from_params(p)
        risk = RiskParams(price=p.price, order_size=p.order_size, sigma=p.sigma,
                          horizon_fraction=rng.uniform(0.005, 0.5))
        lam = 10 ** rng.uniform(-9, -3)
        closed = solve_rate(lam, coeffs, risk)
        gridded = solve_rate_grid(lam, coeffs, risk)
        step = (1.0 - 1e-4) / (10_000 - 1)
        assert abs(closed - gridded) <= step + 1e-15
    # constrained: R(alpha*) <= cap, equality at interior optimum to 1e-9 relative
    p = ImpactParams(scale=0.5, size_exponent=0.5, vol_exponent=1.0,
                     temp_fraction=0.8, adv=1e6, sigma=0.25, price=50.0,
                     order_size=1e5)
    coeffs = RateCoefficients.from_params(p)
    risk = RiskParams(price=50.0, order_size=1e5, sigma=0.25, horizon_fraction=0.1)
    for cap_scale in (1.2, 1.7, 2.5, 4.0):
        cap = cap_scale * risk.price * risk.order_size * risk.sigma
        alpha = solve_constrained(cap, coeffs, risk)
        assert risk_rate(alpha, risk) <= cap * (1 + 1e-12)
        if 1e-4 < alpha < 1.0:
            assert risk_rate(alpha, risk) == pytest.approx(cap, rel=1e-9)
    c.finish()


def test_criterion_08_frontier_properties():
    c = Criterion(8, "50-point frontier: strict monotonicity, no domination", 5.0)
    p = ImpactParams(scale=0.5, size_exponent=0.5, vol_exponent=1.0,
                     temp_fraction=0.8, adv=1e6, sigma=0.25, price=50.0,
                     order_size=1e5)
    coeffs = RateCoefficients.from_params(p)
    risk = RiskParams(price=50.0, order_size=1e5, sigma=0.25, horizon_fraction=0.1)
    # lambda range chosen to keep alpha* interior, where the sweep is strict
    c_risk = risk.price * risk.order_size * risk.sigma * math.sqrt(
        risk.horizon_fraction / 3.0)
    lam_lo = 1.001e-4 * coeffs.temp_coeff / c_risk
    lam_hi = 0.999 * coeffs.temp_coeff / c_risk
    grid = list(np.geomspace(lam_lo, lam_hi, 50))
    points = frontier(grid, coeffs, risk)
    risks = [pt.risk for pt in points]
    costs = [pt.cost for pt in points]
    assert all(b < a for a, b in zip(risks, risks[1:])), "risk not strictly decreasing"
    assert all(b > a for a, b in zip(costs, costs[1:])), "cost not strictly increasing"
    for i, a in enumerate(points):
        for b in points[i + 1:]:
            assert not (a.cost <= b.cost and a.risk <= b.risk)
            assert not (b.cost <= a.cost and b.risk <= a.risk)
    rng = random.Random(5)
    for _ in range(20):
        lam = rng.uniform(lam_lo, lam_hi)
        alpha = rng.uniform(1e-4, 1.0)
        best = solve_rate(lam, coeffs, risk)
        assert objective(alpha, lam, coeffs, risk) >= \
            objective(best, lam, coeffs, risk) - 1e-12
        cost, rk = mi_rate(alpha, coeffs), risk_rate(alpha, risk)
        assert not any(pt.cost > cost + 1e-12 and pt.risk > rk + 1e-12
                       for pt in points)
    c.finish()


def test_criterion_09_tca_identities():
    c = Criterion(9, "TCA identities exact on 10^3 draws; worked fixture", 5.0)
    rng = random.Random(77)
    for _ in range(1_000):
        n_fills = rng.randint(0, 8)
        fills = [(rng.randint(1, 500), rng.randint(1, 10_000))
                 for _ in range(n_fills)]
        executed = sum(q for q, _ in fills)
        side = rng.choice(["buy", "sell"])
        inputs = TCAInputs(side=side, intended_qty=executed + rng.randint(0, 400),
                           fills=fills, final_price=rng.randint(1, 10_000),
                           decision_price=rng.randint(1, 10_000),
                           arrival_price=rng.randint(1, 10_000),
                           fixed=rng.randint(0, 100))
        if inputs.intended_qty == 0:
            continue
        base = shortfall(inputs)
        exp = expanded_tc(inputs)
        assert exp.delay_cost + exp.trade_related_cost == base.execution_cost
        assert exp.total == base.total
        assert base.total == base.execution_cost + base.opportunity_cost \
            + base.fixed_cost
        if executed == inputs.intended_qty:
            assert base.opportunity_cost == 0
            simple = inputs.sign * (inputs.traded_value()
                                    - inputs.intended_qty * inputs.benchmark) \
                + inputs.fixed
            assert base.total == simple
        flipped = TCAInputs(side="sell" if side == "buy" else "buy",
                            intended_qty=inputs.intended_qty, fills=fills,
                            final_price=inputs.final_price,
                            decision_price=inputs.decision_price,
                            arrival_price=inputs.arrival_price, fixed=0)
        zero_fee = TCAInputs(side=side, intended_qty=inputs.intended_qty,
                             fills=fills, final_price=inputs.final_price,
                             decision_price=inputs.decision_price,
                             arrival_price=inputs.arrival_price, fixed=0)
        ra, rf = expanded_tc(zero_fee), expanded_tc(flipped)
        assert rf.execution_cost == -ra.execution_cost
        assert rf.opportunity_cost == -ra.opportunity_cost
        assert rf.delay_cost == -ra.delay_cost
        assert rf.total == -ra.total
    worked = TCAInputs(side="buy", intended_qty=1_000, fills=[(600, 50.5)],
                       final_price=51, decision_price=50, fixed=0.0)
    r = shortfall(worked)
    assert r.execution_cost == pytest.approx(300)
    assert r.opportunity_cost == pytest.approx(400)
    assert r.total == pytest.approx(700)
    c.finish()


def test_criterion_10_end_to_end_determinism(tmp_path):
    c = Criterion(10, "byte-identical reruns of packaged scenarios", 60.0)
    for name in ("twap_quarter_day.ini", "pov_quarter_day.ini", "frontier_only.ini"):
        scenario = load_scenario(SCENARIOS / name)
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        harness.run(scenario, out_a)
        harness.run(scenario, out_b)
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for fname in files_a:
            assert (out_a / fname).read_bytes() == (out_b / fname).read_bytes(), \
                f"{name}/{fname} not byte-identical"
    c.finish()

"""TCA benchmarks, worked shortfall fixtures, and exact decomposition identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradelab.tca import (
    ISReport,
    TapeTrade,
    TCAInputs,
    expanded_tc,
    ohlc,
    paper_vs_real,
    report_text,
    rpm,
    shortfall,
    twap,
    vwap,
)


def tape(*pairs):
    return [TapeTrade(price=p, size=v) for p, v in pairs]


class TestBenchmarks:
    def test_vwap_single_trade(self):
        assert vwap(tape((50, 100))) == 50

    def test_vwap_equal_weights(self):
        assert vwap(tape((50, 100), (52, 100))) == 51

    def test_vwap_hand_check(self):
        # (300*50 + 100*54) / 400 = 20400/400
        assert vwap(tape((50, 300), (54, 100))) == 51

    def test_vwap_matches_period_weighted_form(self):
        # three periods: z_j = period volume share, Pbar_j = period vwap
        periods = [tape((50, 100), (51, 300)), tape((52, 200)), tape((49, 400))]
        flat = [t for period in periods for t in period]
        total = sum(t.size for t in flat)
        recomposed = sum(
            (sum(t.size for t in period) / total) * vwap(period) for period in periods)
        assert vwap(flat) == pytest.approx(recomposed, rel=1e-12)

    def test_vwap_empty_tape(self):
        with pytest.raises(ValueError):
            vwap([])

    def test_twap_is_size_blind(self):
        assert twap(tape((50, 100), (54, 1))) == 52

    def test_twap_equals_vwap_on_equal_sizes(self):
        t = tape((50, 7), (51, 7), (55, 7))
        assert twap(t) == pytest.approx(vwap(t), rel=1e-12)

    def test_bounds(self):
        t = tape((50, 10), (53, 2), (49, 5))
        for fn in (vwap, twap):
            assert min(x.price for x in t) <= fn(t) <= max(x.price for x in t)

    def test_ohlc(self):
        assert ohlc(50, 50, 50, 50) == 50
        assert ohlc(50, 54, 48, 52) == 51
        assert ohlc(50, 100, 50, 50) == 62.5


class TestRPM:
    FIXTURE = tape((50, 100), (51, 200), (52, 300), (53, 150), (54, 250),
                   (50, 100), (55, 400), (52, 100), (51, 50), (56, 350))

    def test_brute_force_volume(self):
        # buy executed at the tape minimum: everything above 50 is less favorable
        worse = sum(t.size for t in self.FIXTURE if t.price > 50)
        total = sum(t.size for t in self.FIXTURE)
        assert rpm(self.FIXTURE, 50, "buy") == pytest.approx(worse / total)
        assert rpm(self.FIXTURE, 50, "buy") > 0.85

    def test_brute_force_trades(self):
        worse = sum(1 for t in self.FIXTURE if t.price > 50)
        assert rpm(self.FIXTURE, 50, "buy", basis="trades") == worse / len(self.FIXTURE)

    def test_execution_worse_than_every_print(self):
        assert rpm(self.FIXTURE, 100, "buy") == 0.0
        assert rpm(self.FIXTURE, 1, "sell") == 0.0

    def test_ties_count_favorable(self):
        flat = tape((50, 10), (50, 20), (50, 5))
        assert rpm(flat, 50, "buy") == 0.0
        assert rpm(flat, 50, "sell") == 0.0

    def test_unit_size_tapes_equalize_bases(self):
        unit = tape((50, 1), (51, 1), (53, 1), (49, 1))
        assert rpm(unit, 51, "buy", "volume") == rpm(unit, 51, "buy", "trades")

    def test_range(self):
        for px in (48, 50, 52, 57):
            for side in ("buy", "sell"):
                assert 0.0 <= rpm(self.FIXTURE, px, side) <= 1.0


def worked_inputs(**overrides):
    base = dict(side="buy", intended_qty=1000, fills=[(600, 50.5)], final_price=51,
                decision_price=50, fixed=0.0)
    base.update(overrides)
    return TCAInputs(**base)


class TestShortfall:
    def test_frictionless(self):
        r = shortfall(worked_inputs(fills=[(1000, 50)]))
        assert r.total == 0 and r.execution_cost == 0 and r.opportunity_cost == 0

    def test_worked_fixture(self):
        r = shortfall(worked_inputs())
        assert r.execution_cost == pytest.approx(300)
        assert r.opportunity_cost == pytest.approx(400)
        assert r.total == pytest.approx(700)
        assert r.unexecuted == 400

    def test_zero_drift_zero_opportunity(self):
        r = shortfall(worked_inputs(final_price=50))
        assert r.opportunity_cost == 0

    def test_full_execution_recovers_simple_form(self):
        r = shortfall(worked_inputs(fills=[(1000, 50.5)], fixed=25.0))
        assert r.opportunity_cost == 0
        assert r.total == pytest.approx(1000 * 50.5 - 1000 * 50 + 25.0)

    def test_overexecution_rejected(self):
        with pytest.raises(ValueError):
            shortfall(worked_inputs(fills=[(1200, 50.5)]))

    def test_arrival_price_default_benchmark(self):
        r = shortfall(worked_inputs(decision_price=None, arrival_price=50))
        assert r.execution_cost == pytest.approx(300)


class TestExpanded:
    def test_worked_fixture_with_delay(self):
        r = expanded_tc(worked_inputs(arrival_price=50.2))
        assert r.delay_cost == pytest.approx(120)
        assert r.trade_related_cost == pytest.approx(180)
        assert r.opportunity_cost == pytest.approx(400)
        assert r.total == pytest.approx(700)

    def test_no_delay_when_release_at_decision(self):
        r = expanded_tc(worked_inputs(arrival_price=50))
        assert r.delay_cost == 0
        assert r.trade_related_cost == pytest.approx(r.execution_cost)

    def test_fills_at_arrival_all_delay(self):
        r = expanded_tc(worked_inputs(arrival_price=50.5))
        assert r.trade_related_cost == 0
        assert r.delay_cost == pytest.approx(300)

    def test_requires_arrival_price(self):
        with pytest.raises(ValueError):
            expanded_tc(worked_inputs())


class TestPaperVsReal:
    def test_frictionless(self):
        paper, real, is_ = paper_vs_real(worked_inputs(fills=[(1000, 50)]))
        assert paper == real and is_ == 0

    def test_dual_formula_cross_check(self):
        inputs = worked_inputs(fills=[(1000, 50.5)])
        _, _, is_ = paper_vs_real(inputs)
        assert is_ == pytest.approx(500)
        assert is_ == pytest.approx(shortfall(inputs).total)

    def test_fixed_fees_only(self):
        inputs = worked_inputs(fills=[(1000, 50)], fixed=40.0)
        _, _, is_ = paper_vs_real(inputs)
        assert is_ == pytest.approx(40.0)


price_ticks = st.integers(min_value=1, max_value=10_000)
qty = st.integers(min_value=0, max_value=500)


@st.composite
def random_inputs(draw):
    n_fills = draw(st.integers(min_value=0, max_value=8))
    fills = [(draw(st.integers(min_value=1, max_value=300)), draw(price_ticks))
             for _ in range(n_fills)]
    executed = sum(q for q, _ in fills)
    intended = executed + draw(qty)
    side = draw(st.sampled_from(["buy", "sell"]))
    return TCAInputs(
        side=side, intended_qty=intended, fills=fills,
        final_price=draw(price_ticks), decision_price=draw(price_ticks),
        arrival_price=draw(price_ticks), fixed=draw(st.integers(0, 50)))


@settings(max_examples=300, deadline=None)
@given(random_inputs())
def test_decomposition_identity_exact(inputs):
    """Expanded components sum to the shortfall total, exactly, on integers."""
    if inputs.intended_qty == 0:
        return
    base = shortfall(inputs)
    exp = expanded_tc(inputs)
    assert exp.delay_cost + exp.trade_related_cost == base.execution_cost
    assert exp.total == base.total
    assert base.total == base.execution_cost + base.opportunity_cost + base.fixed_cost


@settings(max_examples=300, deadline=None)
@given(random_inputs())
def test_side_flip_negates_components(inputs):
    """With fees at zero, flipping the side negates every price-driven component."""
    if inputs.intended_qty == 0:
        return
    a = TCAInputs(side=inputs.side, intended_qty=inputs.intended_qty,
                  fills=inputs.fills, final_price=inputs.final_price,
                  decision_price=inputs.decision_price,
                  arrival_price=inputs.arrival_price, fixed=0)
    flipped = TCAInputs(side="sell" if a.side == "buy" else "buy",
                        intended_qty=a.intended_qty, fills=a.fills,
                        final_price=a.final_price, decision_price=a.decision_price,
                        arrival_price=a.arrival_price, fixed=0)
    ra, rf = expanded_tc(a), expanded_tc(flipped)
    assert rf.execution_cost == -ra.execution_cost
    assert rf.opportunity_cost == -ra.opportunity_cost
    assert rf.delay_cost == -ra.delay_cost
    assert rf.trade_related_cost == -ra.trade_related_cost
    assert rf.total == -ra.total


@settings(max_examples=200, deadline=None)
@given(random_inputs())
def test_mirror_identity(inputs):
    """Reflecting every price about the benchmark mirrors a buy into an equal-cost sell."""
    if inputs.intended_qty == 0:
        return
    pd = Fraction(inputs.decision_price)
    reflect = lambda p: 2 * pd - Fraction(p)
    mirrored = TCAInputs(
        side="sell" if inputs.side == "buy" else "buy",
        intended_qty=inputs.intended_qty,
        fills=[(q, reflect(p)) for q, p in inputs.fills],
        final_price=reflect(inputs.final_price),
        decision_price=pd,
        arrival_price=reflect(inputs.arrival_price),
        fixed=inputs.fixed)
    a, b = expanded_tc(inputs), expanded_tc(mirrored)
    assert b.execution_cost == a.execution_cost
    assert b.delay_cost == a.delay_cost
    assert b.trade_related_cost == a.trade_related_cost
    assert b.opportunity_cost == a.opportunity_cost
    assert b.total == a.total


def test_exact_fraction_arithmetic_passes_through():
    inputs = TCAInputs(side="buy", intended_qty=Fraction(1000),
                       fills=[(Fraction(600), Fraction(101, 2))],
                       final_price=Fraction(51), decision_price=Fraction(50),
                       arrival_price=Fraction(251, 5))
    r = expanded_tc(inputs)
    assert r.delay_cost == Fraction(120)
    assert r.trade_related_cost == Fraction(180)
    assert r.total == Fraction(700)


@pytest.mark.parametrize("side", ["buy", "sell"])
def test_full_execution_opportunity_cost_is_positive_zero(side):
    # no shares left times a final price below the decision price is -0.0 in
    # floats; a signed zero cost would read as a measurement in the reports
    inputs = worked_inputs(side=side, fills=[(1000, 50.0)], final_price=49.5,
                           arrival_price=50.0)
    for report in (shortfall(inputs), expanded_tc(inputs)):
        assert math.copysign(1.0, report.opportunity_cost) == 1.0
        assert "opportunity_cost = 0.0\n" in report_text(report, side=side)


def test_report_text_renders_all_fields():
    r = expanded_tc(worked_inputs(arrival_price=50.2))
    text = report_text(r, side="buy")
    for key in ("execution_cost", "delay_cost", "trade_related_cost",
                "opportunity_cost", "fixed_cost", "total", "unexecuted"):
        assert key in text

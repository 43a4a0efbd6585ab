"""Schedule generators, POV sizing identities, and end-to-end algorithm runs."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradelab.exec_algos import (
    AlgoSpec,
    ExecutionTrace,
    ExecutionWiring,
    ParentOrder,
    Schedule,
    TiltPolicy,
    _cancel_resting,
    _ChildTracker,
    apportion,
    pov_adaptive_rate,
    pov_child_size,
    run_algorithm,
    twap_schedule,
    vwap_schedule,
)
from tradelab.orderbook import Order, OrderBook, OrderKind, Side
from tradelab.scenario import load_scenario
from tradelab.tactics import RouteWeights, SlicePolicy
from tradelab.venue_sim import (
    MarketParams,
    MarketSim,
    VenueConfig,
    VolumeProfile,
    u_shape_profile,
)

ROOT = Path(__file__).resolve().parent.parent


def parent(qty=10_000, start=0, end=18_000, side=Side.BUY, **kw):
    return ParentOrder(side=side, quantity=qty, start=start, end=end, **kw)


class TestApportion:
    def test_exact_split(self):
        assert apportion(1_000, [0.4, 0.2, 0.4]) == [400, 200, 400]

    def test_largest_remainder_ties_go_late(self):
        assert apportion(100, [1, 1, 1]) == [33, 33, 34]

    def test_sum_always_exact(self):
        for total in (0, 1, 7, 999, 10_000):
            split = apportion(total, [0.17, 0.4, 0.03, 0.4])
            assert sum(split) == total
            assert all(x >= 0 for x in split)


class TestTwapSchedule:
    def test_500_every_15_minutes_for_5_hours(self):
        # 15-minute buckets at one tick per second
        sched = twap_schedule(parent(10_000, 0, 18_000), bucket_ticks=900)
        assert len(sched) == 20
        assert set(sched.targets) == {500}

    def test_1000_every_15_minutes_for_2_and_half_hours(self):
        sched = twap_schedule(parent(10_000, 0, 9_000), bucket_ticks=900)
        assert len(sched) == 10
        assert set(sched.targets) == {1_000}

    def test_short_last_bucket(self):
        sched = twap_schedule(parent(1_000, 0, 1_000), bucket_ticks=300)
        assert len(sched) == 4
        assert sched.total == 1_000

    def test_untilted_sizes_equal_within_one_share(self):
        sched = twap_schedule(parent(1_000, 0, 700), bucket_ticks=100)  # 7 buckets
        assert max(sched.targets) - min(sched.targets) <= 1
        assert sched.total == 1_000

    def test_tilt_doubles_post_trigger_sizes(self):
        tilt = TiltPolicy(threshold=0.3, factor=2.0)
        sched = twap_schedule(parent(10_000, 0, 18_000), bucket_ticks=900, tilt=tilt)
        assert sched.total == 10_000
        targets = list(sched.targets)
        assert targets[:6] == [500] * 6          # up to 30% completion
        post = [t for t in targets[6:] if t > 0]
        assert all(t == 1_000 for t in post[:-1])
        assert sum(post) == 7_000                # accelerated tail, exact mass

    def test_tilt_deceleration_keeps_mass(self):
        tilt = TiltPolicy(threshold=0.5, factor=0.5)
        sched = twap_schedule(parent(10_000, 0, 18_000), bucket_ticks=900, tilt=tilt)
        assert sched.total == 10_000

    def test_jitter_preserves_mass_and_is_seeded(self):
        tilt = TiltPolicy(jitter=0.3, seed=42)
        a = twap_schedule(parent(10_000, 0, 18_000), bucket_ticks=900, tilt=tilt)
        b = twap_schedule(parent(10_000, 0, 18_000), bucket_ticks=900, tilt=tilt)
        assert a == b
        assert a.total == 10_000
        assert len(set(a.targets)) > 1           # actually jittered
        other = twap_schedule(parent(10_000, 0, 18_000), bucket_ticks=900,
                              tilt=TiltPolicy(jitter=0.3, seed=43))
        assert other.targets != a.targets

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError):
            ParentOrder(side=Side.BUY, quantity=100, start=10, end=10)


class TestVwapSchedule:
    def test_uniform_reduces_to_twap(self):
        sched = vwap_schedule(parent(1_000, 0, 4_000), VolumeProfile.uniform(4))
        assert sched.targets == (250, 250, 250, 250)

    def test_direct_profile_weighting(self):
        profile = VolumeProfile((0.4, 0.2, 0.4))
        sched = vwap_schedule(parent(1_000, 0, 3_000), profile)
        assert sched.targets == (400, 200, 400)

    def test_largest_remainder(self):
        profile = VolumeProfile((1 / 3, 1 / 3, 1 / 3))
        sched = vwap_schedule(parent(100, 0, 3_000), profile)
        assert sched.targets == (33, 33, 34)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=10**6),
           st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=40))
    def test_mass_exact_on_random_draws(self, total, weights):
        s = sum(weights)
        profile = VolumeProfile(tuple(w / s for w in weights))
        # guard the normalization tolerance of the profile type
        sched = vwap_schedule(parent(total, 0, 10_000), profile)
        assert sched.total == total


class TestPovSizing:
    def test_zero_rate(self):
        assert pov_child_size(900, 0.0) == 0

    def test_ten_percent_identity(self):
        child = pov_child_size(900, 0.1)
        assert child == 100
        assert child / (child + 900) == pytest.approx(0.1)

    def test_symmetry_at_half(self):
        assert pov_child_size(500, 0.5) == 500

    def test_rejects_full_participation(self):
        with pytest.raises(ValueError):
            pov_child_size(100, 1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.fractions(min_value=0, max_value=Fraction(9, 10)),
           st.integers(min_value=1, max_value=10**6))
    def test_rational_identity_exact(self, pr, other):
        # child/(child+other) == pr exactly on the rounding-free rational form
        child = pr / (1 - pr) * other
        assert child / (child + other) == pr


class TestPovAdaptive:
    def test_neutral_point(self):
        assert pov_adaptive_rate(0.2, 100.0, 100.0, 50.0, Side.BUY) == 0.2

    def test_buy_halves_one_percent_above(self):
        got = pov_adaptive_rate(0.2, 101.0, 100.0, 50.0, Side.BUY)
        assert got == pytest.approx(0.1)

    def test_buy_leans_in_below_benchmark(self):
        got = pov_adaptive_rate(0.2, 99.0, 100.0, 50.0, Side.BUY)
        assert got == pytest.approx(0.3)

    def test_sell_mirrors(self):
        assert pov_adaptive_rate(0.2, 101.0, 100.0, 50.0, Side.SELL) == pytest.approx(0.3)
        assert pov_adaptive_rate(0.2, 99.0, 100.0, 50.0, Side.SELL) == pytest.approx(0.1)

    def test_clamps_to_zero_on_extreme_adverse(self):
        assert pov_adaptive_rate(0.2, 150.0, 100.0, 50.0, Side.BUY) == 0.0

    def test_clamps_to_ceiling(self):
        assert pov_adaptive_rate(0.5, 50.0, 100.0, 50.0, Side.BUY, pr_max=0.95) == 0.95


def quarter_day_sim(seed=3, profile=None, venues=None, **overrides):
    base = dict(initial_price=50.0, volatility=0.1, adv=1_000_000, seed=seed,
                session_ticks=5_850, intensity=1.0)
    base.update(overrides)
    return MarketSim(MarketParams(**base), venues=venues, profile=profile)


class TestRunAlgorithm:
    def test_twap_quiet_market_fills_parent(self):
        sim = quarter_day_sim()
        p = parent(qty=13_000, start=0, end=5_850)
        trace = run_algorithm(AlgoSpec(type="twap", bucket_ticks=450), p, sim)
        assert trace.filled == 13_000
        assert trace.residual == 0
        assert len(trace.children) >= 13
        assert trace.average_price() == pytest.approx(50, abs=2)

    def test_twap_determinism(self):
        def one():
            sim = quarter_day_sim(seed=9)
            return run_algorithm(AlgoSpec(type="twap", bucket_ticks=450),
                                 parent(qty=5_000, start=0, end=5_850), sim)
        a, b = one(), one()
        assert a.fills == b.fills
        assert a.realized == b.realized

    def test_vwap_realized_tracks_profile(self):
        sim = quarter_day_sim(seed=5, profile=u_shape_profile(13))
        p = parent(qty=13_000, start=0, end=5_850)
        trace = run_algorithm(AlgoSpec(type="vwap"), p, sim)
        assert trace.filled == 13_000
        targets = [t for _, t, _ in trace.realized]
        assert len(targets) == 13
        middle = targets[len(targets) // 2]
        assert targets[0] > middle and targets[-1] > middle
        assert sum(targets) == p.quantity

    def test_sliced_vwap_steps_by_its_own_bucket(self):
        # VWAP buckets are horizon // len(profile); bucket_ticks is TWAP's and POV's
        def one(bucket_ticks):
            sim = quarter_day_sim(seed=5, profile=u_shape_profile(13))
            wiring = ExecutionWiring(slice_policy=SlicePolicy(display=400, jitter=0.3,
                                                              seed=2))
            return run_algorithm(AlgoSpec(type="vwap", bucket_ticks=bucket_ticks),
                                 parent(qty=13_000, start=0, end=5_850), sim,
                                 wiring=wiring)
        a, b = one(450), one(900)
        assert len(a.children) > 13   # sliced
        assert a.fills == b.fills
        assert a.realized == b.realized

    def test_pov_participation_single_seed(self):
        sim = quarter_day_sim(seed=11)
        p = parent(qty=1_000_000, start=0, end=5_850)
        trace = run_algorithm(AlgoSpec(type="pov", pr=0.1, bucket_ticks=450), p, sim)
        assert trace.participation == pytest.approx(0.1, abs=0.01)

    def test_pov_one_sided_volume_switch(self):
        # with the switch off, sizing targets same-side taker volume only
        sim = quarter_day_sim(seed=17)
        p = parent(qty=1_000_000, start=0, end=5_850)
        spec = AlgoSpec(type="pov", pr=0.1, bucket_ticks=450,
                        both_sides_volume=False)
        trace = run_algorithm(spec, p, sim)
        own_ids = {c.order_id for c in trace.children}
        # the runner drops the fills it harvests, so count from the event logs
        same_side_other = 0
        for book in sim.books.values():
            for line in book.log.lines:
                event, _, taker, side, _, qty, flags = line.split("|")
                maker = flags.split(",")[0].removeprefix("maker=")
                if (event == "fill" and side == "buy"
                        and taker not in own_ids and maker not in own_ids):
                    same_side_other += int(qty)
        realized = trace.filled / (trace.filled + same_side_other)
        assert realized == pytest.approx(0.1, abs=0.015)
        # measured against both-sides volume the footprint is smaller
        assert trace.participation < 0.08

    def test_pov_zero_liquidity_trades_nothing(self):
        sim = quarter_day_sim(seed=2, intensity=0.0)
        # drain the seeded depth so the book is truly empty
        for vid, book in sim.books.items():
            for oid in list(book.order_ids()):
                book.cancel(oid)
        p = parent(qty=10_000, start=0, end=1_000)
        trace = run_algorithm(AlgoSpec(type="pov", pr=0.2), p, sim)
        assert trace.filled == 0
        assert trace.residual == 10_000

    def test_max_child_cap_respected(self):
        sim = quarter_day_sim(seed=7)
        p = parent(qty=13_000, start=0, end=5_850)
        trace = run_algorithm(AlgoSpec(type="twap", bucket_ticks=450, max_child=300),
                              p, sim)
        assert all(c.quantity <= 300 for c in trace.children)

    def test_price_limited_children_are_ioc_limits(self):
        sim = quarter_day_sim(seed=7)
        p = parent(qty=2_000, start=0, end=2_000, price_limit=51)
        trace = run_algorithm(AlgoSpec(type="twap", bucket_ticks=500), p, sim)
        assert all(c.limit_price == 51 for c in trace.children)
        assert all(f.price <= 51 for f in trace.fills)

    def test_residual_marked_when_unfillable(self):
        sim = quarter_day_sim(seed=7)
        # unmarketable limit: nothing should ever fill
        p = parent(qty=2_000, start=0, end=2_000, price_limit=30)
        trace = run_algorithm(AlgoSpec(type="twap", bucket_ticks=500), p, sim)
        assert trace.filled == 0
        assert trace.residual == 2_000

    @pytest.mark.parametrize("latency", [0, 100])
    def test_never_exceeds_parent_quantity(self, latency):
        # at latency 100 children are still in flight at the next POV window
        # (45 ticks); they count as outstanding, so no share goes out twice
        sim = quarter_day_sim(seed=13, venues=[VenueConfig("V1", latency=latency)])
        p = parent(qty=4_000, start=0, end=5_850)
        trace = run_algorithm(AlgoSpec(type="pov", pr=0.3), p, sim)
        assert trace.filled <= 4_000
        assert sum(c.quantity for c in trace.children) <= 4_000 + 0  # guard incl. in-flight


class TestBoundedFillRecord:
    """The runner drops the fills it harvests; a book it does not drive keeps all."""

    VENUES = (VenueConfig("A", taker_fee=0.003, latency=1), VenueConfig("B", latency=2),
              VenueConfig("C", maker_fee=-0.001))

    def sim(self):
        return MarketSim(MarketParams(initial_price=50.0, volatility=0.1, adv=500_000,
                                      seed=3, session_ticks=2_000, intensity=1.0),
                         venues=self.VENUES)

    @staticmethod
    def logged_fills(book):
        return sum(line.startswith("fill|") for line in book.log.lines)

    def test_runner_leaves_no_fill_held(self):
        sim = self.sim()
        wiring = ExecutionWiring(slice_policy=SlicePolicy(display=250),
                                 route_weights=RouteWeights())
        trace = run_algorithm(AlgoSpec(type="twap", bucket_ticks=500),
                              parent(qty=4_000, end=2_000), sim, wiring=wiring)
        assert trace.filled == 4_000
        assert len({f.venue_id for f in trace.fills}) > 1   # routed, not one venue
        for vid, book in sim.books.items():
            assert book.fill_count() == self.logged_fills(book) > 0, vid
            with pytest.raises(ValueError):
                book.fills_since(book.fill_count() - 1)
            with pytest.raises(ValueError):
                book.fills_since(0)

    def test_second_runner_starts_past_the_dropped_fills(self):
        sim = self.sim()
        first = run_algorithm(AlgoSpec(type="twap", bucket_ticks=500),
                              parent(qty=1_000, end=1_000), sim)
        second = run_algorithm(AlgoSpec(type="twap", bucket_ticks=500),
                               parent(qty=1_000, start=1_000, end=2_000), sim)
        assert first.filled == second.filled == 1_000
        assert min(f.tick for f in second.fills) >= 1_000

    def test_simulator_alone_keeps_every_fill(self):
        sim = self.sim()
        sim.run_session()
        for vid, book in sim.books.items():
            assert len(book.fills_since(0)) == book.fill_count() \
                == self.logged_fills(book) > 0, vid


def test_resting_children_are_cancelled_in_submission_order():
    sim = quarter_day_sim()
    book = sim.book()
    tracker = _ChildTracker(sim)
    submitted = [f"child-{n}" for n in (7, 2, 9, 4, 1, 8, 3)]
    for oid in submitted:
        order = Order(oid, Side.BUY, OrderKind.LIMIT, 10, limit_price=1)
        book.submit(order)
        tracker.register(order, book)
    _cancel_resting(tracker)
    cancels = [line.split("|")[2] for line in book.log.lines
               if line.startswith("cancel|") and "why=user" in line]
    assert cancels == submitted
    assert tracker.working == {}
    assert all(book.ledger(oid) == (0, 0, 0) for oid in submitted)


class TestWorkingChildren:
    """The runner tracks only the children that may still trade, and releases
    each finished child's ledger."""

    RUNS = {"twap_quarter_day": ROOT / "scenarios" / "twap_quarter_day.ini",
            "pov_quarter_day": ROOT / "scenarios" / "pov_quarter_day.ini",
            "routed_day": ROOT / "tests" / "inputs" / "routed_day.ini"}

    @staticmethod
    def run(path):
        scenario = load_scenario(path)
        sim = MarketSim(scenario.market, venues=scenario.venues, profile=scenario.profile)
        trace = run_algorithm(scenario.algo, scenario.parent, sim, wiring=scenario.wiring)
        return sim, trace

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_books_hold_no_child_ledger_after_a_run(self, name):
        sim, trace = self.run(self.RUNS[name])
        assert trace.children
        for vid, book in sim.books.items():
            assert not [oid for oid in book._ledger if oid.startswith("child-")], vid

    def test_runner_probes_each_child_a_few_times(self, monkeypatch):
        calls = {"ledger": 0, "remaining": 0}

        def counted(name):
            original = getattr(OrderBook, name)

            def probe(self, order_id):
                if sys._getframe(1).f_globals["__name__"] == "tradelab.exec_algos":
                    calls[name] += 1
                return original(self, order_id)
            return probe

        for name in calls:
            monkeypatch.setattr(OrderBook, name, counted(name))
        _, trace = self.run(self.RUNS["pov_quarter_day"])
        children = len(trace.children)
        assert children > 100
        assert calls["ledger"] + calls["remaining"] <= 3 * children, calls

    def test_no_child_is_in_flight_at_the_horizon_end(self):
        # a child that would arrive after the parent's end is never sent, so
        # the trace accounts for every share the runner put out
        sim = MarketSim(MarketParams(50.0, 0.15, 1e6, seed=13, session_ticks=5_850),
                        venues=[VenueConfig("V1", latency=100)], profile=u_shape_profile(13))
        p = parent(qty=2_000_000, start=0, end=5_000)
        trace = run_algorithm(AlgoSpec(type="pov", pr=0.3), p, sim)
        assert not [o.order_id for *_, o in sim._inflight if o.order_id.startswith("child-")]
        book = sim.book()
        mark = book.fill_count()
        sim.advance(200)
        later = sum(f.quantity for f in book.fills_since(mark)
                    if f.taker_order_id.startswith("child-"))
        assert trace.filled + later + trace.residual == p.quantity
        assert not [oid for oid in book._ledger if oid.startswith("child-")]

    def test_in_flight_child_counts_as_outstanding_until_it_is_done(self):
        sim = quarter_day_sim(venues=[VenueConfig("SLOW", latency=5)])
        book = sim.book()
        tracker = _ChildTracker(sim)
        order = Order(tracker.next_id(), Side.BUY, OrderKind.MARKET, 300)
        tracker.register(order, book)
        sim.dispatch("SLOW", order)
        sim.advance(4)
        tracker.harvest(ExecutionTrace(parent=parent()))
        assert tracker.outstanding() == 300   # in flight: no ledger yet
        sim.advance(1)
        trace = ExecutionTrace(parent=parent())
        tracker.harvest(trace)
        assert trace.filled == 300
        assert tracker.outstanding() == 0
        assert tracker.working == {}
        assert book.ledger(order.order_id) == (0, 0, 0)   # released
        assert tracker.next_id() == "child-0002"

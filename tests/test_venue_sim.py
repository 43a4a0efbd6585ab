"""Simulator determinism, calibration, fees, latency, and profile shapes."""

import pytest

from tradelab.orderbook import Fill, Order, OrderKind, Side
from tradelab.venue_sim import (
    MarketParams,
    MarketSim,
    VenueConfig,
    VolumeProfile,
    settle_fees,
    u_shape_profile,
)


def params(seed=0, **overrides):
    base = dict(initial_price=50.0, volatility=0.25, adv=1_000_000, seed=seed,
                session_ticks=5_850, intensity=1.0)
    base.update(overrides)
    return MarketParams(**base)


class TestVolumeProfile:
    def test_single_bucket(self):
        assert u_shape_profile(1).fractions == (1.0,)

    def test_three_buckets_ends_heavy(self):
        p = u_shape_profile(3)
        assert sum(p.fractions) == pytest.approx(1.0)
        assert p.fractions[0] >= p.fractions[1]
        assert p.fractions[2] >= p.fractions[1]
        assert p.fractions[0] == pytest.approx(p.fractions[2])

    def test_thirteen_buckets_u_shape(self):
        fr = u_shape_profile(13).fractions
        mid = len(fr) // 2
        assert all(a >= b for a, b in zip(fr[:mid], fr[1:mid + 1]))
        assert all(b >= a for a, b in zip(fr[mid:], fr[mid + 1:]))
        assert sum(fr) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            VolumeProfile((0.5, 0.4))          # does not sum to 1
        with pytest.raises(ValueError):
            VolumeProfile((1.5, -0.5))

    def test_bucket_lookup(self):
        p = VolumeProfile.uniform(4)
        assert p.bucket_of(0, 400) == 0
        assert p.bucket_of(399, 400) == 3
        assert p.boundaries(400) == [(0, 100), (100, 200), (200, 300), (300, 400)]

    @pytest.mark.parametrize("session_ticks", [1_000, 4_000, 5_850])
    def test_every_tick_lies_in_its_bucket(self, session_ticks):
        p = VolumeProfile.uniform(13)
        bounds = p.boundaries(session_ticks)
        for tick in range(session_ticks):
            start, end = bounds[p.bucket_of(tick, session_ticks)]
            assert start <= tick < end, tick


class TestFees:
    FILL = Fill("t", "m", price=50, quantity=100, time=1)

    def test_taker_fee(self):
        v = VenueConfig("V", taker_fee=0.003)
        assert settle_fees(v, self.FILL, "taker") == pytest.approx(0.30)

    def test_maker_rebate(self):
        v = VenueConfig("V", maker_fee=-0.002)
        assert settle_fees(v, self.FILL, "maker") == pytest.approx(-0.20)

    def test_zero_fee_venue(self):
        v = VenueConfig("V")
        assert settle_fees(v, self.FILL, "taker") == 0.0

    def test_taker_cost_nonnegative_despite_maker_rebate(self):
        v = VenueConfig("V", maker_fee=-0.002, taker_fee=0.003)
        assert settle_fees(v, self.FILL, "taker") >= 0.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            VenueConfig("V", latency=-1)


class TestDispatch:
    def test_zero_latency_arrives_now(self):
        sim = MarketSim(params(), venues=[VenueConfig("V", latency=0)])
        order = Order("o1", Side.BUY, OrderKind.LIMIT, 100, limit_price=48)
        assert sim.dispatch("V", order) == sim.clock

    def test_latency_five(self):
        sim = MarketSim(params(), venues=[VenueConfig("V", latency=5)])
        order = Order("o1", Side.BUY, OrderKind.LIMIT, 100, limit_price=48)
        assert sim.dispatch("V", order) == sim.clock + 5

    def test_cross_venue_arrival_order_reverses(self):
        sim = MarketSim(params(intensity=0.0),
                        venues=[VenueConfig("SLOW", latency=5),
                                VenueConfig("FAST", latency=1)])
        first = Order("first", Side.BUY, OrderKind.LIMIT, 10, limit_price=48)
        second = Order("second", Side.BUY, OrderKind.LIMIT, 10, limit_price=48)
        a1 = sim.dispatch("SLOW", first)
        a2 = sim.dispatch("FAST", second)
        assert a2 < a1
        sim.advance(6)
        assert sim.book("FAST").remaining("second") == 10
        assert sim.book("SLOW").remaining("first") == 10

    def test_capability_gating(self):
        sim = MarketSim(params(), venues=[VenueConfig("LIT", supports_hidden=False,
                                                      supports_iceberg=False)])
        hidden = Order("h", Side.BUY, OrderKind.LIMIT, 100, limit_price=48,
                       display_quantity=0)
        with pytest.raises(ValueError):
            sim.dispatch("LIT", hidden)
        iceberg = Order("i", Side.BUY, OrderKind.LIMIT, 100, limit_price=48,
                        display_quantity=10)
        with pytest.raises(ValueError):
            sim.dispatch("LIT", iceberg)


class TestAdvance:
    def test_zero_intensity_no_background_events(self):
        sim = MarketSim(params(intensity=0.0))
        seeded = list(sim.book().log.lines)
        sim.advance(200)
        assert sim.fills == []
        assert sim.book().log.lines == seeded
        assert len(seeded) == 2 * sim.params.max_quote_offset
        assert all(line.startswith("submit|0|bg-") for line in seeded)

    def test_driftless_degenerate_mid_stays_put(self):
        sim = MarketSim(params(seed=3, volatility=0.0))
        sim.run_session()
        assert abs(sim.mid() - 50.0) <= 1.0

    def test_session_volume_near_adv_single_seed(self):
        sim = MarketSim(params(seed=1))
        sim.run_session()
        traded = sum(f.quantity for _, f in sim.fills)
        assert traded == pytest.approx(sim.params.adv, rel=0.10)

    def test_bucket_realization_tracks_profile(self):
        profile = u_shape_profile(13)
        sim = MarketSim(params(seed=4), profile=profile)
        sim.run_session()
        per_bucket = [0] * 13
        for vid, f in sim.fills:
            per_bucket[profile.bucket_of(f.time - 1, sim.params.session_ticks)] += f.quantity
        total = sum(per_bucket)
        for j, z in enumerate(profile.fractions):
            assert per_bucket[j] / total == pytest.approx(z, rel=0.35)
        # the U shape itself: both ends heavier than the middle bucket
        assert per_bucket[0] > per_bucket[6]
        assert per_bucket[-1] > per_bucket[6]

    def test_dt_must_be_positive(self):
        with pytest.raises(ValueError):
            MarketSim(params()).advance(0)

    def test_bucket_realization_tightens_with_intensity(self):
        # per-bucket shares converge to z_j as the flow intensity grows
        profile = u_shape_profile(13)

        def worst_error(intensity):
            sim = MarketSim(params(seed=2, intensity=intensity,
                                   session_ticks=2_600), profile=profile)
            sim.run_session()
            per_bucket = [0] * 13
            for vid, f in sim.fills:
                per_bucket[profile.bucket_of(f.time - 1, 2_600)] += f.quantity
            total = sum(per_bucket)
            return max(abs(v / total - z)
                       for v, z in zip(per_bucket, profile.fractions))

        assert worst_error(8.0) < worst_error(0.5)


class TestDeterminism:
    def run_one(self, seed):
        sim = MarketSim(params(seed=seed, session_ticks=1_000))
        sim.advance(1_000)
        snap = sim.book().snapshot(visibility="omniscient")
        return sim.fills, snap, sim.book().log.lines

    def test_identical_seed_identical_stream(self):
        fills_a, snap_a, log_a = self.run_one(42)
        fills_b, snap_b, log_b = self.run_one(42)
        assert fills_a == fills_b
        assert snap_a == snap_b
        assert log_a == log_b

    def test_different_seed_diverges(self):
        fills_a, _, _ = self.run_one(42)
        fills_b, _, _ = self.run_one(43)
        assert fills_a != fills_b

"""Simulator determinism, calibration, fees, latency, and profile shapes."""

import gc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

from tradelab.orderbook import Fill, Order, OrderBook, OrderKind, Side, Tif
from tradelab.scenario import load_scenario
from tradelab.venue_sim import (
    BLOCK_TICKS,
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


def all_fills(sim):
    """(venue, fill) for every fill of every book, venue by venue."""
    return [(vid, f) for vid, book in sim.books.items() for f in book.fills_since(0)]


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
    FILL = Fill("t", "m", price=50, quantity=100, time=1, taker_side=Side.BUY)

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
        assert all_fills(sim) == []
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
        traded = sum(f.quantity for _, f in all_fills(sim))
        assert traded == pytest.approx(sim.params.adv, rel=0.10)

    def test_bucket_realization_tracks_profile(self):
        profile = u_shape_profile(13)
        sim = MarketSim(params(seed=4), profile=profile)
        sim.run_session()
        per_bucket = [0] * 13
        for vid, f in all_fills(sim):
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

    def test_negative_seed_named_where_the_params_are_made(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            params(seed=-1)

    def test_run_session_at_the_close_is_a_no_op(self):
        sim = MarketSim(params(seed=2, session_ticks=300))
        sim.run_session()
        state = (sim.clock, sim.mid(), sim.book().fill_count(), sim.book().log.to_text())
        sim.run_session()
        assert (sim.clock, sim.mid(), sim.book().fill_count(),
                sim.book().log.to_text()) == state
        assert state[0] == 300 and state[2] > 0
        sim.advance(5)   # past the close, run_session still does nothing
        sim.run_session()
        assert sim.clock == 305

    def test_bucket_realization_tightens_with_intensity(self):
        # per-bucket shares converge to z_j as the flow intensity grows
        profile = u_shape_profile(13)

        def worst_error(intensity):
            sim = MarketSim(params(seed=2, intensity=intensity,
                                   session_ticks=2_600), profile=profile)
            sim.run_session()
            per_bucket = [0] * 13
            for vid, f in all_fills(sim):
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
        return all_fills(sim), snap, sim.book().log.lines

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


THREE_VENUES = (VenueConfig("A", latency=1), VenueConfig("B", latency=3), VenueConfig("C"))


class TestChunking:
    """The stream is a function of the seed and the clock alone: how the
    caller chops the session into ``advance`` calls must not matter."""

    CHECKPOINT = 1_234   # mid-block: every chopping stops here once

    def run_in_steps(self, step):
        """The run's logs and fills, and the sim's state at CHECKPOINT and at
        the close: clock, fundamental, background count and resting sides."""
        sim = MarketSim(params(seed=11, session_ticks=2_500, cancel_prob=0.05),
                        venues=THREE_VENUES)
        for vid in sim.venues:   # one dispatched order per venue, landing after its latency
            sim.dispatch(vid, Order(f"c-{vid}", Side.BUY, OrderKind.MARKET, 300))
        states = []
        for end in (self.CHECKPOINT, sim.params.session_ticks):
            if step is None and end == self.CHECKPOINT:
                sim.advance(end)
            elif step is None:
                sim.run_session()
            while sim.clock < end:
                sim.advance(min(step, end - sim.clock))
            states.append((sim.clock, sim.fundamental, sim._bg_count, sim.order_sides))
        return ({vid: book.log.lines for vid, book in sim.books.items()},
                all_fills(sim), states)

    # a step of BLOCK_TICKS - 1, BLOCK_TICKS or BLOCK_TICKS + 1 starts or ends
    # calls on block edges, where advance draws the next block mid-call
    @pytest.mark.parametrize("step", [1, 7, BLOCK_TICKS - 1, BLOCK_TICKS, BLOCK_TICKS + 1])
    def test_advance_steps_give_the_session_stream(self, step):
        logs, fills, states = self.run_in_steps(step)
        logs_s, fills_s, states_s = self.run_in_steps(None)
        assert [s[0] for s in states] == [self.CHECKPOINT, 2_500]
        assert all(s[3] for s in states)   # some background orders rest
        assert states == states_s
        assert fills == fills_s
        assert logs == logs_s

    def test_a_raise_leaves_the_sim_at_its_tick(self, monkeypatch):
        # advance keeps clock and fundamental in locals; a raise from a book
        # mid-call must still leave them written back at the tick it failed on
        sim, ref = (MarketSim(params(seed=3, session_ticks=3_000), venues=THREE_VENUES)
                    for _ in range(2))
        book = sim.books["B"]
        submit, failed = book.submit, []

        def failing(order, clock=None):
            if clock >= 1_500:
                failed.append(clock)
                raise RuntimeError("venue down")
            return submit(order, clock)

        monkeypatch.setattr(book, "submit", failing)
        with pytest.raises(RuntimeError, match="venue down"):
            sim.advance(2_000)
        ref.advance(failed[0])
        assert 1_500 <= failed[0] < 2_000
        assert (sim.clock, sim.fundamental) == (ref.clock, ref.fundamental)
        assert sim.clock == failed[0]


class TestPerOrderState:
    """Per-order state follows the live book, not every order ever sent."""

    @pytest.fixture(scope="class")
    def session(self):
        sim = MarketSim(params(seed=5, session_ticks=3_000, cancel_prob=0.1,
                               limit_ttl=300), venues=THREE_VENUES)
        children = {}
        while sim.clock < sim.params.session_ticks:
            if sim.clock % 250 == 0:
                for vid in sim.venues:
                    oid = f"child-{vid}-{sim.clock}"
                    side = Side.BUY if sim.clock % 500 == 0 else Side.SELL
                    children[oid] = vid
                    sim.dispatch(vid, Order(oid, side, OrderKind.MARKET, 400))
            sim.advance(1)
        return sim, children

    def test_ledgers_and_sides_hold_live_and_child_ids_only(self, session):
        sim, children = session
        held = set()
        for book in sim.books.values():
            live = book.order_ids()
            held |= live
            assert set(book._ledger) <= live | children.keys()
        assert set(sim.order_sides) == {oid for oid in held if oid.startswith("bg-")}

    def test_live_set_is_the_background_ids_the_books_hold(self, session):
        sim, _ = session
        for vid, book in sim.books.items():
            live = sim._live[vid]
            assert sorted(live.ids) == sorted(o for o in book.order_ids() if o.startswith("bg-"))
            assert all(live.ids[i] == oid for oid, i in live.pos.items())

    def test_departed_background_ids_read_zero(self, session):
        sim, _ = session
        ways = {"fill": set(), "expire": set(), "cancel": set(), "market": set()}
        for book in sim.books.values():
            for line in book.log.lines:
                event, _, oid, _, _, _, flags = line.split("|")
                if not oid.startswith("bg-"):
                    continue
                if event == "fill":
                    ways["fill"].add(flags.split(",")[0].removeprefix("maker="))
                elif event == "expire":
                    ways["expire"].add(oid)
                elif event == "cancel" and flags == "why=user":
                    ways["cancel"].add(oid)
                elif event == "submit" and "kind=market" in flags:
                    ways["market"].add(oid)
            gone = {oid for ids in ways.values() for oid in ids} - book.order_ids()
            assert all(book.ledger(oid) == (0, 0, 0) for oid in gone)
        for way, ids in ways.items():
            assert ids, f"no background order left the book by {way}"

    def test_books_die_with_the_sim_without_the_cyclic_collector(self):
        # each book's on_leave hook holds neither its book nor the sim: a
        # reference cycle would keep a finished run's books until a collection
        gc.disable()
        try:
            sim = MarketSim(params(seed=5, session_ticks=600, cancel_prob=0.1),
                            venues=THREE_VENUES)
            sim.run_session()
            assert all(len(live) for live in sim._live.values())
            refs = [weakref.ref(book) for book in sim.books.values()]
            del sim
            assert [ref() for ref in refs] == [None] * 3
        finally:
            gc.enable()

    def test_children_keep_their_totals(self, session):
        sim, children = session
        for oid, vid in children.items():
            book = sim.books[vid]
            filled = sum(f.quantity for f in book.fills_since(0) if f.taker_order_id == oid)
            assert filled > 0
            assert book.ledger(oid) == (400, filled, 400 - filled)


class TestBackgroundOrders:
    def test_orders_equal_their_keyword_built_forms(self, monkeypatch):
        """The flow builds its orders as bare tuples; each equals the order the
        keyword constructor makes, with every other field at its default."""
        seen = []
        submit = OrderBook.submit

        def spy(book, order, clock=None):
            seen.append((clock, order))
            return submit(book, order, clock)

        monkeypatch.setattr(OrderBook, "submit", spy)
        p = params(seed=3)
        sim = MarketSim(p, venues=[VenueConfig("A"), VenueConfig("B")])
        seeded = len(seen)
        sim.advance(400)
        flow = seen[seeded:]
        assert {order.kind for _, order in flow} == {OrderKind.MARKET, OrderKind.LIMIT}
        for clock, order in flow:
            if order.kind is OrderKind.MARKET:
                want = Order(order.order_id, order.side, OrderKind.MARKET, order.quantity)
            else:
                want = Order(order.order_id, order.side, OrderKind.LIMIT, order.quantity,
                             limit_price=order.limit_price, tif=Tif.GTD,
                             tif_time=clock + p.limit_ttl)
            assert type(order) is Order and order == want
            assert [type(v) for v in order] == [type(v) for v in want]


class TestStreamStatistics:
    """The drawn flow matches ``MarketParams`` on fixed seeds.

    One venue at intensity 4 over 5,850 ticks: about 23,000 background
    orders. With zero volatility the fundamental stays at the initial price,
    so a limit price gives its quote offset back exactly. Each tolerance is
    at least three standard errors of its statistic.
    """

    @pytest.fixture(scope="class", params=[1_000_000, 20_000], ids=["adv1m", "adv20k"])
    def flow(self, request):
        p = params(seed=21, adv=request.param, intensity=4.0, volatility=0.0, cancel_prob=0.1)
        sim = MarketSim(p, profile=u_shape_profile(13))
        sim.run_session()
        submits, cancels = [], 0
        for line in sim.book().log.lines:
            event, clock, oid, _, price, qty, flags = line.split("|")
            if event == "submit" and clock != "0":    # after the seeded depth
                submits.append((int(clock), "kind=market" in flags, int(qty), price))
            cancels += event == "cancel" and flags == "why=user"
        return sim, submits, cancels

    @staticmethod
    def expected_mean_taker(p, profile):
        """Mean market-order size per bucket: z_j * ADV over the bucket's taker arrivals."""
        return [max(1.0, z * p.adv / ((end - start) * p.intensity * p.market_order_fraction))
                for z, (start, end) in zip(profile.fractions,
                                           profile.boundaries(p.session_ticks))]

    def test_market_order_fraction(self, flow):
        sim, submits, _ = flow
        share = sum(market for _, market, _, _ in submits) / len(submits)
        assert share == pytest.approx(sim.params.market_order_fraction, abs=0.015)

    def test_quote_offsets_are_uniform_on_one_to_max(self, flow):
        sim, submits, _ = flow
        anchor = sim.params.initial_price_ticks
        offsets = [abs(int(price) - anchor) for _, market, _, price in submits if not market]
        top = sim.params.max_quote_offset
        assert set(offsets) == set(range(1, top + 1))
        for k in range(1, top + 1):
            assert offsets.count(k) / len(offsets) == pytest.approx(1 / top, abs=0.02)

    @pytest.mark.parametrize("market", [True, False], ids=["taker", "maker"])
    def test_mean_size_per_bucket(self, flow, market):
        sim, submits, _ = flow
        p, profile = sim.params, sim.profile
        means = self.expected_mean_taker(p, profile)
        mult = 1.0 if market else p.maker_size_mult
        sizes = [[] for _ in means]
        for clock, is_market, qty, _ in submits:
            if is_market is market:
                sizes[profile.bucket_of(clock - 1, p.session_ticks)].append(qty)
        assert min(min(b) for b in sizes) >= 1
        for j, (bucket, mean) in enumerate(zip(sizes, means)):
            assert sum(bucket) / len(bucket) == pytest.approx(mean * mult, rel=0.2), j
        # over the whole session, in units of each order's own bucket mean
        ratio = sum(sum(b) / (m * mult) for b, m in zip(sizes, means)) / sum(map(len, sizes))
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_cancel_rate(self, flow):
        sim, _, cancels = flow
        expected = sim.params.cancel_prob * sim.params.session_ticks
        assert cancels == pytest.approx(expected, rel=0.15)


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def mid_path(path, seed=None, tick_size=None):
    """The packaged market alone, sampled every 50 ticks over the session:
    (distinct mids, samples, mean quoted spread in bp over two-sided samples)."""
    scenario = load_scenario(path, seed=seed)
    params = scenario.market
    if tick_size is not None:   # the same market in other ticks
        params = replace(params, tick_size=tick_size)
    sim = MarketSim(params, venues=scenario.venues, profile=scenario.profile)
    book = sim.book()
    mids, spreads = [], []
    for _ in range(params.session_ticks // 50):
        sim.advance(50)
        mids.append(book.mid())
        bid, ask = book.best_bid(), book.best_ask()
        if bid is not None and ask is not None:
            spreads.append((ask - bid) / ((ask + bid) / 2) * 1e4)
    return len(set(mids) - {None}), len(mids), sum(spreads) / len(spreads)


class TestPackagedMarketMoves:
    """The packaged TWAP and POV scenarios trade in a market whose price moves."""

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    @pytest.mark.parametrize("name", ["twap_quarter_day", "pov_quarter_day"])
    def test_mid_moves_and_spread_is_plausible(self, name, seed):
        distinct, samples, spread_bp = mid_path(SCENARIOS / f"{name}.ini", seed)
        assert samples == 117
        assert distinct >= 30
        assert 2.0 <= spread_bp <= 20.0

    def test_dollar_ticks_fail_the_check(self):
        # the check can fail: the same market in 1.0 ticks barely moves
        distinct, _, _ = mid_path(SCENARIOS / "pov_quarter_day.ini", tick_size=1.0)
        assert distinct < 30

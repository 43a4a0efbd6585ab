"""Slicing, layering, pinging, sniping, routing, aggregation, catching."""

import numpy as np
import pytest

from tradelab.orderbook import (
    Disposition,
    Order,
    OrderBook,
    OrderKind,
    Side,
    Tif,
)
from tradelab.tactics import (
    CatchStop,
    HiddenLiquidityTracker,
    LayerActions,
    LayerSet,
    RouteWeights,
    SlicePolicy,
    SnipeWatch,
    VirtualEntry,
    aggregate,
    candidates_from_virtual,
    draw_slice_size,
    maintain_layers,
    ping,
    price_step,
    route,
    timing_urgency,
)
from tradelab.venue_sim import VenueConfig


def limit(oid, side, price, qty, display=None, tif=Tif.GTC):
    return Order(oid, side, OrderKind.LIMIT, qty, limit_price=price,
                 display_quantity=display, tif=tif)


def draws(policy, n):
    rng = np.random.default_rng(policy.seed)
    return [draw_slice_size(policy, rng) for _ in range(n)]


class TestDrawSliceSize:
    def test_table3_golden_850_second_slice(self):
        # seed frozen so the randomized second slice reproduces the published
        # 850-share follow-up (the first draw sized S1)
        assert draws(SlicePolicy(display=1_000, jitter=0.3, seed=38), 2)[1] == 850

    def test_deterministic_under_seed(self):
        def sizes(seed):
            return draws(SlicePolicy(display=1_000, jitter=0.3, seed=seed), 10)
        assert sizes(9) == sizes(9)
        assert sizes(9) != sizes(10)

    def test_zero_jitter_is_always_display(self):
        assert draws(SlicePolicy(display=1_000, seed=4), 20) == [1_000] * 20

    @pytest.mark.parametrize("display,jitter", [(1_000, 0.3), (3, 0.9), (1, 0.5)])
    def test_jittered_size_within_band(self, display, jitter):
        for size in draws(SlicePolicy(display=display, jitter=jitter, seed=11), 500):
            assert size >= 1
            assert round(display * (1 - jitter)) <= size <= round(display * (1 + jitter))


class TestLayering:
    def make(self, mid=100):
        layers = LayerSet(side=Side.BUY, offsets=(1, 2, 3), rung_size=100,
                          max_total=10_000)
        actions = maintain_layers(layers, mid)
        assert len(actions.new_orders) == 3
        return layers, actions

    def test_static_mid_no_actions(self):
        layers, _ = self.make()
        actions = maintain_layers(layers, 100)
        assert actions == LayerActions(new_orders=(), cancels=())

    def test_mid_up_one_tick_rolls_ladder(self):
        layers, initial = self.make(100)   # rungs at 99, 98, 97
        book = OrderBook()
        book.submit(limit("ask", Side.SELL, 105, 10), clock=1)
        for o in initial.new_orders:
            book.submit(o, clock=2)
        pre = {e.order_id: e.priority
               for lvl in book.snapshot(visibility="omniscient").bids
               for e in lvl.entries}
        actions = maintain_layers(layers, 101)  # targets 100, 99, 98
        assert len(actions.new_orders) == 1
        assert actions.new_orders[0].limit_price == 100
        assert len(actions.cancels) == 1
        for oid in actions.cancels:
            book.cancel(oid)
        for o in actions.new_orders:
            book.submit(o, clock=3)
        post = {e.order_id: e.priority
                for lvl in book.snapshot(visibility="omniscient").bids
                for e in lvl.entries}
        survivors = set(pre) & set(post)
        assert len(survivors) == 2
        for oid in survivors:
            assert post[oid] == pre[oid]   # time priority preserved

    def test_total_capped_by_parent_remainder(self):
        layers = LayerSet(side=Side.BUY, offsets=(1, 2, 3, 4), rung_size=100,
                          max_total=250)
        actions = maintain_layers(layers, 100)
        assert len(actions.new_orders) == 2   # 2 * 100 <= 250 < 3 * 100
        assert sum(o.quantity for o in actions.new_orders) <= 250


class TestPing:
    def latent_book(self):
        book = OrderBook(venue_id="V1")
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
        book.submit(limit("HB", Side.BUY, 51, 2_000, display=0), clock=2)
        # the hidden buy crossed 1,000 at 51; 1,000 rests latent at 51
        assert book.remaining("HB") == 1_000
        return book

    def test_discovers_hidden_liquidity(self):
        book = self.latent_book()
        tracker = HiddenLiquidityTracker()
        result = ping(book, Side.SELL, 51, 1_000, Tif.IOC, tracker)
        assert result.filled == 1_000
        assert result.hidden_filled == 1_000
        assert tracker.probability("V1", 51) > 0.5
        assert result.estimate.expected_hidden_size == 1_000

    def test_empty_level_decays_estimate(self):
        book = OrderBook(venue_id="V1")
        book.submit(limit("B", Side.BUY, 40, 10), clock=1)   # keep book nonempty
        tracker = HiddenLiquidityTracker()
        p0 = tracker.probability("V1", 51)
        result = ping(book, Side.SELL, 51, 500, Tif.IOC, tracker)
        assert result.filled == 0
        assert tracker.probability("V1", 51) < p0

    def test_fok_ping_atomicity(self):
        book = self.latent_book()
        tracker = HiddenLiquidityTracker()
        result = ping(book, Side.SELL, 51, 5_000, Tif.FOK, tracker)
        assert result.filled == 0
        assert book.remaining("HB") == 1_000   # untouched

    def test_visible_fills_are_not_hidden_evidence(self):
        book = OrderBook(venue_id="V1")
        book.submit(limit("B1", Side.BUY, 51, 800), clock=1)
        tracker = HiddenLiquidityTracker()
        result = ping(book, Side.SELL, 51, 500, Tif.IOC, tracker)
        assert result.filled == 500
        assert result.hidden_filled == 0
        assert tracker.probability("V1", 51) < 0.5

    def test_rejects_resting_instructions(self):
        with pytest.raises(ValueError):
            ping(OrderBook(), Side.SELL, 51, 100, Tif.GTC, HiddenLiquidityTracker())

    def test_identical_sequences_give_identical_ids_and_fills(self):
        def run():
            book = self.latent_book()
            tracker = HiddenLiquidityTracker()
            ping(book, Side.SELL, 51, 400, Tif.IOC, tracker)
            ping(book, Side.SELL, 51, 5_000, Tif.FOK, tracker)
            ping(book, Side.SELL, 51, 400, Tif.IOC, tracker)
            return book.fills_since(0)

        first, second = run(), run()
        assert first == second
        assert [f.taker_order_id for f in first if f.taker_order_id.startswith("ping-")] \
            == ["ping-1", "ping-3"]

    def test_fill_frequency_tracks_hidden_presence(self):
        tracker = HiddenLiquidityTracker()
        for i in range(50):
            book = OrderBook(venue_id="V1")
            book.submit(limit("S", Side.SELL, 51, 100), clock=1)
            book.submit(limit("H", Side.BUY, 51, 500, display=0), clock=2)
            ping(book, Side.SELL, 51, 400, Tif.IOC, tracker)
        assert tracker.probability("V1", 51) > 0.9
        empty_tracker = HiddenLiquidityTracker()
        for i in range(50):
            book = OrderBook(venue_id="V1")
            book.submit(limit("B", Side.BUY, 40, 10), clock=1)
            ping(book, Side.SELL, 51, 400, Tif.IOC, empty_tracker)
        assert empty_tracker.probability("V1", 51) < 0.1


class TestSnipe:
    def test_fires_when_liquidity_appears_at_trigger(self):
        book = OrderBook(venue_id="V1")
        book.submit(limit("S1", Side.SELL, 52, 500), clock=1)
        watch = SnipeWatch(side=Side.BUY, trigger=51, qty=400)
        assert watch.check(book.snapshot()) is None
        book.submit(limit("S2", Side.SELL, 51, 300), clock=2)
        shot = watch.check(book.snapshot())
        assert shot is not None and shot.tif is Tif.IOC
        assert shot.limit_price == 51

    def test_no_event_no_orders(self):
        book = OrderBook(venue_id="V1")
        book.submit(limit("S1", Side.SELL, 55, 500), clock=1)
        watch = SnipeWatch(side=Side.BUY, trigger=51, qty=400)
        for _ in range(10):
            assert watch.check(book.snapshot()) is None

    def test_partial_fill_rearms_and_never_rests(self):
        book = OrderBook(venue_id="V1")
        watch = SnipeWatch(side=Side.BUY, trigger=51, qty=400)
        book.submit(limit("S2", Side.SELL, 51, 300), clock=1)
        shot = watch.check(book.snapshot())
        result = book.submit(shot, clock=2)
        filled = sum(f.quantity for f in result.fills)
        assert filled == 300
        assert result.disposition is Disposition.CANCELLED   # IOC remainder
        assert shot.order_id not in book.order_ids()
        watch.on_result(filled)
        assert watch.remaining() == 100
        book.submit(limit("S3", Side.SELL, 50, 500), clock=3)
        second = watch.check(book.snapshot())
        assert second is not None and second.quantity == 100

    def test_estimated_hidden_liquidity_triggers(self):
        book = OrderBook(venue_id="V1")
        book.submit(limit("B", Side.BUY, 40, 10), clock=1)
        tracker = HiddenLiquidityTracker()
        for _ in range(5):
            tracker.record("V1", 51, hidden_qty=200)
        watch = SnipeWatch(side=Side.BUY, trigger=51, qty=100)
        shot = watch.check(book.snapshot(), tracker=tracker, venue_id="V1")
        assert shot is not None


def entry(venue_id, *, price, exec_probability, latency, fee, visible_qty=100):
    """A venue's best entry, by keyword: VirtualEntry puts fee before latency."""
    return VirtualEntry(venue_id=venue_id, price=price, visible_qty=visible_qty,
                        exec_probability=exec_probability, fee=fee, latency=latency)


def make_candidates():
    return [
        entry("A", price=100, exec_probability=0.1, latency=5, fee=0.003),
        entry("B", price=101, exec_probability=0.9, latency=5, fee=0.003),
    ]


class TestRoute:
    def test_single_venue(self):
        only = [entry("X", price=100, exec_probability=0.5, latency=1, fee=0.0)]
        assert route(only, Side.BUY) == "X"

    def test_fee_dominance(self):
        cands = [entry("A", price=100, exec_probability=0.5, latency=1, fee=0.004),
                 entry("B", price=100, exec_probability=0.5, latency=1, fee=0.001)]
        assert route(cands, Side.BUY) == "B"

    def test_probability_heavy_weights_pick_reliable_venue(self):
        weights = RouteWeights(price=1.0, exec_probability=10.0, latency=0.0, fee=0.0)
        assert route(make_candidates(), Side.BUY, weights) == "B"
        # with price-only weights the better-priced venue wins
        price_only = RouteWeights(price=1.0, exec_probability=0.0, latency=0.0, fee=0.0)
        assert route(make_candidates(), Side.BUY, price_only) == "A"

    def test_scale_invariance(self):
        cands = [entry("A", price=100, exec_probability=0.7, latency=2, fee=0.002),
                 entry("B", price=101, exec_probability=0.9, latency=1, fee=0.001),
                 entry("C", price=100, exec_probability=0.4, latency=9, fee=0.000)]
        w = RouteWeights(price=1.3, exec_probability=2.0, latency=0.7, fee=1.1)
        for k in (0.25, 1.0, 4.0, 100.0):
            scaled = RouteWeights(price=w.price * k, exec_probability=w.exec_probability * k,
                                  latency=w.latency * k, fee=w.fee * k)
            assert route(cands, Side.BUY, scaled) == route(cands, Side.BUY, w)

    def test_tie_breaks_to_lowest_venue_id(self):
        cands = [entry("Z", price=100, exec_probability=0.5, latency=1, fee=0.001),
                 entry("A", price=100, exec_probability=0.5, latency=1, fee=0.001)]
        assert route(cands, Side.BUY) == "A"


class TestAggregate:
    def venue(self, vid, fee=0.0, latency=0):
        cfg = VenueConfig(vid, taker_fee=fee, latency=latency)
        return cfg, OrderBook(venue_id=vid)

    def test_single_venue_reproduces_snapshot(self):
        cfg, book = self.venue("V1")
        book.submit(limit("S1", Side.SELL, 51, 500), clock=1)
        book.submit(limit("B1", Side.BUY, 49, 300), clock=2)
        vbook = aggregate([(cfg, book)])
        assert [(e.price, e.visible_qty) for e in vbook.asks] == [(51, 500)]
        assert [(e.price, e.visible_qty) for e in vbook.bids] == [(49, 300)]

    def test_equal_price_sorts_by_exec_probability(self):
        a = self.venue("A")
        b = self.venue("B")
        a[1].submit(limit("s1", Side.SELL, 51, 100), clock=1)
        b[1].submit(limit("s2", Side.SELL, 51, 200), clock=1)
        vbook = aggregate([a, b], exec_probability={"A": 0.2, "B": 0.9})
        assert [e.venue_id for e in vbook.asks] == ["B", "A"]

    def test_hidden_entries_never_appear(self):
        cfg, book = self.venue("V1")
        book.submit(limit("H", Side.SELL, 51, 1_000, display=0), clock=1)
        book.submit(limit("S", Side.SELL, 52, 100), clock=2)
        vbook = aggregate([(cfg, book)])
        assert [(e.price, e.visible_qty) for e in vbook.asks] == [(52, 100)]

    def test_candidates_pick_best_per_venue(self):
        a = self.venue("A", fee=0.001, latency=3)
        b = self.venue("B", fee=0.002, latency=1)
        a[1].submit(limit("s1", Side.SELL, 51, 100), clock=1)
        a[1].submit(limit("s2", Side.SELL, 53, 400), clock=2)
        b[1].submit(limit("s3", Side.SELL, 52, 200), clock=1)
        cands = candidates_from_virtual(aggregate([a, b]), Side.BUY)
        by_vid = {c.venue_id: c for c in cands}
        assert by_vid["A"].price == 51 and by_vid["B"].price == 52
        assert by_vid["A"].fee == 0.001 and by_vid["B"].latency == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_top_of_book_routes_like_the_full_ladder(self, seed):
        rng = np.random.default_rng(seed)
        venues = [self.venue(vid, fee=0.001 * i, latency=i) for i, vid in enumerate("ABC")]
        for cfg, book in venues:
            for i in range(40):
                side = Side.BUY if rng.random() < 0.5 else Side.SELL
                price = int(rng.integers(90, 100) if side is Side.BUY else rng.integers(101, 111))
                qty = int(rng.integers(1, 300))
                display = [None, 0, max(1, qty // 3)][int(rng.integers(3))]
                book.submit(limit(f"{cfg.venue_id}{i}", side, price, qty, display), clock=i)
        (_, a), (_, b), (_, c) = venues
        # A's and C's best levels hold only hidden orders: the public view skips them
        a.submit(limit("hidden-ask", Side.SELL, 100, 50, display=0), clock=50)
        c.submit(limit("hidden-bid", Side.BUY, 100, 50, display=0), clock=50)
        # B has an iceberg at its touch on both sides
        b.submit(limit("ice-ask", Side.SELL, b.best_ask(), 500, display=10), clock=50)
        b.submit(limit("ice-bid", Side.BUY, b.best_bid(), 500, display=10), clock=50)
        assert a.best_ask() == 100 and a.snapshot(depth=1).asks[0].price > 100
        assert c.best_bid() == 100 and c.snapshot(depth=1).bids[0].price < 100
        top, full = aggregate(venues, depth=1), aggregate(venues)
        assert len(top.bids) == len(top.asks) == 3 < len(full.asks)
        for side in (Side.BUY, Side.SELL):
            cands = candidates_from_virtual(top, side)
            assert cands == candidates_from_virtual(full, side)
            # the router scores the consolidated book's own entries, not copies
            entries = top.asks if side is Side.BUY else top.bids
            assert all(any(c is e for e in entries) for c in cands)


class TestCatching:
    def test_trips_on_adverse_move_only(self):
        stop = CatchStop(side=Side.BUY, reference_mid=100.0, threshold=2)
        assert not stop.check(101.0)
        assert not stop.check(99.0)        # favorable move never trips
        assert stop.check(102.0)
        assert stop.check(100.0)           # latched

    def test_converts_passive_child_to_marketable_ioc(self):
        book = OrderBook()
        book.submit(limit("ask", Side.SELL, 103, 500), clock=1)
        book.submit(limit("child", Side.BUY, 99, 400), clock=2)
        stop = CatchStop(side=Side.BUY, reference_mid=100.0, threshold=2)
        assert stop.check(102.5)
        aggressive = stop.make_aggressive(book, "child")
        assert aggressive.tif is Tif.IOC
        assert aggressive.limit_price == 103
        assert aggressive.quantity == 400
        assert "child" not in book.order_ids()
        result = book.submit(aggressive, clock=3)
        assert sum(f.quantity for f in result.fills) == 400

    def test_child_keeps_resting_without_an_opposite_touch(self):
        book = OrderBook()
        book.submit(limit("child", Side.BUY, 99, 300), clock=1)
        stop = CatchStop(side=Side.BUY, reference_mid=100.0, threshold=2)
        assert stop.check(102.0)
        assert stop.make_aggressive(book, "child") is None
        assert book.remaining("child") == 300
        assert book.ledger("child") == (300, 0, 0)


class TestTimingFactor:
    def test_urgency_grows_with_time_and_illiquidity(self):
        early = timing_urgency(10, 100, liquidity_score=1.0)
        late = timing_urgency(90, 100, liquidity_score=1.0)
        assert late > early
        illiquid = timing_urgency(10, 100, liquidity_score=0.25)
        assert illiquid > early

    def test_price_step_below_threshold_noop(self):
        assert price_step(100, Side.BUY, urgency=0.5) == 100

    def test_price_step_directions(self):
        assert price_step(100, Side.BUY, urgency=1.5) == 101
        assert price_step(100, Side.SELL, urgency=1.5) == 99
        assert price_step(100, Side.BUY, urgency=1.5, contrarian=True) == 99
        assert price_step(100, Side.SELL, urgency=1.5, contrarian=True) == 101

"""Matching-engine semantics: golden book scenarios and order-type contracts."""

import ast
import copy
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tradelab.orderbook import (
    Disposition,
    EventLog,
    Fill,
    Order,
    OrderBook,
    OrderKind,
    Side,
    SnapshotEntry,
    SnapshotLevel,
    SubmitResult,
    Tif,
    UnknownOrderError,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def hms(h, m, s):
    return h * 3600 + m * 60 + s


def limit(oid, side, price, qty, display=None, tif=Tif.GTC, disc=0, **kw):
    return Order(order_id=oid, side=side, kind=OrderKind.LIMIT, quantity=qty,
                 limit_price=price, display_quantity=display, tif=tif,
                 discretion_offset=disc, **kw)


def market(oid, side, qty, tif=Tif.GTC, **kw):
    return Order(order_id=oid, side=side, kind=OrderKind.MARKET, quantity=qty,
                 tif=tif, **kw)


def slicing_book(native_iceberg=False):
    """The 3-level book behind the 2,200-share crossing example."""
    book = OrderBook()
    if native_iceberg:
        # S1 is the displayed peak of a 10,000-share native iceberg.
        book.submit(limit("S1", Side.SELL, 51, 10_000, display=1_000), clock=hms(10, 20, 0))
    else:
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=hms(10, 20, 0))
    book.submit(limit("B2", Side.BUY, 49, 2_000), clock=hms(10, 20, 25))
    book.submit(limit("S3", Side.SELL, 52, 2_500), clock=hms(10, 24, 9))
    book.submit(limit("B3", Side.BUY, 48, 1_500), clock=hms(10, 24, 20))
    book.submit(limit("B1", Side.BUY, 50, 1_000), clock=hms(10, 25, 0))
    book.submit(limit("S2", Side.SELL, 51, 800), clock=hms(10, 25, 25))
    return book


def displayed_queue(book, side):
    """The best level's displayed queue: its omniscient entries that are not hidden."""
    snap = book.snapshot(visibility="omniscient")
    level = (snap.bids if side is Side.BUY else snap.asks)[0]
    return [e for e in level.entries if not e.hidden]


def visible_sells(book):
    snap = book.snapshot(visibility="omniscient")
    return [(lvl.price, e.order_id, e.quantity, e.hidden)
            for lvl in snap.asks for e in lvl.entries]


class TestMarketCross:
    """Market buy 2,200 against {S1:1000@51, S2:800@51, S3:2500@52}."""

    def test_fills_walk_price_then_time(self):
        book = slicing_book()
        result = book.submit(market("MO", Side.BUY, 2_200), clock=hms(10, 26, 0))
        assert result.disposition is Disposition.FILLED
        assert [(f.price, f.quantity, f.maker_order_id) for f in result.fills] == [
            (51, 1_000, "S1"),
            (51, 800, "S2"),
            (52, 400, "S3"),
        ]

    def test_residual_maker_remains(self):
        book = slicing_book()
        book.submit(market("MO", Side.BUY, 2_200), clock=hms(10, 26, 0))
        assert book.remaining("S3") == 2_100
        assert visible_sells(book) == [(52, "S3", 2_100, False)]
        assert book.last_trade_price == 52

    def test_native_iceberg_completes_at_51(self):
        book = slicing_book(native_iceberg=True)
        result = book.submit(market("MO", Side.BUY, 2_200), clock=hms(10, 26, 0))
        assert [(f.price, f.quantity, f.maker_order_id) for f in result.fills] == [
            (51, 1_000, "S1"),
            (51, 800, "S2"),
            (51, 400, "S1"),   # consumed from the fresh refill slice
        ]
        # a fresh 600-share display slice rests; reserve down to 8,000
        sells = visible_sells(book)
        assert (51, "S1", 600, False) in sells
        assert (51, "S1", 8_000, True) in sells
        assert (52, "S3", 2_500, False) in sells


class TestHiddenOrderNarrative:
    """Hidden 2,000-share buy working at 51, then discovered by a ping."""

    def build(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=hms(10, 35, 0))
        book.submit(limit("B2", Side.BUY, 49, 1_000), clock=hms(10, 35, 10))
        book.submit(limit("S2", Side.SELL, 52, 1_500), clock=hms(10, 37, 15))
        book.submit(limit("S3", Side.SELL, 52, 800), clock=hms(10, 39, 9))
        book.submit(limit("B3", Side.BUY, 48, 8_000), clock=hms(10, 40, 10))
        book.submit(limit("B1", Side.BUY, 50, 2_000), clock=hms(10, 41, 0))
        book.submit(limit("S4", Side.SELL, 52, 2_000), clock=hms(10, 41, 0))
        return book

    def test_half_fills_half_rests_latent(self):
        book = self.build()
        result = book.submit(limit("HB", Side.BUY, 51, 2_000, display=0),
                             clock=hms(10, 42, 0))
        assert result.disposition is Disposition.PARTIAL_RESTING
        assert [(f.price, f.quantity) for f in result.fills] == [(51, 1_000)]
        assert book.remaining("HB") == 1_000
        # latent: absent from the public view, present omnisciently
        public = book.snapshot(visibility="public")
        assert [(lvl.price, lvl.total) for lvl in public.bids] == [
            (50, 2_000), (49, 1_000), (48, 8_000)]
        omni = book.snapshot(visibility="omniscient")
        assert any(e.order_id == "HB" and e.hidden and e.quantity == 1_000
                   for lvl in omni.bids for e in lvl.entries)

    def test_ioc_ping_crosses_the_latent_order(self):
        book = self.build()
        book.submit(limit("HB", Side.BUY, 51, 2_000, display=0), clock=hms(10, 42, 0))
        ping = book.submit(limit("PING", Side.SELL, 51, 1_000, tif=Tif.IOC),
                           clock=hms(10, 43, 0))
        assert [(f.price, f.quantity, f.maker_order_id, f.maker_was_hidden)
                for f in ping.fills] == [(51, 1_000, "HB", True)]
        assert book.remaining("HB") == 0


class TestIcebergRefill:
    """20,000-share iceberg at 51 displaying 2,000; aggressor takes 3,000."""

    def build(self):
        book = OrderBook()
        book.submit(limit("ICE", Side.SELL, 51, 20_000, display=2_000),
                    clock=hms(10, 5, 10))
        book.submit(limit("B1", Side.BUY, 50, 2_000), clock=hms(10, 6, 0))
        book.submit(limit("B2", Side.BUY, 49, 700), clock=hms(10, 6, 1))
        book.submit(limit("B3", Side.BUY, 48, 2_500), clock=hms(10, 6, 2))
        book.submit(limit("S2", Side.SELL, 51, 2_000), clock=hms(10, 21, 15))
        book.submit(limit("S3", Side.SELL, 52, 2_500), clock=hms(10, 25, 31))
        return book

    def test_refill_slice_and_reserve_drawdown(self):
        book = self.build()
        result = book.submit(market("MO", Side.BUY, 3_000), clock=hms(10, 28, 30))
        assert [(f.price, f.quantity, f.maker_order_id) for f in result.fills] == [
            (51, 2_000, "ICE"),
            (51, 1_000, "S2"),
        ]
        # refill slice of display size, reserve 18,000 -> 16,000
        sells = visible_sells(book)
        assert sells == [
            (51, "S2", 1_000, False),
            (51, "ICE", 2_000, False),
            (51, "ICE", 16_000, True),
            (52, "S3", 2_500, False),
        ]

    def test_refill_loses_time_priority(self):
        book = self.build()
        book.submit(market("MO", Side.BUY, 3_000), clock=hms(10, 28, 30))
        omni = book.snapshot(visibility="omniscient")
        level51 = omni.asks[0]
        by_id = {e.order_id: e for e in level51.entries if not e.hidden}
        assert by_id["ICE"].priority > by_id["S2"].priority

    def test_public_view_hides_the_reserve(self):
        book = self.build()
        assert [(e.order_id, e.quantity) for e in displayed_queue(book, Side.SELL)] == [
            ("ICE", 2_000), ("S2", 2_000)]
        assert book.snapshot(visibility="public").asks[0].total == 4_000

    def test_public_level_after_a_refill_shows_price_and_total_only(self):
        book = self.build()
        book.submit(market("MO", Side.BUY, 3_000), clock=hms(10, 28, 30))
        level51 = book.snapshot(visibility="public").asks[0]
        assert level51 == SnapshotLevel(51, 3_000, ())
        assert "ICE" not in repr(level51) and "S2" not in repr(level51)

    def test_depth_limits_levels_per_side(self):
        book = self.build()
        one_deep = book.snapshot(depth=1)
        assert len(one_deep.asks) == 1 and one_deep.asks[0].price == 51
        assert len(one_deep.bids) == 1 and one_deep.bids[0].price == 50
        assert len(book.snapshot().asks) == 2
        assert len(book.snapshot().bids) == 3


class TestDiscretion:
    """A 52-limit sell prepared to trade at 51 ranks behind everything shown at 51."""

    def build(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
        book.submit(limit("S2", Side.SELL, 51, 3_000), clock=2)
        book.submit(limit("S3", Side.SELL, 52, 4_000, disc=1), clock=3)
        book.submit(limit("S4", Side.SELL, 52, 2_000), clock=4)
        return book

    def test_reach_fills_after_displayed_orders(self):
        book = self.build()
        result = book.submit(limit("BIG", Side.BUY, 51, 5_000), clock=5)
        assert [(f.price, f.quantity, f.maker_order_id) for f in result.fills] == [
            (51, 1_000, "S1"),
            (51, 3_000, "S2"),
            (51, 1_000, "S3"),
        ]
        assert book.remaining("S3") == 3_000
        assert book.remaining("S4") == 2_000

    def test_taker_discretion_extends_crossing_range(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 52, 500), clock=1)
        result = book.submit(limit("B1", Side.BUY, 51, 500, disc=1), clock=2)
        assert [(f.price, f.quantity) for f in result.fills] == [(52, 500)]

    def test_each_reach_take_walks_afresh_to_the_refill(self):
        # I's refills go behind V; each is found again by a fresh walk of the
        # level, while V, which has no discretion, never trades at 99
        book = OrderBook()
        book.submit(limit("I", Side.SELL, 101, 30, display=10, disc=2), clock=1)
        book.submit(limit("V", Side.SELL, 101, 7), clock=2)
        result = book.submit(limit("B", Side.BUY, 99, 25), clock=3)
        assert [(f.maker_order_id, f.price, f.quantity) for f in result.fills] == [
            ("I", 99, 10), ("I", 99, 10), ("I", 99, 5)]
        assert [(e.order_id, e.quantity) for e in displayed_queue(book, Side.SELL)] == [
            ("V", 7), ("I", 5)]
        assert book.remaining("I") == 5
        book.check_invariants()

    def test_without_discretion_no_reach(self):
        book = self.build()
        book.cancel("S3")
        book.submit(limit("S3", Side.SELL, 52, 4_000), clock=5)  # no discretion now
        result = book.submit(limit("BIG", Side.BUY, 51, 5_000), clock=6)
        assert sum(f.quantity for f in result.fills) == 4_000
        assert book.remaining("BIG") == 1_000


class TestTimeInForce:
    def test_non_crossing_limit_rests(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
        result = book.submit(limit("B1", Side.BUY, 49, 100), clock=2)
        assert result.disposition is Disposition.RESTING
        assert result.fills == ()
        assert book.remaining("B1") == 100

    def test_fok_boundary_all_or_nothing(self):
        from dataclasses import replace
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 3_000), clock=1)
        book.submit(limit("S2", Side.SELL, 51, 1_999, display=500), clock=2)
        before = book.snapshot(visibility="omniscient")
        result = book.submit(limit("FOK", Side.BUY, 51, 5_000, tif=Tif.FOK), clock=3)
        assert result.disposition is Disposition.CANCELLED
        assert result.fills == ()
        after = book.snapshot(visibility="omniscient")
        assert replace(after, clock=0) == replace(before, clock=0)

    def test_fok_counts_hidden_liquidity(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
        book.submit(limit("H1", Side.SELL, 51, 4_000, display=0), clock=2)
        result = book.submit(limit("FOK", Side.BUY, 51, 5_000, tif=Tif.FOK), clock=3)
        assert result.disposition is Disposition.FILLED
        assert sum(f.quantity for f in result.fills) == 5_000

    def test_ioc_cancels_remainder(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 300), clock=1)
        result = book.submit(limit("B1", Side.BUY, 51, 1_000, tif=Tif.IOC), clock=2)
        assert result.disposition is Disposition.CANCELLED
        assert sum(f.quantity for f in result.fills) == 300
        assert "B1" not in book.order_ids()
        submitted, filled, cancelled = book.ledger("B1")
        assert (submitted, filled, cancelled) == (1_000, 300, 700)

    def test_aon_waits_until_fully_fillable(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 600), clock=1)
        result = book.submit(limit("AON", Side.BUY, 51, 1_000, tif=Tif.AON), clock=2)
        assert result.disposition is Disposition.RESTING
        assert book.remaining("S1") == 600           # untouched
        book.submit(limit("S2", Side.SELL, 51, 400), clock=3)
        assert book.ledger("AON")[1] == 1_000        # fired on feasibility
        assert book.remaining("S1") == 0

    def test_feasible_aons_fire_in_entry_order(self):
        book = OrderBook()
        book.submit(limit("A1", Side.BUY, 51, 500, tif=Tif.AON), clock=1)
        book.submit(limit("A2", Side.BUY, 51, 500, tif=Tif.AON), clock=2)
        book.submit(limit("S1", Side.SELL, 51, 500), clock=3)
        assert book.ledger("A1")[1] == 500
        assert book.ledger("A2")[1] == 0

    def test_gat_queues_until_start(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
        result = book.submit(limit("GAT", Side.BUY, 51, 400, tif=Tif.GAT, tif_time=100),
                             clock=2)
        assert result.disposition is Disposition.RESTING
        assert book.remaining("S1") == 1_000
        book.expire(100)
        assert book.ledger("GAT")[1] == 400
        assert book.remaining("S1") == 600

    def test_gtd_expires_day_and_gtc_retained(self):
        book = OrderBook(session_close=1_000)
        book.submit(limit("GTD", Side.BUY, 49, 100, tif=Tif.GTD, tif_time=1_000), clock=1)
        book.submit(limit("DAY", Side.BUY, 48, 100, tif=Tif.DAY), clock=2)
        book.submit(limit("GTC", Side.BUY, 47, 100), clock=3)
        expired = book.expire(1_000)
        assert sorted(expired) == ["DAY", "GTD"]
        assert book.remaining("GTC") == 100


class TestStops:
    def build(self):
        # establish a last trade at 110 (prices in tenths: 11.0)
        book = OrderBook()
        book.submit(limit("S0", Side.SELL, 110, 100), clock=1)
        book.submit(market("B0", Side.BUY, 100), clock=2)
        assert book.last_trade_price == 110
        return book

    def test_protective_sell_stop_fires_on_downtick(self):
        book = self.build()
        book.submit(limit("BIDS", Side.BUY, 109, 1_000), clock=3)
        stop = Order(order_id="STP", side=Side.SELL, kind=OrderKind.STOP,
                     quantity=500, stop_price=110, stop_kind=OrderKind.MARKET)
        result = book.submit(stop, clock=4)
        assert result.disposition is Disposition.RESTING
        # a trade prints at 109: below the threshold
        book.submit(limit("S1", Side.SELL, 109, 200), clock=5)
        book.submit(market("B1", Side.BUY, 200), clock=6)
        assert book.ledger("STP")[1] == 500
        assert book.last_trade_price == 109

    def test_threshold_inclusive(self):
        book = self.build()
        book.submit(limit("BIDS", Side.BUY, 109, 1_000), clock=3)
        stop = Order(order_id="STP", side=Side.SELL, kind=OrderKind.STOP,
                     quantity=100, stop_price=109, stop_kind=OrderKind.MARKET)
        book.submit(stop, clock=4)
        book.submit(limit("S1", Side.SELL, 109, 100), clock=5)
        book.submit(market("B1", Side.BUY, 100), clock=6)   # prints exactly 109
        assert book.ledger("STP")[1] == 100

    def test_untouched_threshold_keeps_pending(self):
        book = self.build()
        stop = Order(order_id="STP", side=Side.SELL, kind=OrderKind.STOP,
                     quantity=100, stop_price=105, stop_kind=OrderKind.MARKET)
        book.submit(stop, clock=3)
        book.submit(limit("S1", Side.SELL, 108, 100), clock=4)
        book.submit(limit("B1", Side.BUY, 108, 100), clock=5)  # prints 108 > 105
        assert book.ledger("STP")[1] == 0
        assert "STP" in book.snapshot(visibility="omniscient").pending_stops

    def test_entry_side_validation(self):
        book = self.build()
        bad = Order(order_id="BAD", side=Side.BUY, kind=OrderKind.STOP,
                    quantity=100, stop_price=105, stop_kind=OrderKind.MARKET)
        result = book.submit(bad, clock=3)
        assert result.disposition is Disposition.REJECTED
        assert "buy stop below last trade" in result.reason

    def test_simultaneous_stops_fire_in_entry_order(self):
        book = self.build()
        book.submit(limit("BIDS", Side.BUY, 100, 150), clock=3)
        for i, oid in enumerate(["ST1", "ST2"]):
            book.submit(Order(order_id=oid, side=Side.SELL, kind=OrderKind.STOP,
                              quantity=100, stop_price=105, stop_kind=OrderKind.MARKET),
                        clock=4 + i)
        book.submit(limit("S1", Side.SELL, 105, 10), clock=6)
        book.submit(market("B1", Side.BUY, 10), clock=7)
        # only 150 shares of bids: ST1 (first in) filled, ST2 partially then dies
        assert book.ledger("ST1")[1] == 100
        assert book.ledger("ST2")[1] == 50

    def test_triggered_stop_limit_keeps_iceberg_and_gtd(self):
        book = self.build()
        stop = Order(order_id="STP", side=Side.SELL, kind=OrderKind.STOP, quantity=1_000,
                     limit_price=108, display_quantity=200, stop_price=109,
                     stop_kind=OrderKind.LIMIT, tif=Tif.GTD, tif_time=50)
        assert book.submit(stop, clock=3).disposition is Disposition.RESTING
        book.submit(limit("S1", Side.SELL, 109, 100), clock=4)
        book.submit(market("B1", Side.BUY, 100), clock=5)   # prints 109: the stop fires
        assert "STP" not in book.snapshot(visibility="omniscient").pending_stops
        assert visible_sells(book) == [(108, "STP", 200, False), (108, "STP", 800, True)]
        assert book.expire(49) == []
        assert book.expire(50) == ["STP"]
        assert book.remaining("STP") == 0


class TestMarketWithProtection:
    def test_converts_to_limit_off_last_trade(self):
        book = OrderBook()
        book.submit(limit("S0", Side.SELL, 50, 100), clock=1)
        book.submit(market("B0", Side.BUY, 100), clock=2)
        book.submit(limit("S1", Side.SELL, 51, 200), clock=3)
        book.submit(limit("S2", Side.SELL, 53, 200), clock=4)
        mwp = Order(order_id="MWP", side=Side.BUY, kind=OrderKind.MARKET_WITH_PROTECTION,
                    quantity=400, protection_offset=1)
        result = book.submit(mwp, clock=5)
        # limit = 50 + 1 = 51: fills 200@51, remainder rests at 51
        assert [(f.price, f.quantity) for f in result.fills] == [(51, 200)]
        assert result.disposition is Disposition.PARTIAL_RESTING
        assert book.remaining("MWP") == 200
        assert book.best_bid() == 51

    def test_requires_reference_price(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 100), clock=1)
        mwp = Order(order_id="MWP", side=Side.BUY, kind=OrderKind.MARKET_WITH_PROTECTION,
                    quantity=100, protection_offset=1)
        assert book.submit(mwp, clock=2).disposition is Disposition.REJECTED

    def test_sell_limit_stops_at_one_tick(self):
        # 60 ticks through a trade at 51 would be a limit of -9
        book = OrderBook()
        book.submit(limit("S0", Side.SELL, 51, 100), clock=1)
        book.submit(market("B0", Side.BUY, 10), clock=2)
        result = book.submit(protected("MWP", Side.SELL, 10, 60), clock=3)
        assert result.disposition is Disposition.RESTING
        assert [lvl.price for lvl in book.snapshot().asks] == [1, 51]
        book.check_invariants()

    def test_converted_order_keeps_display_and_discretion(self):
        book = OrderBook()
        book.submit(limit("S0", Side.SELL, 50, 100), clock=1)
        book.submit(market("B0", Side.BUY, 100), clock=2)
        mwp = Order(order_id="MWP", side=Side.BUY, kind=OrderKind.MARKET_WITH_PROTECTION,
                    quantity=1_000, protection_offset=1, display_quantity=100,
                    discretion_offset=1)
        assert book.submit(mwp, clock=3).disposition is Disposition.RESTING
        bids = book.snapshot(visibility="omniscient").bids
        assert [(lvl.price, e.quantity, e.hidden) for lvl in bids for e in lvl.entries] \
            == [(51, 100, False), (51, 900, True)]
        # a sell at 52 is out of the displayed 51 but within the kept
        # discretion; it fills one 100-share display slice at a time
        result = book.submit(limit("S1", Side.SELL, 52, 300), clock=4)
        assert [(f.price, f.quantity, f.maker_order_id) for f in result.fills] \
            == [(52, 100, "MWP")] * 3


class TestCancel:
    def test_cancel_resting(self):
        book = OrderBook()
        book.submit(limit("B1", Side.BUY, 49, 500), clock=1)
        assert book.cancel("B1") == 500
        assert "B1" not in book.order_ids()

    def test_cancel_after_partial_fill(self):
        book = OrderBook()
        book.submit(limit("B1", Side.BUY, 49, 500), clock=1)
        book.submit(limit("S1", Side.SELL, 49, 300), clock=2)
        assert book.cancel("B1") == 200

    def test_cancel_unknown_raises(self):
        book = OrderBook()
        with pytest.raises(UnknownOrderError):
            book.cancel("NOPE")


class TestLeaveHook:
    """``on_leave`` reports each held order once, when it leaves the book."""

    @staticmethod
    def book(**kw):
        left = []
        book = OrderBook(on_leave=lambda b, oid: left.append(oid), **kw)
        return book, left

    def test_fires_once_for_a_filled_out_maker_a_cancel_and_an_expiry(self):
        book, left = self.book()
        book.submit(limit("S1", Side.SELL, 51, 100), clock=1)
        book.submit(limit("S2", Side.SELL, 52, 100), clock=1)
        book.submit(limit("B1", Side.BUY, 49, 100, tif=Tif.GTD, tif_time=5), clock=1)
        book.submit(market("T", Side.BUY, 150), clock=2)   # S1 out, S2 half
        assert left == ["S1"]
        book.cancel("S2")
        assert left == ["S1", "S2"]
        book.expire(4)
        assert left == ["S1", "S2"]
        book.expire(5)
        assert left == ["S1", "S2", "B1"]
        assert book.order_ids() == set()

    def test_silent_on_a_partial_fill_and_an_iceberg_refresh(self):
        book, left = self.book()
        book.submit(limit("ICE", Side.SELL, 51, 300, display=100), clock=1)
        book.submit(limit("S2", Side.SELL, 51, 500), clock=1)
        book.submit(market("T1", Side.BUY, 100), clock=2)   # ICE refreshes behind S2
        book.submit(market("T2", Side.BUY, 200), clock=3)   # S2 partly filled
        assert left == [] and book.remaining("ICE") == 200 and book.remaining("S2") == 300
        book.submit(market("T3", Side.BUY, 500), clock=4)   # S2 out, then ICE's last slices
        assert left == ["S2", "ICE"]

    def test_ledger_is_final_and_release_succeeds_inside_the_hook(self):
        seen = {}

        def hook(book, oid):
            seen[oid] = (book.ledger(oid), book.release(oid))

        book = OrderBook(on_leave=hook, session_close=10)
        book.submit(limit("S1", Side.SELL, 51, 100), clock=1)
        book.submit(limit("D1", Side.BUY, 49, 70, tif=Tif.DAY), clock=1)
        book.submit(limit("C1", Side.BUY, 48, 40), clock=1)
        book.submit(market("T", Side.BUY, 100), clock=2)
        book.submit(market("T2", Side.SELL, 30), clock=3)    # D1 partly filled
        book.cancel("C1")
        book.expire(10)
        assert seen == {"S1": ((100, 100, 0), True), "C1": ((40, 0, 40), True),
                        "D1": ((70, 30, 40), True)}
        assert all(book.ledger(oid) == (0, 0, 0) for oid in seen)

    def test_pending_orders_that_do_not_come_to_rest(self):
        book, left = self.book()
        book.submit(limit("S0", Side.SELL, 110, 100), clock=1)
        book.submit(market("B0", Side.BUY, 100), clock=2)        # last trade 110
        assert left == ["S0"]
        book.submit(limit("BIDS", Side.BUY, 109, 1_000), clock=3)
        book.submit(limit("AON", Side.SELL, 109, 300, tif=Tif.AON), clock=3)
        assert left == ["S0", "AON"]     # fired on entry: filled from BIDS, prints 109
        # both stops trigger on entry; STP trades out, STL converts and rests at 120
        book.submit(Order("STP", Side.SELL, OrderKind.STOP, 200, stop_price=109), clock=4)
        book.submit(Order("STL", Side.SELL, OrderKind.STOP, 50, limit_price=120,
                          stop_price=109, stop_kind=OrderKind.LIMIT), clock=4)
        book.submit(limit("GAT", Side.SELL, 109, 100, tif=Tif.GAT, tif_time=6), clock=4)
        assert left == ["S0", "AON", "STP"]
        book.expire(6)                   # GAT starts and fills
        assert left == ["S0", "AON", "STP", "GAT"]
        assert book.order_ids() == {"BIDS", "STL"}


class TestFillRecord:
    def test_dropped_prefix_keeps_session_indices(self):
        book = OrderBook()
        for n in range(4):
            book.submit(limit(f"S{n}", Side.SELL, 51, 100), clock=n)
        book.submit(market("B", Side.BUY, 400), clock=5)
        fills = book.fills_since(0)
        assert [f.maker_order_id for f in fills] == ["S0", "S1", "S2", "S3"]
        book.drop_fills(2)
        assert book.fill_count() == 4
        assert book.fills_since(2) == fills[2:]
        assert book.fills_since(9) == []
        with pytest.raises(ValueError, match="fill 1 was dropped; the first held is 2"):
            book.fills_since(1)
        book.drop_fills(1)             # below the first held: nothing changes
        assert book.fills_since(2) == fills[2:]
        book.drop_fills(9)             # past the end: drops what is held, no more
        assert book.fill_count() == 4 and book.fills_since(4) == []
        book.submit(limit("S4", Side.SELL, 51, 100), clock=6)
        book.submit(market("B2", Side.BUY, 100), clock=7)
        assert book.fill_count() == 5
        assert [f.maker_order_id for f in book.fills_since(4)] == ["S4"]

    def test_records_equal_their_keyword_built_forms(self):
        """The book builds fills and results as bare tuples; each equals the
        record its constructor makes, field for field and type for type."""
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 100), clock=1)
        book.submit(limit("H1", Side.SELL, 51, 50, display=0), clock=2)
        result = book.submit(market("B", Side.BUY, 150), clock=3)
        expected = SubmitResult(fills=(
            Fill(taker_order_id="B", maker_order_id="S1", price=51, quantity=100, time=3,
                 taker_side=Side.BUY),
            Fill(taker_order_id="B", maker_order_id="H1", price=51, quantity=50, time=3,
                 taker_side=Side.BUY, maker_was_hidden=True),
        ), disposition=Disposition.FILLED)
        assert result == expected and result.reason is None
        assert type(result) is SubmitResult
        for got, want in zip(result.fills, expected.fills):
            assert type(got) is Fill
            assert [type(v) for v in got] == [type(v) for v in want]
        assert book.fills_since(0) == list(result.fills)
        resting = book.submit(limit("B2", Side.BUY, 50, 10), clock=4)
        assert resting == SubmitResult(fills=(), disposition=Disposition.RESTING)
        assert resting.reason is None

    def test_readme_quick_start_prints_what_it_shows(self, capsys):
        readme = (SRC.parent / "README.md").read_text()
        block = readme.split("## Library quick start")[1].split("```python\n")[1]
        block = block.split("```")[0]
        shown = "".join(line[1:] for line in block.splitlines() if line.startswith("#"))
        exec(block, {})
        assert "".join(capsys.readouterr().out.split()) == "".join(shown.split())

    def test_fills_are_immutable_named_records(self):
        fill = Fill("T", "M", 51, 100, 3, Side.BUY)
        assert type(fill)._fields == ("taker_order_id", "maker_order_id", "price", "quantity",
                                      "time", "taker_side", "maker_was_hidden")
        assert fill.maker_was_hidden is False
        with pytest.raises(AttributeError):
            fill.quantity = 5


def admission_book(trade=True, asks=True, session_close=1_000):
    """B1 bids 49 and S1 offers 51; by default a 10-share buy has traded at 51."""
    book = OrderBook(log=EventLog(), session_close=session_close)
    book.submit(limit("B1", Side.BUY, 49, 100), clock=1)
    if asks:
        book.submit(limit("S1", Side.SELL, 51, 100), clock=1)
    if trade:
        book.submit(market("M1", Side.BUY, 10), clock=2)
    return book


def stop(oid, side, qty, stop_price, as_kind=OrderKind.MARKET, **kw):
    return Order(order_id=oid, side=side, kind=OrderKind.STOP, quantity=qty,
                 stop_price=stop_price, stop_kind=as_kind, **kw)


def protected(oid, side, qty, offset, **kw):
    return Order(order_id=oid, side=side, kind=OrderKind.MARKET_WITH_PROTECTION,
                 quantity=qty, protection_offset=offset, **kw)


# (id, book, order, reason): each order breaks exactly one rule, in the book's rule order.
# The limit at 0 or -5 and the stops at -3 or with a limit at 0 rested before the book
# checked that a price is at least one tick.
REJECTIONS = [
    ("held-id", {}, limit("B1", Side.BUY, 48, 5), "order id already held by the book"),
    ("zero-quantity", {}, limit("Q", Side.BUY, 48, 0), "quantity must be positive"),
    ("display-above-quantity", {}, limit("D", Side.BUY, 48, 10, display=11),
     "display_quantity outside [0, quantity]"),
    ("negative-discretion", {}, limit("X", Side.BUY, 48, 10, disc=-1),
     "discretion_offset must be >= 0"),
    ("limit-without-price", {}, Order("L", Side.BUY, OrderKind.LIMIT, 10),
     "limit order without limit_price"),
    ("limit-at-minus-5", {}, limit("N", Side.BUY, -5, 10), "limit_price must be >= 1"),
    ("limit-at-zero", {}, limit("N", Side.BUY, 0, 10), "limit_price must be >= 1"),
    ("stop-limit-at-zero", {},
     stop("T", Side.BUY, 10, 60, as_kind=OrderKind.LIMIT, limit_price=0),
     "limit_price must be >= 1"),
    ("market-with-limit-price", {}, market("M", Side.BUY, 10, limit_price=52),
     "market order carries a limit_price"),
    ("protected-without-offset", {}, protected("P", Side.BUY, 10, None),
     "market-with-protection without protection_offset"),
    ("protected-negative-offset", {}, protected("P", Side.BUY, 10, -1),
     "protection_offset must be >= 0"),
    ("protected-without-reference", {"trade": False}, protected("P", Side.BUY, 10, 2),
     "market-with-protection without a reference trade price"),
    ("stop-without-stop-price", {}, stop("T", Side.BUY, 10, None),
     "stop order without stop_price"),
    ("stop-at-minus-3", {}, stop("T", Side.SELL, 10, -3), "stop_price must be >= 1"),
    ("stop-wrapping-protected", {},
     stop("T", Side.BUY, 10, 55, as_kind=OrderKind.MARKET_WITH_PROTECTION),
     "stop orders wrap market or limit only"),
    ("buy-stop-below-last", {}, stop("T", Side.BUY, 10, 50), "buy stop below last trade"),
    ("sell-stop-above-last", {}, stop("T", Side.SELL, 10, 52), "sell stop above last trade"),
    ("market-into-empty-side", {"trade": False, "asks": False}, market("M", Side.BUY, 10),
     "market order into empty opposite side"),
    ("gtd-without-expiry", {}, limit("G", Side.BUY, 48, 10, tif=Tif.GTD),
     "gtd order without expiry"),
    ("gat-without-start", {}, limit("A", Side.BUY, 48, 10, tif=Tif.GAT),
     "gat order without start time"),
    ("day-without-close", {"session_close": None}, limit("Y", Side.BUY, 48, 10, tif=Tif.DAY),
     "day order without a configured session close"),
]

# (id, book, order, reason): each order breaks two or more rules and gets the first one's reason.
PRECEDENCE = [
    ("held-id-with-zero-quantity", {}, limit("B1", Side.BUY, 48, 0),
     "order id already held by the book"),
    ("zero-quantity-and-display-above-it", {}, limit("Q", Side.BUY, 48, 0, display=5),
     "quantity must be positive"),
    ("display-above-quantity-and-negative-discretion", {},
     limit("D", Side.BUY, 48, 10, display=11, disc=-1), "display_quantity outside [0, quantity]"),
    ("negative-discretion-and-no-limit-price", {},
     Order("X", Side.BUY, OrderKind.LIMIT, 10, discretion_offset=-1),
     "discretion_offset must be >= 0"),
    ("no-limit-price-and-gtd-without-expiry", {},
     Order("L", Side.BUY, OrderKind.LIMIT, 10, tif=Tif.GTD), "limit order without limit_price"),
    ("limit-price-zero-and-day-without-close", {"session_close": None},
     limit("N", Side.BUY, 0, 10, tif=Tif.DAY), "limit_price must be >= 1"),
    ("market-with-limit-price-into-empty-side", {"trade": False, "asks": False},
     market("M", Side.BUY, 10, limit_price=52), "market order carries a limit_price"),
    ("market-into-empty-side-and-day-without-close",
     {"trade": False, "asks": False, "session_close": None},
     market("M", Side.BUY, 10, tif=Tif.DAY), "market order into empty opposite side"),
    ("protected-without-offset-or-reference", {"trade": False}, protected("P", Side.BUY, 10, None),
     "market-with-protection without protection_offset"),
    ("protected-negative-offset-without-reference", {"trade": False},
     protected("P", Side.SELL, 10, -2), "protection_offset must be >= 0"),
    ("protected-without-reference-and-gat-without-start", {"trade": False},
     protected("P", Side.BUY, 10, 2, tif=Tif.GAT),
     "market-with-protection without a reference trade price"),
    ("stop-limit-without-limit-or-stop-price", {},
     stop("T", Side.BUY, 10, None, as_kind=OrderKind.LIMIT), "limit order without limit_price"),
    ("stop-market-with-limit-price-and-no-stop-price", {},
     stop("T", Side.BUY, 10, None, limit_price=52), "market order carries a limit_price"),
    ("stop-limit-at-zero-without-stop-price", {},
     stop("T", Side.BUY, 10, None, as_kind=OrderKind.LIMIT, limit_price=0),
     "limit_price must be >= 1"),
    ("stop-without-stop-price-wrapping-a-stop", {},
     stop("T", Side.BUY, 10, None, as_kind=OrderKind.STOP), "stop order without stop_price"),
    ("stop-price-below-one-wrapping-a-stop", {},
     stop("T", Side.SELL, 10, -3, as_kind=OrderKind.STOP), "stop_price must be >= 1"),
    ("buy-stop-price-below-one-and-below-last-trade", {}, stop("T", Side.BUY, 10, -3),
     "stop_price must be >= 1"),
    ("stop-wrapping-a-stop-below-last-trade", {},
     stop("T", Side.BUY, 10, 50, as_kind=OrderKind.STOP), "stop orders wrap market or limit only"),
    ("buy-stop-below-last-trade-and-gtd-without-expiry", {},
     stop("T", Side.BUY, 10, 50, tif=Tif.GTD), "buy stop below last trade"),
    ("gtd-without-expiry-and-a-held-id", {}, limit("B1", Side.BUY, 48, 10, tif=Tif.GTD),
     "order id already held by the book"),
]


class TestRejections:
    def test_market_into_empty_book(self):
        book = OrderBook()
        result = book.submit(market("M", Side.BUY, 100), clock=1)
        assert result.disposition is Disposition.REJECTED
        assert "empty opposite side" in result.reason

    def test_nonpositive_quantity(self):
        book = OrderBook()
        assert book.submit(limit("Z", Side.BUY, 50, 0), clock=1).disposition \
            is Disposition.REJECTED

    def test_limit_without_price(self):
        book = OrderBook()
        bad = Order(order_id="L", side=Side.BUY, kind=OrderKind.LIMIT, quantity=10)
        assert book.submit(bad, clock=1).disposition is Disposition.REJECTED

    def test_display_larger_than_quantity(self):
        book = OrderBook()
        assert book.submit(limit("D", Side.BUY, 50, 10, display=20), clock=1).disposition \
            is Disposition.REJECTED

    @pytest.mark.parametrize("book_kw, order, reason", [
        pytest.param(*case[1:], id=case[0]) for case in REJECTIONS])
    def test_each_reason(self, book_kw, order, reason):
        """Each admission rule alone: its reason, a zero-fill ledger, the log flag."""
        self.check_rejected(admission_book(**book_kw), order, reason)

    @pytest.mark.parametrize("book_kw, order, reason", [
        pytest.param(*case[1:], id=case[0]) for case in PRECEDENCE])
    def test_first_broken_rule_names_the_reason(self, book_kw, order, reason):
        self.check_rejected(admission_book(**book_kw), order, reason)

    @staticmethod
    def check_rejected(book, order, reason):
        held = book.order_ids()
        before = book.ledger(order.order_id)
        lines = len(book.log.lines)
        result = book.submit(order, clock=5)
        assert (result.disposition, result.reason, result.fills) == \
            (Disposition.REJECTED, reason, ())
        q = order.quantity
        assert book.ledger(order.order_id) == (before[0] + q, before[1], before[2] + q)
        assert book.order_ids() == held
        new = book.log.lines[lines:]
        flag = ",rejected=" + reason.replace(",", ";").replace("=", ":")
        assert len(new) == 1 and new[0].startswith(f"submit|5|{order.order_id}|")
        assert new[0].endswith(flag)


@pytest.fixture(params=["memory", "file"])
def event_log(request, tmp_path):
    """An EventLog and a function that reads back its text: in memory, or
    streamed to a file the way a scenario run writes ``events_<venue>.log``."""
    if request.param == "memory":
        log = EventLog()
        yield log, log.to_text
        return
    path = tmp_path / "events.log"
    with open(path, "w") as fh:
        def text():
            fh.flush()
            return path.read_text()
        yield EventLog(fh), text


class TestEventLog:
    def test_fixed_column_lines(self):
        log = EventLog()
        book = OrderBook(log=log)
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
        book.submit(market("B1", Side.BUY, 400), clock=2)
        book.cancel("S1")
        events = [line.split("|")[0] for line in log.lines]
        assert events == ["submit", "submit", "fill", "cancel"]
        fill_line = log.lines[2].split("|")
        assert fill_line[:6] == ["fill", "2", "B1", "buy", "51", "400"]
        assert "maker=S1" in fill_line[6]

    def test_expire_and_trigger_events(self):
        log = EventLog()
        book = OrderBook(log=log, session_close=100)
        book.submit(limit("D", Side.BUY, 49, 10, tif=Tif.DAY), clock=1)
        book.expire(100)
        assert any(line.startswith("expire|100|D|") for line in log.lines)

    def test_golden_lines_for_every_event_and_flag(self, event_log):
        """Byte-exact lines for each event kind, flag and cancel reason.

        The packaged scenarios emit only plain submits, fills and expiries,
        so their artifact pins do not cover these lines.
        """
        log, text = event_log
        book = OrderBook(log=log)
        book.submit(limit("S1", Side.SELL, 51, 100), clock=1)
        book.submit(limit("S2", Side.SELL, 51, 100, display=0), clock=2)
        book.submit(limit("S3", Side.SELL, 53, 50, disc=1), clock=3)
        book.submit(limit("BAD1", Side.BUY, 50, 10, display=20), clock=4)
        book.submit(limit("BAD2", Side.BUY, 50, 10, disc=-1), clock=4)
        book.submit(market("M1", Side.BUY, 150), clock=5)
        book.submit(limit("F1", Side.BUY, 51, 500, tif=Tif.FOK), clock=6)
        book.submit(limit("I1", Side.BUY, 51, 80, tif=Tif.IOC), clock=7)
        book.submit(market("M2", Side.BUY, 80), clock=8)
        book.submit(limit("G1", Side.BUY, 40, 10, tif=Tif.GTD, tif_time=20), clock=9)
        book.expire(20)
        book.submit(limit("GAT1", Side.BUY, 45, 10, tif=Tif.GAT, tif_time=30), clock=21)
        book.expire(30)
        book.cancel("GAT1")
        book.submit(Order("ST1", Side.SELL, OrderKind.STOP, 10, stop_price=50), clock=31)
        book.submit(Order("ST2", Side.SELL, OrderKind.STOP, 5, stop_price=52,
                          stop_kind=OrderKind.LIMIT, limit_price=52), clock=31)
        book.submit(limit("B5", Side.BUY, 50, 10), clock=32)
        book.submit(limit("S5", Side.SELL, 50, 10), clock=33)   # empties the bid side
        assert text() == (
            "submit|1|S1|sell|51|100|kind=limit,tif=gtc,disp=100\n"
            "submit|2|S2|sell|51|100|kind=limit,tif=gtc,disp=0\n"
            "submit|3|S3|sell|53|50|kind=limit,tif=gtc,disp=50,disc=1\n"
            "submit|4|BAD1|buy|50|10|kind=limit,tif=gtc,disp=20,"
            "rejected=display_quantity outside [0; quantity]\n"
            "submit|4|BAD2|buy|50|10|kind=limit,tif=gtc,disp=10,disc=-1,"
            "rejected=discretion_offset must be >: 0\n"
            "submit|5|M1|buy|-|150|kind=market,tif=gtc,disp=150\n"
            "fill|5|M1|buy|51|100|maker=S1,maker_hidden=0\n"
            "fill|5|M1|buy|51|50|maker=S2,maker_hidden=1\n"
            "submit|6|F1|buy|51|500|kind=limit,tif=fok,disp=500\n"
            "cancel|6|F1|buy|51|500|why=fok-unfillable\n"
            "submit|7|I1|buy|51|80|kind=limit,tif=ioc,disp=80\n"
            "fill|7|I1|buy|51|50|maker=S2,maker_hidden=1\n"
            "cancel|7|I1|buy|51|30|why=ioc\n"
            "submit|8|M2|buy|-|80|kind=market,tif=gtc,disp=80\n"
            "fill|8|M2|buy|53|50|maker=S3,maker_hidden=0\n"
            "cancel|8|M2|buy|-|30|why=market-exhausted\n"
            "submit|9|G1|buy|40|10|kind=limit,tif=gtd,disp=10\n"
            "expire|20|G1|buy|40|10|tif=gtd\n"
            "submit|21|GAT1|buy|45|10|kind=limit,tif=gat,disp=10\n"
            "trigger|30|GAT1|buy|45|10|kind=gat\n"
            "cancel|30|GAT1|buy|45|10|why=user\n"
            "submit|31|ST1|sell|-|10|kind=stop,tif=gtc,disp=10,stop=50,as=market\n"
            "submit|31|ST2|sell|52|5|kind=stop,tif=gtc,disp=5,stop=52,as=limit\n"
            "submit|32|B5|buy|50|10|kind=limit,tif=gtc,disp=10\n"
            "submit|33|S5|sell|50|10|kind=limit,tif=gtc,disp=10\n"
            "fill|33|S5|sell|50|10|maker=B5,maker_hidden=0\n"
            "trigger|33|ST1|sell|50|10|kind=stop,as=market\n"
            "cancel|33|ST1|sell|-|10|why=stop-into-empty-book\n"
            "trigger|33|ST2|sell|52|5|kind=stop,as=limit\n")

    def test_golden_expire_lines_for_day_and_pending_stop(self, event_log):
        """The two expire forms the test above leaves out: a DAY order at the
        session close, and a GTD stop-market order while pending (price ``-``)."""
        log, text = event_log
        book = OrderBook(log=log, session_close=100)
        book.submit(Order("ST", Side.BUY, OrderKind.STOP, 20, stop_price=60, tif=Tif.GTD,
                          tif_time=50), clock=1)
        book.submit(limit("D1", Side.BUY, 49, 10, display=4, tif=Tif.DAY), clock=2)
        book.submit(limit("S1", Side.SELL, 51, 10), clock=3)
        book.expire(49)
        book.expire(50)
        book.expire(99)
        book.expire(100)
        assert text() == (
            "submit|1|ST|buy|-|20|kind=stop,tif=gtd,disp=20,stop=60,as=market\n"
            "submit|2|D1|buy|49|10|kind=limit,tif=day,disp=4\n"
            "submit|3|S1|sell|51|10|kind=limit,tif=gtc,disp=10\n"
            "expire|50|ST|buy|-|20|tif=gtd\n"
            "expire|100|D1|buy|49|10|tif=day\n")
        assert book.order_ids() == {"S1"}


class TestIndexedLayout:
    """Order-id lookup, dict-backed FIFO queues and lazily dropped GAT entries."""

    def test_mid_queue_cancels_keep_fifo_for_the_rest(self):
        book = OrderBook()
        ids = [f"S{k}" for k in range(1_000)]
        for k, oid in enumerate(ids):
            book.submit(limit(oid, Side.SELL, 51, 10), clock=k)
        gone = {"S1", "S500", "S501", "S998"}
        for oid in sorted(gone):
            assert book.cancel(oid) == 10
        book.check_invariants()
        rest = [oid for oid in ids if oid not in gone]
        assert [e.order_id for e in displayed_queue(book, Side.SELL)] == rest
        result = book.submit(market("MO", Side.BUY, 10 * 600), clock=2_000)
        assert [f.maker_order_id for f in result.fills] == rest[:600]
        book.check_invariants()

    def test_remaining_and_cancel_for_every_holding(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 60, 100), clock=1)
        book.submit(limit("B1", Side.BUY, 60, 40), clock=2)      # last trade at 60
        orders = [
            limit("REST", Side.BUY, 50, 300, display=100),
            Order("STOP", Side.BUY, OrderKind.STOP, 200, stop_price=70),
            limit("AON", Side.BUY, 55, 500, tif=Tif.AON),
            limit("GAT", Side.BUY, 50, 400, tif=Tif.GAT, tif_time=100),
        ]
        for order in orders:
            assert book.submit(order, clock=3).disposition is Disposition.RESTING
        omni = book.snapshot(visibility="omniscient")
        assert (omni.pending_stops, omni.pending_aons) == (("STOP",), ("AON",))
        for order in orders:
            assert book.remaining(order.order_id) == order.quantity
            assert book.cancel(order.order_id) == order.quantity
            assert book.remaining(order.order_id) == 0
            assert book.ledger(order.order_id) == (order.quantity, 0, order.quantity)
            with pytest.raises(UnknownOrderError):
                book.cancel(order.order_id)
        omni = book.snapshot(visibility="omniscient")
        assert (omni.pending_stops, omni.pending_aons) == ((), ())
        assert book.order_ids() == {"S1"}
        book.check_invariants()

    def test_gat_cancelled_before_start_is_skipped_by_expire(self):
        log = EventLog()
        book = OrderBook(log=log)
        book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
        book.submit(limit("GAT", Side.BUY, 51, 400, tif=Tif.GAT, tif_time=100), clock=2)
        book.cancel("GAT")
        # the same id again, starting later: only this order may fire
        book.submit(limit("GAT", Side.BUY, 51, 300, tif=Tif.GAT, tif_time=200), clock=3)
        book.expire(100)
        assert book.remaining("S1") == 1_000
        assert not any(line.startswith("trigger|") for line in log.lines)
        book.expire(200)
        assert book.remaining("S1") == 700
        assert sum(line.startswith("trigger|200|GAT|") for line in log.lines) == 1
        assert book.ledger("GAT") == (700, 300, 400)

    def test_resubmitted_gat_activates_once_and_rests_its_leftover(self):
        log = EventLog()
        book = OrderBook(log=log)
        book.submit(limit("S1", Side.SELL, 51, 60), clock=1)
        gat = limit("GAT", Side.BUY, 51, 100, tif=Tif.GAT, tif_time=10)
        book.submit(gat, clock=2)
        book.cancel("GAT")
        book.submit(gat, clock=3)   # the same object: two heap entries, one live order
        book.expire(10)
        assert sum(line.startswith("trigger|10|GAT|") for line in log.lines) == 1
        assert book.remaining("GAT") == 40
        submitted, filled, cancelled = book.ledger("GAT")
        assert (submitted, filled, cancelled) == (200, 60, 100)
        assert submitted == filled + cancelled + book.remaining("GAT")
        assert [(e.order_id, e.quantity) for e in displayed_queue(book, Side.BUY)] == [
            ("GAT", 40)]
        book.check_invariants()

    def test_resubmitted_gat_stop_triggers_once(self):
        log = EventLog()
        book = OrderBook(log=log)
        book.submit(limit("S1", Side.SELL, 51, 60), clock=1)
        book.submit(limit("B1", Side.BUY, 51, 10), clock=1)   # last trade at 51
        stop = Order("GAT", Side.BUY, OrderKind.STOP, 100, stop_price=60, tif=Tif.GAT,
                     tif_time=10)
        book.submit(stop, clock=2)
        book.cancel("GAT")
        book.submit(stop, clock=3)
        book.expire(10)
        assert sum(line.startswith("trigger|10|GAT|") for line in log.lines) == 1
        assert book.snapshot(visibility="omniscient").pending_stops == ("GAT",)
        assert book.remaining("GAT") == 100
        assert book.ledger("GAT") == (200, 0, 100)
        book.check_invariants()

    def test_iceberg_refill_after_mid_queue_cancel_goes_to_the_back(self):
        book = OrderBook()
        book.submit(limit("ICE", Side.SELL, 51, 1_000, display=100), clock=1)
        for k, oid in enumerate(("A", "B", "C")):
            book.submit(limit(oid, Side.SELL, 51, 50), clock=2 + k)
        book.cancel("B")
        result = book.submit(market("MO", Side.BUY, 100), clock=10)
        assert [(f.maker_order_id, f.quantity) for f in result.fills] == [("ICE", 100)]
        assert [(oid, qty, hidden) for _, oid, qty, hidden in visible_sells(book)] == [
            ("A", 50, False), ("C", 50, False), ("ICE", 100, False), ("ICE", 800, True)]
        book.check_invariants()

    def test_discretionary_fill_removes_a_mid_queue_entry(self):
        book = OrderBook()
        book.submit(limit("S4", Side.SELL, 52, 100), clock=1)
        book.submit(limit("S3", Side.SELL, 52, 100, disc=1), clock=2)
        book.submit(limit("S5", Side.SELL, 52, 100), clock=3)
        result = book.submit(limit("B", Side.BUY, 51, 100), clock=4)
        assert [(f.maker_order_id, f.price, f.quantity) for f in result.fills] == [
            ("S3", 51, 100)]
        assert result.disposition is Disposition.FILLED
        assert "S3" not in book.order_ids()
        assert [e.order_id for e in displayed_queue(book, Side.SELL)] == ["S4", "S5"]
        book.check_invariants()

    def test_snapshot_entries_are_immutable_named_records(self):
        book = OrderBook()
        book.submit(limit("S1", Side.SELL, 51, 100), clock=7)
        entry = displayed_queue(book, Side.SELL)[0]
        assert type(entry)._fields == ("order_id", "quantity", "hidden", "priority")
        assert (entry.order_id, entry.quantity, entry.hidden) == ("S1", 100, False)
        assert entry.priority[0] == 7
        with pytest.raises(AttributeError):
            entry.quantity = 5
        assert entry == displayed_queue(book, Side.SELL)[0]

    def test_orders_are_immutable(self):
        order = limit("S1", Side.SELL, 51, 100)
        with pytest.raises(AttributeError):
            order.quantity = 50
        assert order.quantity == 100

    def test_duplicate_live_order_id_is_rejected(self):
        book = OrderBook()
        book.submit(limit("X", Side.SELL, 51, 100), clock=1)
        result = book.submit(limit("X", Side.SELL, 52, 50), clock=2)
        assert result.disposition is Disposition.REJECTED
        assert book.remaining("X") == 100
        assert book.ledger("X") == (150, 0, 50)
        book.cancel("X")
        assert book.submit(limit("X", Side.SELL, 52, 50), clock=3).disposition \
            is Disposition.RESTING


class TestStoredEntries:
    """The queues hold each order's entry, and an omniscient snapshot hands those out."""

    def build(self):
        book = OrderBook(session_close=1_000)
        book.submit(limit("ICE", Side.SELL, 51, 1_000, display=200), clock=1)
        book.submit(limit("S1", Side.SELL, 51, 300), clock=2)
        book.submit(limit("HID", Side.SELL, 51, 400, display=0), clock=3)
        book.submit(limit("S2", Side.SELL, 52, 500, tif=Tif.GTD, tif_time=50), clock=4)
        book.submit(limit("B1", Side.BUY, 49, 600), clock=5)
        return book

    def test_snapshots_keep_their_values_through_later_events(self):
        book = self.build()
        events = [
            lambda: book.submit(market("M1", Side.BUY, 100), clock=10),   # ICE's slice, in part
            lambda: book.submit(market("M2", Side.BUY, 200), clock=11),   # ICE refills, S1 in part
            lambda: book.cancel("S1"),
            lambda: book.expire(50),                                      # S2 expires
        ]
        taken = []
        for event in events:
            views = [book.snapshot(), book.snapshot(visibility="omniscient")]
            taken += [(view, copy.deepcopy(view)) for view in views]
            event()
            assert [book.snapshot(), book.snapshot(visibility="omniscient")] != views
            for view, recorded in taken:
                assert view == recorded
        assert book.order_ids() == {"ICE", "HID", "B1"}
        book.check_invariants()

    def test_partial_fill_keeps_the_queue_position_and_priority(self):
        book = self.build()
        before = displayed_queue(book, Side.SELL)
        book.submit(market("M1", Side.BUY, 100), clock=10)
        after = displayed_queue(book, Side.SELL)
        assert [e.order_id for e in after] == ["ICE", "S1"]
        assert after[0] == before[0]._replace(quantity=100)
        assert after[1] is before[1]

    def test_snapshot_records_equal_their_keyword_built_forms(self):
        book = self.build()
        book.submit(market("M2", Side.BUY, 500), clock=11)   # ICE refilled, S1 gone
        level = book.snapshot(visibility="omniscient").asks[0]
        ice = next(e for e in level.entries if e.order_id == "ICE" and not e.hidden)
        built = SnapshotLevel(price=51, total=1_200, entries=(
            SnapshotEntry(order_id="ICE", quantity=200, hidden=False, priority=ice.priority),
            SnapshotEntry(order_id="ICE", quantity=600, hidden=True, priority=ice.priority),
            SnapshotEntry(order_id="HID", quantity=400, hidden=True, priority=(3, 3)),
        ))
        assert level == built
        assert type(level) is SnapshotLevel
        assert [type(e) for e in level.entries] == [SnapshotEntry] * 3
        assert type(level)._fields == ("price", "total", "entries")
        with pytest.raises(AttributeError):
            level.total = 0
        with pytest.raises(AttributeError):
            level.entries[0].quantity = 0

    def test_depth_zero_returns_no_levels(self):
        snap = self.build().snapshot(depth=0, visibility="omniscient")
        assert (snap.bids, snap.asks) == ((), ())

    def test_negative_depth_is_rejected(self):
        with pytest.raises(ValueError, match="depth"):
            self.build().snapshot(depth=-3)

    def test_unknown_visibility_is_rejected(self):
        with pytest.raises(ValueError, match="visibility"):
            self.build().snapshot(visibility="bogus")


class TestInvariantCheck:
    """check_invariants raises explicitly, so it checks under ``python -O`` too."""

    REPRO = textwrap.dedent("""
        from tradelab.orderbook import Order, OrderBook, OrderKind, Side
        book = OrderBook()
        for oid, price in (("B5", 5), ("B4", 4)):
            book.submit(Order(oid, Side.BUY, OrderKind.LIMIT, 10, limit_price=price), clock=1)
        book.check_invariants()
        {breakage}
        book.check_invariants()
    """)

    @staticmethod
    def _run(breakage: str, flags: list[str]) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
        repro = TestInvariantCheck.REPRO.format(breakage=breakage)
        return subprocess.run([sys.executable, *flags, "-c", repro], env=env,
                              capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_out_of_order_price_index_fails(self, flags):
        done = self._run("book._prices[Side.BUY].reverse()", flags)
        assert done.returncode == 1
        assert "AssertionError: price index out of order" in done.stderr

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_shown_off_by_one_fails(self, flags):
        done = self._run("book._levels[Side.BUY][5].shown += 1", flags)
        assert done.returncode == 1
        assert "AssertionError: shown shares at 5 differ from the visible entries" in done.stderr


ENUMS = {cls.__name__: set(cls.__members__) for cls in (Side, OrderKind, Tif, Disposition)}


@pytest.mark.parametrize("module", ["orderbook.py", "venue_sim.py"])
def test_no_function_reads_an_enum_member_through_its_class(module):
    """On Python 3.10/3.11 such a read goes through ``EnumType.__getattr__``:
    the per-order code reads module constants instead. Class-level defaults,
    such as ``Order.stop_kind``, run once and may keep the class spelling."""
    tree = ast.parse((SRC / "tradelab" / module).read_text())
    reads = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.Lambda)):
            body = func.body if isinstance(func.body, list) else [func.body]
            for node in (n for stmt in body for n in ast.walk(stmt)):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.attr in ENUMS.get(node.value.id, ())):
                    reads.add(f"{module}:{node.lineno} {node.value.id}.{node.attr}")
    assert sorted(reads) == []

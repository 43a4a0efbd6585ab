"""Walk through the matching engine: limits, markets, icebergs, hidden
orders, discretion, stops, and pinging for latent liquidity.

Run:  python demos/01_orderbook_basics.py
"""

from tradelab.orderbook import Order, OrderBook, OrderKind, Side, Tif


def render(book, visibility="public"):
    """Public: displayed shares per price. Omniscient: every order, (h) when hidden."""
    snap = book.snapshot(visibility=visibility)
    print(f"  --- book ({visibility}), last trade {snap.last_trade_price} ---")
    for name, levels in (("ask", reversed(snap.asks)), ("bid", snap.bids)):
        for lvl in levels:
            if visibility == "omniscient":
                rows = ", ".join(f"{e.order_id}:{e.quantity}{'(h)' if e.hidden else ''}"
                                 for e in lvl.entries)
            else:
                rows = lvl.total
            print(f"  {name} {lvl.price}: {rows}")


def limit(oid, side, price, qty, **kw):
    return Order(oid, side, OrderKind.LIMIT, qty, limit_price=price, **kw)


print("== 1. price-time priority ==")
book = OrderBook()
book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
book.submit(limit("S2", Side.SELL, 51, 800), clock=2)
book.submit(limit("S3", Side.SELL, 52, 2_500), clock=3)
book.submit(limit("B1", Side.BUY, 50, 1_000), clock=4)
render(book)

print("\na market buy for 2,200 walks the book: S1 first (older), then S2, then 52s")
result = book.submit(Order("MO", Side.BUY, OrderKind.MARKET, 2_200), clock=5)
for f in result.fills:
    print(f"  filled {f.quantity} @ {f.price} against {f.maker_order_id}")
render(book)

print("\n== 2. native iceberg: display refreshes, time priority lost ==")
book = OrderBook()
book.submit(limit("ICE", Side.SELL, 51, 20_000, display_quantity=2_000), clock=1)
book.submit(limit("S2", Side.SELL, 51, 2_000), clock=2)
print("public view shows only the 2,000-share peak of the 20,000-share order:")
render(book)
render(book, "omniscient")
book.submit(Order("MO2", Side.BUY, OrderKind.MARKET, 3_000), clock=3)
print("after a 3,000 buy: peak consumed, refill slice queues BEHIND S2:")
render(book, "omniscient")

print("\n== 3. fully hidden order discovered by a ping ==")
book = OrderBook(venue_id="DARK")
book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
book.submit(limit("HB", Side.BUY, 51, 2_000, display_quantity=0), clock=2)
print("the hidden buy crossed 1,000@51; its remaining 1,000 is latent:")
render(book)
render(book, "omniscient")

from tradelab.tactics import HiddenLiquidityTracker, ping

tracker = HiddenLiquidityTracker()
res = ping(book, Side.SELL, 51, 1_000, Tif.IOC, tracker)
print(f"IOC sell ping at 51: filled {res.filled}, "
      f"{res.hidden_filled} of it from hidden depth")
print(f"hidden-liquidity estimate at (DARK, 51): "
      f"p={tracker.probability('DARK', 51):.2f}")

print("\n== 4. stop order as downside protection ==")
book = OrderBook()
book.submit(limit("S0", Side.SELL, 110, 100), clock=1)
book.submit(Order("B0", Side.BUY, OrderKind.MARKET, 100), clock=2)
print(f"position opened, last trade {book.last_trade_price}")
book.submit(limit("BIDS", Side.BUY, 109, 1_000), clock=3)
stop = Order("STP", Side.SELL, OrderKind.STOP, 500, stop_price=110,
             stop_kind=OrderKind.MARKET)
book.submit(stop, clock=4)
print("protective sell stop resting at 110; a trade prints 109...")
book.submit(limit("S1", Side.SELL, 109, 200), clock=5)
book.submit(Order("B1", Side.BUY, OrderKind.MARKET, 200), clock=6)
submitted, filled, cancelled = book.ledger("STP")
print(f"stop fired as a market sell: filled {filled} of {submitted}")

print("\n== 5. discretionary order: hidden willingness to trade one tick better ==")
book = OrderBook()
book.submit(limit("S1", Side.SELL, 51, 1_000), clock=1)
book.submit(limit("S3", Side.SELL, 52, 4_000, discretion_offset=1), clock=2)
result = book.submit(limit("BIG", Side.BUY, 51, 3_000), clock=3)
for f in result.fills:
    print(f"  filled {f.quantity} @ {f.price} against {f.maker_order_id}")
print("S3 (displayed at 52) stepped down to 51, but only after displayed 51s")

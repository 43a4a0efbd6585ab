"""Placement tactics: slicing with randomized sizes, layering that keeps time
priority, sniping, and smart routing over a consolidated book.

Run:  python demos/04_tactics_and_routing.py
"""

import numpy as np

from tradelab.orderbook import Order, OrderBook, OrderKind, Side
from tradelab.tactics import (
    LayerSet,
    RouteWeights,
    SlicePolicy,
    SnipeWatch,
    aggregate,
    candidates_from_virtual,
    draw_slice_size,
    maintain_layers,
    route,
)
from tradelab.venue_sim import VenueConfig


def limit(oid, side, price, qty):
    return Order(oid, side, OrderKind.LIMIT, qty, limit_price=price)


print("== sequential slicing (synthetic iceberg) ==")
policy = SlicePolicy(display=1_000, jitter=0.3, seed=38)
rng = np.random.default_rng(policy.seed)
sizes = []
while sum(sizes) < 10_000:   # each child goes out once the one before resolves
    sizes.append(min(draw_slice_size(policy, rng), 10_000 - sum(sizes)))
print(f"child sizes: {sizes} (sum {sum(sizes)})")
print("randomized sizes hide the footprint; each child waits for a confirmation")

print("\n== layering: roll the ladder, keep survivors' timestamps ==")
book = OrderBook()
book.submit(limit("ask", Side.SELL, 105, 100), clock=1)
layers = LayerSet(side=Side.BUY, offsets=(1, 2, 3), rung_size=100, max_total=10_000)
actions = maintain_layers(layers, mid=100)
for o in actions.new_orders:
    book.submit(o, clock=2)
print(f"ladder at mid 100: rungs {sorted(layers.live)}")
actions = maintain_layers(layers, mid=101)
print(f"mid ticks up to 101: add {[o.limit_price for o in actions.new_orders]}, "
      f"cancel {len(actions.cancels)} deep rung, middle rungs untouched")

print("\n== sniping: wait, then take with IOC ==")
book = OrderBook(venue_id="V1")
book.submit(limit("far", Side.SELL, 55, 900), clock=1)
watch = SnipeWatch(side=Side.BUY, trigger=51, qty=400)
print(f"nothing at 51 yet: {watch.check(book.snapshot())}")
book.submit(limit("near", Side.SELL, 51, 300), clock=2)
shot = watch.check(book.snapshot())
print(f"liquidity appears -> IOC {shot.quantity}@{shot.limit_price} fires same tick")
result = book.submit(shot, clock=3)
watch.on_result(sum(f.quantity for f in result.fills))
print(f"partial fill, remainder cancelled, watch re-armed for {watch.remaining()}")

print("\n== routing over a consolidated virtual book ==")
fast = VenueConfig("FAST", taker_fee=0.003, latency=1)
cheap = VenueConfig("CHEAP", taker_fee=0.001, latency=6)
fast_book, cheap_book = OrderBook(venue_id="FAST"), OrderBook(venue_id="CHEAP")
fast_book.submit(limit("f1", Side.SELL, 51, 500), clock=1)
cheap_book.submit(limit("c1", Side.SELL, 51, 800), clock=1)
vbook = aggregate([(fast, fast_book), (cheap, cheap_book)],
                  exec_probability={"FAST": 0.9, "CHEAP": 0.6})
print("consolidated asks:", [(e.venue_id, e.price, e.visible_qty) for e in vbook.asks])
cands = candidates_from_virtual(vbook, Side.BUY)
print("fee-sensitive routing   ->", route(cands, Side.BUY,
                                          RouteWeights(fee=5.0, latency=0.1)))
print("latency-sensitive       ->", route(cands, Side.BUY,
                                          RouteWeights(fee=0.1, latency=5.0)))
print("fill-probability-heavy  ->", route(cands, Side.BUY,
                                          RouteWeights(exec_probability=10.0)))

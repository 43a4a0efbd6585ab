"""Seeded background market: volume calibration, U-shaped intraday profile,
and bit-exact determinism.

Run:  python demos/02_market_simulation.py
"""

from tradelab.venue_sim import MarketParams, MarketSim, u_shape_profile

params = MarketParams(initial_price=50.0, volatility=0.25, adv=1_000_000,
                      seed=7, session_ticks=5_850, intensity=1.0)
profile = u_shape_profile(13)

print("running one session (quarter-day clock, full ADV)...")
sim = MarketSim(params, profile=profile)
sim.run_session()

fills = sim.book().fills_since(0)   # the one venue's fill record
traded = sum(f.quantity for f in fills)
print(f"traded volume: {traded:,} shares vs ADV {params.adv:,.0f} "
      f"({traded / params.adv:.1%})")
print(f"final mid {sim.mid()}, fundamental {sim.fundamental:.2f} ticks")

print("\nper-bucket realized volume vs the U-shaped profile:")
per_bucket = [0] * len(profile)
for f in fills:
    per_bucket[profile.bucket_of(f.time - 1, params.session_ticks)] += f.quantity
for j, (z, v) in enumerate(zip(profile.fractions, per_bucket)):
    bar = "#" * int(60 * v / max(per_bucket))
    print(f"  bucket {j:2d}  target {z:5.1%}  realized {v / traded:5.1%}  {bar}")

print("\ndeterminism: same seed, same stream")
again = MarketSim(params, profile=profile)
again.run_session()
print(f"  fills identical: {again.book().fills_since(0) == fills}")
other = MarketSim(MarketParams(initial_price=50.0, volatility=0.25, adv=1_000_000,
                               seed=8, session_ticks=5_850, intensity=1.0),
                  profile=profile)
other.run_session()
print(f"  different seed diverges: {other.book().fills_since(0) != fills}")

"""Cross-module integration: tactics in the runner's spec, multi-venue routing."""

from tradelab.exec_algos import AlgoSpec, ParentOrder, run_algorithm
from tradelab.orderbook import Side
from tradelab.tactics import RouteWeights, SlicePolicy
from tradelab.venue_sim import MarketParams, MarketSim, VenueConfig


def sim_params(seed=3, **overrides):
    base = dict(initial_price=50.0, volatility=0.1, adv=500_000, seed=seed,
                session_ticks=2_000, intensity=1.0)
    base.update(overrides)
    return MarketParams(**base)


class TestSliceWiring:
    def test_children_split_to_display_size(self):
        sim = MarketSim(sim_params())
        parent = ParentOrder(side=Side.BUY, quantity=4_000, start=0, end=2_000)
        spec = AlgoSpec(type="twap", bucket_ticks=500, slice_policy=SlicePolicy(display=250))
        trace = run_algorithm(spec, parent, sim)
        assert trace.filled == 4_000
        assert all(c.quantity <= 250 for c in trace.children)
        assert len(trace.children) >= 16

    def test_jittered_slices_are_seeded(self):
        def run(seed):
            sim = MarketSim(sim_params())
            parent = ParentOrder(side=Side.BUY, quantity=4_000, start=0, end=2_000)
            spec = AlgoSpec(type="twap", bucket_ticks=500, slice_policy=SlicePolicy(
                display=250, jitter=0.3, seed=seed))
            trace = run_algorithm(spec, parent, sim)
            return [c.quantity for c in trace.children]
        assert run(1) == run(1)
        assert run(1) != run(2)
        assert len(set(run(1))) > 2   # sizes actually vary


class TestRouteWiring:
    def venues(self):
        return [VenueConfig("PRICY", taker_fee=0.01, latency=1),
                VenueConfig("CHEAP", taker_fee=0.0, latency=1)]

    def test_children_follow_fee_weighted_router(self):
        sim = MarketSim(sim_params(), venues=self.venues())
        parent = ParentOrder(side=Side.BUY, quantity=2_000, start=0, end=2_000)
        spec = AlgoSpec(type="twap", bucket_ticks=500, route_weights=RouteWeights(
            price=1.0, exec_probability=0.0, latency=0.0, fee=100.0))
        trace = run_algorithm(spec, parent, sim)
        assert trace.filled > 0
        by_venue = {}
        for f in trace.fills:
            by_venue[f.venue_id] = by_venue.get(f.venue_id, 0) + f.quantity
        # fee-dominant weights keep children away from the pricey venue unless
        # it is strictly better priced at dispatch time
        assert by_venue.get("CHEAP", 0) > by_venue.get("PRICY", 0)

    def test_without_router_children_stay_on_default_venue(self):
        sim = MarketSim(sim_params(), venues=self.venues())
        parent = ParentOrder(side=Side.BUY, quantity=2_000, start=0, end=2_000)
        trace = run_algorithm(AlgoSpec(type="twap", bucket_ticks=500), parent, sim)
        assert {f.venue_id for f in trace.fills} == {"PRICY"}

    def test_routed_run_is_deterministic(self):
        def run():
            sim = MarketSim(sim_params(seed=11), venues=self.venues())
            parent = ParentOrder(side=Side.BUY, quantity=2_000, start=0, end=2_000)
            spec = AlgoSpec(type="twap", bucket_ticks=500, route_weights=RouteWeights())
            return run_algorithm(spec, parent, sim).fills
        assert run() == run()


class TestScenarioTacticsSection:
    def test_harness_wires_slice_and_route(self, tmp_path):
        from tradelab import harness
        from tradelab.scenario import load_scenario
        text = """\
[scenario]
seed = 4
name = wired

[market]
initial_price = 50.0
adv = 500000
session_ticks = 2000
intensity = 1.0

[venue:A]
taker_fee = 0.01

[venue:B]
taker_fee = 0.0

[parent]
side = buy
quantity = 3000
end = 2000

[algo]
type = twap
bucket_ticks = 500

[tactics]
slice_display = 200
slice_jitter = 0.2
slice_seed = 9
route_w_fee = 50.0
"""
        path = tmp_path / "wired.ini"
        path.write_text(text)
        scenario = load_scenario(path)
        out = tmp_path / "out"
        report = harness.run(scenario, out)
        assert report.filled > 0
        assert report.child_count >= 15    # sliced into ~200-share children
        assert "B" in report.fees          # router reached the cheap venue


def test_every_public_name_resolves():
    import tradelab
    assert len(set(tradelab.__all__)) == len(tradelab.__all__)
    assert [name for name in tradelab.__all__ if not hasattr(tradelab, name)] == []

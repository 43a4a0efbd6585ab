"""tradelab's benchmark: one command per workload, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its `src/`.
Each workload is a closed loop with one client, single-threaded, in this one
process. The workload seed fixes every input the program receives.

  pov_seed_sweep  back-to-back `tradelab run` of a POV quarter-day scenario
  heavy_day       full-session `tradelab run` on three venues, sliced and routed
  book_depth      a seeded operation mix on a standalone OrderBook over a
                  ladder of book shapes

With --trace 0 the run measures the end-to-end metrics: set-up time (median
of several set-ups, each a fresh import of the program plus the workload's
own preparation), work per second (simulated venue-ticks on the scenario
workloads; on book_depth, the geometric mean over the book shapes of each
shape's operations per second), request latency (one
`tradelab run`, or one book operation) as median and tail, and the peak RSS
of this process minus its RSS after set-up. Times are in reference seconds,
which cancel this host's speed drift (see common.py).

With --trace 1 it first runs the untraced loop for half the time, then
replays the same requests with spans recorded around the public functions of
every module (see tracer.py) and reports the per-layer metrics, per request.

Every request's outputs are checked; failed operations and checks are
reported as `failed` out of `attempted`. A SHA-256 digest of the workload's
outputs (fixed requests, independent of the run length) is printed beside
the metrics and not gated on; repeats of a seed within the run, and the
traced replay, must reproduce it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from common import current_rss_mb, peak_rss_mb, tail

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 5
WORKLOADS = ("pov_seed_sweep", "heavy_day", "book_depth")
SHAPE_CURVES = (("cancel", "q10"), ("cancel", "q1000"), ("cancel", "q20000"),
                ("market", "lv10"), ("market", "lv1000"), ("market", "lv10000"),
                ("limit", "lv10"), ("limit", "lv1000"), ("limit", "lv10000"))


def make_workload(name: str, seed: int):
    if name == "book_depth":
        from book_workload import BookDepth
        return BookDepth(seed)
    import scenario_workloads
    return getattr(scenario_workloads, name)(seed)


def import_program() -> None:
    """Import tradelab afresh, so its import-time work counts in every set-up."""
    for name in [m for m in sys.modules if m == "tradelab" or m.startswith("tradelab.")]:
        del sys.modules[name]
    importlib.import_module("tradelab.cli")


def set_up(workload, work_dir: Path) -> list:
    """Set up SETUP_REPEATS times; returns (gauge clock, host seconds) of each."""
    gauge = workload.gauge
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        start = gauge.clock()
        import_program()
        workload.setup(work_dir)
        times.append((start, gauge.clock() - start))
    return times


def run_loop(workload, seconds: float) -> tuple[list, float]:
    """Closed loop: the next request starts when the previous one is done.

    Also returns the peak RSS once the first `min_requests` requests are
    done, so memory growth is taken over a fixed amount of work.
    """
    outcomes = []
    peak = 0.0
    start = perf_counter()
    while len(outcomes) < workload.min_requests or perf_counter() - start < seconds:
        outcomes.append(workload.request(len(outcomes)))
        if len(outcomes) == workload.min_requests:
            peak = peak_rss_mb()
    return outcomes, peak


def to_reference(gauge, outcomes: list) -> None:
    """Turn every timed operation's host seconds into reference seconds."""
    for o in outcomes:
        o.latencies = [gauge.reference(s, e) for s, e in zip(o.starts, o.latencies)]


def workload_digest(outcomes: list, workload) -> str:
    h = hashlib.sha256()
    for outcome in outcomes[:workload.digest_requests]:
        h.update(outcome.digest.encode())
    return h.hexdigest()


def busy(outcomes: list) -> float:
    return sum(sum(o.latencies) for o in outcomes)


def end_to_end(workload, seconds: float, work_dir: Path):
    gauge = workload.gauge
    with gauge.running():
        setups = set_up(workload, work_dir)
        rss_after_setup = current_rss_mb()
        outcomes, peak = run_loop(workload, seconds)
    setup_s = median(gauge.reference(start, elapsed) for start, elapsed in setups)
    to_reference(gauge, outcomes)
    rss_growth = peak - rss_after_setup
    # Replaying the first request after the loop must reproduce its digest.
    workload.reset()
    again = workload.request(0)
    repeat_failed = int(again.digest != outcomes[0].digest)
    if repeat_failed:
        again.failures.append("repeat of the first request changed its digest")
    latencies = [x for o in outcomes for x in o.latencies]
    p50 = median(latencies)
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (workload.throughput(outcomes), "1/s"),
        "latency_ms.p50": (p50 * 1e3, "ms"),
        "latency_ms.tail": (tail_value * 1e3, "ms"),
        "rss_growth_mb": (rss_growth, "MB"),
    }
    attempted = sum(o.attempted for o in outcomes + [again])
    failed = sum(o.failed for o in outcomes + [again]) + repeat_failed
    # The same numbers under the names a reader of each workload expects.
    if workload.name == "book_depth":
        lines = [("book_ops_per_s (geometric mean over shapes)", metrics["ops_per_s"][0], "1/s"),
                 ("book_op_us.p50", p50 * 1e6, "us"),
                 (f"book_op_us.tail (p{tail_pct:.2f} of {n})", tail_value * 1e6, "us")]
    else:
        lines = [("sim_ticks_per_s", metrics["ops_per_s"][0], "1/s"),
                 ("run_s.p50", p50, "s"),
                 (f"run_s.tail (p{tail_pct:.2f} of {n})", tail_value, "s")]
    lines += [("setup_s", setup_s, "s"), ("rss_growth_mb", rss_growth, "MB"),
              ("reference s per host s", gauge.factor(0.0), ""),
              ("error_rate", failed / attempted, f"({failed}/{attempted})")]
    for name, value, unit in lines:
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    return metrics, attempted, failed, outcomes + [again], workload_digest(outcomes, workload)


def traced(workload, seconds: float, work_dir: Path):
    from tracer import ROOT_SPAN, Tracer

    gauge = workload.gauge
    with gauge.running():
        set_up(workload, work_dir)
        plain, _ = run_loop(workload, seconds / 2)
    to_reference(gauge, plain)
    workload.reset()
    tracer = Tracer(clock=gauge.clock)
    workload.quiet = tracer.paused
    live = retained = 0
    outcomes = []
    since = gauge.clock()
    tracer.install()
    try:
        with gauge.running():
            for i in range(len(plain)):
                with tracer.span(ROOT_SPAN):
                    outcomes.append(workload.request(i))
                with tracer.paused():
                    books = workload.books()
                    for sim in tracer.sims:
                        retained += len(sim.order_sides)
                        books += list(sim.books.values())
                    live += sum(len(book.order_ids()) for book in books)
                    tracer.sims.clear()
    finally:
        tracer.uninstall()
    speed = gauge.factor(since)
    to_reference(gauge, outcomes)
    tracer.write(OUT / f"spans-{workload.name}.npz")
    mismatched = sum(a.digest != b.digest for a, b in zip(plain, outcomes))
    if mismatched:
        outcomes[0].failures.append(f"{mismatched} traced requests changed their digest")
    n = len(outcomes)
    metrics = layer_metrics(tracer, n, speed, live / n, retained / n, plain,
                            busy(outcomes) / busy(plain))
    for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True):
        print(f"{workload.name} self {name:32s} {tracer.self_s[name] * speed / n:12.6f} s/request "
              f"{tracer.calls[name] / n:12.1f} calls/request")
    root_self = tracer.self_s[ROOT_SPAN]
    layers_self = sum(v for name, v in tracer.self_s.items() if name != ROOT_SPAN)
    print(f"{workload.name} {ROOT_SPAN} {tracer.total_s[ROOT_SPAN] * speed / n:.6f} s/request"
          f" = layers' self {layers_self * speed / n:.6f}"
          f" + {ROOT_SPAN} self {root_self * speed / n:.6f}")
    attempted = sum(o.attempted for o in plain + outcomes)
    failed = sum(o.failed for o in plain + outcomes) + mismatched
    return metrics, attempted, failed, plain + outcomes, workload_digest(outcomes, workload)


def layer_metrics(tr, n: int, speed: float, live: float, retained: float, plain: list,
                  overhead: float) -> dict:
    """Per-request per-layer numbers from a traced replay of n requests.

    Times are in reference seconds, the traced pass's self times scaled by
    its median host speed. The shape curves come from the untraced pass, so
    the wrappers do not inflate them.
    """
    counts = tr.counts

    def self_per_request(name, scale):
        return tr.self_s.get(name, 0.0) * speed * scale / n

    def ratio(num, den):
        return num / den if den else 0.0

    bg_orders = counts["bg_orders"] / n
    advance_self = self_per_request("venue_sim.advance", 1.0)
    aggregate_calls = tr.calls.get("tactics.aggregate", 0)
    metrics = {
        "orderbook.submit.calls": (tr.calls.get("orderbook.submit", 0) / n, "count"),
        "orderbook.submit.self_us": (self_per_request("orderbook.submit", 1e6), "us"),
        "orderbook.cancel.self_us": (self_per_request("orderbook.cancel", 1e6), "us"),
        "orderbook.remaining.self_us": (self_per_request("orderbook.remaining", 1e6), "us"),
        "orderbook.expire.self_us": (self_per_request("orderbook.expire", 1e6), "us"),
        "orderbook.snapshot.self_us": (self_per_request("orderbook.snapshot", 1e6), "us"),
        "orderbook.snapshot.entries": (counts["snapshot_entries"] / n, "count"),
        "orderbook.log.lines": (tr.calls.get("orderbook.log.record", 0) / n, "count"),
        "orderbook.log.self_s": (self_per_request("orderbook.log.record", 1.0)
                                 + self_per_request("orderbook.log.to_text", 1.0), "s"),
        "orderbook.live_orders": (live, "count"),
        "venue_sim.init.self_s": (self_per_request("venue_sim.init", 1.0), "s"),
        "venue_sim.advance.self_s": (advance_self, "s"),
        "venue_sim.bg_orders": (bg_orders, "count"),
        "venue_sim.self_us_per_bg_order": (ratio(advance_self * 1e6, bg_orders), "us"),
        "venue_sim.cancel_hit_ratio": (ratio(counts["sim_remaining_hits"],
                                             counts["sim_remaining_probes"]), "ratio"),
        "venue_sim.retained_orders": (retained, "count"),
        "exec_algos.run_algorithm.self_s": (self_per_request("exec_algos.run_algorithm", 1.0),
                                            "s"),
        "exec_algos.overhead_ratio": (ratio(tr.self_s.get("exec_algos.run_algorithm", 0.0),
                                            tr.total_s.get("venue_sim.advance", 0.0)), "ratio"),
        "exec_algos.children": (counts["children"] / n, "count"),
        "exec_algos.fill_ratio": (ratio(counts["filled"], counts["parent_qty"]), "ratio"),
        "tactics.aggregate.calls": (aggregate_calls / n, "count"),
        "tactics.aggregate.self_us": (self_per_request("tactics.aggregate", 1e6), "us"),
        "tactics.aggregate.levels": (ratio(counts["aggregate_levels"], aggregate_calls),
                                     "count"),
        "tactics.route.self_us": (self_per_request("tactics.route", 1e6), "us"),
        "cost_model.sample_cost_surface.self_ms": (
            self_per_request("cost_model.sample_cost_surface", 1e3), "ms"),
        "optimizer.frontier.self_ms": (self_per_request("optimizer.frontier", 1e3), "ms"),
        "tca.expanded_tc.self_us": (self_per_request("tca.expanded_tc", 1e6), "us"),
        "scenario.load_scenario.self_ms": (self_per_request("scenario.load_scenario", 1e3),
                                           "ms"),
        "harness.run.self_s": (self_per_request("harness.run", 1.0), "s"),
        "harness.artifact_bytes": (sum(o.artifact_bytes for o in plain) / len(plain), "bytes"),
        "cli.main.self_ms": (self_per_request("cli.main", 1e3), "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.self_coverage": (tr.self_coverage(), "ratio"),
    }
    by_label: dict = {}
    for o in plain:
        for label, latency in zip(o.labels, o.latencies):
            by_label.setdefault(label, []).append(latency)
    for kind, shape in SHAPE_CURVES:
        samples = by_label.get((kind, shape))
        metrics[f"orderbook.{kind}_us.{shape}"] = (
            median(samples) * 1e6 if samples else 0.0, "us")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tradelab" / "__init__.py").is_file():
        print(f"perfbench: no tradelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = make_workload(args.workload, args.seed)
    work_dir = OUT / f"work-{args.workload}"
    try:
        measure = traced if args.trace else end_to_end
        metrics, attempted, failed, outcomes, digest = measure(workload, args.seconds, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for outcome in outcomes:
        for failure in outcome.failures[:5]:
            print(f"{args.workload} check failed: {failure}", file=sys.stderr)
    print(f"{args.workload} digest = {digest}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

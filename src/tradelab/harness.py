"""Scenario runs and golden-fixture replays.

``run`` executes a scenario end to end (simulation, algorithm, TCA,
optimizer) and writes its artifact files: the echoed config, per-venue event
logs, the parent fill log, the TCA report, frontier tables and the cost
surface. The event logs stream into their files while the session runs.
Every artifact starts with a header line carrying the artifact version and
the scenario hash, so fixtures invalidate when formats change. Runs are
deterministic: the same scenario and seed produce byte-identical files.

``replay_fixtures`` replays the packaged golden book fixtures (delimited
event-log scripts with expected fills and after-states) and reports the
first divergence per fixture.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from dataclasses import asdict, dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional

import numpy as np

from tradelab.cost_model import sample_cost_surface
from tradelab.exec_algos import ExecutionTrace, run_algorithm
from tradelab.optimizer import frontier, frontier_to_delimited
from tradelab.orderbook import (
    EventLog,
    Order,
    OrderBook,
    OrderKind,
    Side,
    Tif,
)
from tradelab.scenario import Scenario, ScenarioError
from tradelab.tca import ISReport, TCAInputs, expanded_tc, report_text
from tradelab.tactics import SlicePolicy, draw_slice_size
from tradelab.venue_sim import MarketSim


# ---------------------------------------------------------------------------
# fixture replay
# ---------------------------------------------------------------------------

@dataclass
class FixtureResult:
    name: str
    passed: bool
    diff: list = field(default_factory=list)


class FixtureFormatError(ValueError):
    pass


def _parse_flags(text: str) -> dict:
    flags = {}
    if text:
        for part in text.split(","):
            key, _, value = part.partition("=")
            flags[key] = value
    return flags


def _columns(line: str) -> list[str]:
    cols = line.split("|")
    if len(cols) != 7:
        raise FixtureFormatError(f"want 7 columns, got {len(cols)}")
    return cols


def _parse_order_line(line: str) -> tuple[int, Order]:
    _, clock, oid, side, price, qty, flag_text = _columns(line)
    flags = _parse_flags(flag_text)
    order = Order(
        order_id=oid,
        side=Side(side),
        kind=OrderKind(flags.get("kind", "market" if price == "-" else "limit")),
        quantity=int(qty),
        limit_price=None if price == "-" else int(price),
        display_quantity=int(flags["disp"]) if "disp" in flags else None,
        discretion_offset=int(flags.get("disc", 0)),
        stop_price=int(flags["stop"]) if "stop" in flags else None,
        stop_kind=OrderKind(flags.get("as", "market")),
        protection_offset=int(flags["prot"]) if "prot" in flags else None,
        tif=Tif(flags.get("tif", "gtc")),
        tif_time=int(flags["tif_time"]) if "tif_time" in flags else None,
    )
    return int(clock), order


def _parse_slice_line(line: str) -> tuple[int, Order]:
    """A synthetic-iceberg child: the next draw after ``emitted`` earlier ones."""
    _, clock, oid, side, price, _qty, flag_text = _columns(line)
    flags = _parse_flags(flag_text)
    policy = SlicePolicy(display=int(flags["display"]), jitter=float(flags["jitter"]),
                         seed=int(flags["seed"]))
    remaining = int(flags["parent"]) - int(flags["filled"])
    if remaining <= 0:
        raise FixtureFormatError("slice action produced no child")
    rng = np.random.default_rng(policy.seed)
    for _ in range(int(flags["emitted"])):
        draw_slice_size(policy, rng)
    size = min(draw_slice_size(policy, rng), remaining)
    return int(clock), Order(oid, Side(side), OrderKind.LIMIT, size, limit_price=int(price))


def _parse_line(line: str) -> tuple[int, Order]:
    """A setup or action line; any error in it is a FixtureFormatError naming it."""
    event = line.partition("|")[0]
    try:
        if event == "submit":
            return _parse_order_line(line)
        if event == "slice":
            return _parse_slice_line(line)
        raise FixtureFormatError(f"unknown event {event!r}")
    except KeyError as exc:
        raise FixtureFormatError(f"{line}: missing flag {exc}") from None
    except ValueError as exc:
        raise FixtureFormatError(f"{line}: {exc}") from None


def _parse_fixture(text: str) -> dict:
    sections: dict[str, list[str]] = {}
    current: Optional[str] = None
    version_seen = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("version|"):
            version_seen = True
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1]
            sections[current] = []
            continue
        if current is None:
            raise FixtureFormatError(f"line outside any section: {line!r}")
        sections[current].append(line)
    if not version_seen:
        raise FixtureFormatError("fixture missing version line")
    for required in ("setup", "action", "expect.fills", "expect.book"):
        if required not in sections:
            raise FixtureFormatError(f"fixture missing [{required}] section")
    return sections


def _flatten_book(book: OrderBook, displayed_only: bool = False) -> list[str]:
    """One row per omniscient entry; ``displayed_only`` keeps the displayed queue."""
    snap = book.snapshot(visibility="omniscient")
    rows = []
    for side_name, levels in (("sell", snap.asks), ("buy", snap.bids)):
        for lvl in levels:
            for e in lvl.entries:
                if e.hidden and displayed_only:
                    continue
                vis = "hidden" if e.hidden else "visible"
                rows.append(f"book|{side_name}|{lvl.price}|{e.order_id}|{e.quantity}|{vis}")
    return rows


def _first_divergence(expected: list[str], actual: list[str], label: str) -> list[str]:
    for i, (exp, act) in enumerate(zip(expected, actual)):
        if exp != act:
            return [f"{label}[{i}] expected: {exp}", f"{label}[{i}] actual:   {act}"]
    if len(expected) != len(actual):
        i = min(len(expected), len(actual))
        exp = expected[i] if i < len(expected) else "<nothing>"
        act = actual[i] if i < len(actual) else "<nothing>"
        return [f"{label}[{i}] expected: {exp}", f"{label}[{i}] actual:   {act}"]
    return []


def replay_fixture_text(name: str, text: str) -> FixtureResult:
    try:
        sections = _parse_fixture(text)
        setup = [_parse_line(line) for line in sections["setup"]]
        action = [_parse_line(line) for line in sections["action"]]
    except FixtureFormatError as exc:
        return FixtureResult(name=name, passed=False, diff=[f"format: {exc}"])
    log = EventLog()
    book = OrderBook(log=log)
    for clock, order in setup:
        book.submit(order, clock=clock)
    log_mark = len(log.lines)
    for clock, order in action:
        book.submit(order, clock=clock)
    actual_fills = [l for l in log.lines[log_mark:] if l.startswith("fill|")]
    diff = _first_divergence(sections["expect.fills"], actual_fills, "fills")
    if not diff:
        diff = _first_divergence(sections["expect.book"],
                                 _flatten_book(book), "book")
    if not diff and "expect.public" in sections:
        diff = _first_divergence(sections["expect.public"],
                                 _flatten_book(book, displayed_only=True), "public")
    if not diff and "expect.last_trade" in sections:
        actual = f"last_trade|{book.last_trade_price}"
        diff = _first_divergence(sections["expect.last_trade"], [actual], "last_trade")
    return FixtureResult(name=name, passed=not diff, diff=diff)


def replay_fixtures(directory: Optional[Path] = None) -> list[FixtureResult]:
    """Replay every ``*.fixture`` file; packaged goldens when no dir is given.

    A directory that is missing or holds no fixture raises FileNotFoundError.
    """
    root = (resources.files("tradelab").joinpath("fixtures") if directory is None
            else Path(directory))
    entries = sorted(root.iterdir(), key=lambda e: e.name) if root.is_dir() else []
    results = [replay_fixture_text(e.name[:-len(".fixture")], e.read_text())
               for e in entries if e.name.endswith(".fixture")]
    if not results:
        raise FileNotFoundError(f"no .fixture files in {root}")
    return results


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

@dataclass
class RunReport:
    scenario_name: str
    scenario_hash: str
    seed: int
    filled: int = 0
    residual: int = 0
    average_price: Optional[float] = None      # currency
    participation: Optional[float] = None
    arrival_price: Optional[float] = None      # currency
    final_price: Optional[float] = None        # currency
    decision_price: Optional[float] = None     # currency
    tca: Optional[ISReport] = None
    fees: dict = field(default_factory=dict)
    frontier_files: list = field(default_factory=list)
    child_count: int = 0

    def to_dict(self) -> dict:
        out = asdict(self)
        if self.tca is None:
            del out["tca"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        flat: list[tuple[str, object]] = []

        def walk(prefix, value):
            if isinstance(value, dict):
                for k in sorted(value):
                    walk(f"{prefix}.{k}" if prefix else k, value[k])
            elif isinstance(value, list):
                flat.append((prefix, ";".join(str(v) for v in value)))
            else:
                flat.append((prefix, value))

        walk("", self.to_dict())
        lines = ["key,value"] + [f"{k},{v}" for k, v in flat]
        return "\n".join(lines) + "\n"


def run(scenario: Scenario, out_dir: Path) -> RunReport:
    """Execute a scenario and emit its artifact files into ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = scenario.header()
    (out / "scenario_echo.ini").write_text(header + scenario.echo())
    report = RunReport(scenario_name=scenario.name, scenario_hash=scenario.digest(),
                       seed=scenario.seed)

    if scenario.algo is not None:
        with ExitStack() as files:
            logs = {}
            for venue in scenario.venues:
                fh = files.enter_context(open(out / f"events_{venue.venue_id}.log", "w"))
                fh.write(header)
                logs[venue.venue_id] = EventLog(fh)
            sim = MarketSim(scenario.market, venues=scenario.venues,
                            profile=scenario.profile, logs=logs)
            trace = run_algorithm(scenario.algo, scenario.parent, sim)
        _emit_trace_files(scenario, trace, out, header, report)

    if scenario.optimizer is not None:
        report.frontier_files = run_frontier(scenario, out)

    fmt = scenario.report_format
    body = report.to_json() if fmt == "json" else report.to_csv()
    (out / f"report.{fmt}").write_text(header + body)
    return report


def _emit_trace_files(scenario: Scenario, trace: ExecutionTrace,
                      out: Path, header: str, report: RunReport) -> None:
    tick = scenario.market.tick_size
    fills = "".join(f"{f.tick}|{f.price}|{f.quantity}\n" for f in trace.fills)
    (out / "fills.log").write_text(header + fills)

    report.filled = trace.filled
    report.residual = trace.residual
    report.child_count = len(trace.children)
    report.participation = trace.participation
    avg_ticks = trace.average_price()
    report.average_price = None if avg_ticks is None else avg_ticks * tick
    report.arrival_price = (None if trace.arrival_price is None
                            else trace.arrival_price * tick)
    report.final_price = (None if trace.final_price is None
                          else trace.final_price * tick)
    report.fees = dict(trace.fees)

    decision = scenario.tca.decision_price
    if decision is None:
        decision = report.arrival_price   # mid at order arrival, the default benchmark
    report.decision_price = decision
    inputs = TCAInputs(
        side=scenario.parent.side.value,
        intended_qty=scenario.parent.quantity,
        fills=[(f.quantity, f.price * tick) for f in trace.fills],
        final_price=report.final_price,
        decision_price=decision,
        arrival_price=report.arrival_price,
        fixed=scenario.tca.fixed + sum(trace.fees.values()),
    )
    report.tca = expanded_tc(inputs)
    (out / "tca_report.txt").write_text(
        header + report_text(report.tca, side=scenario.parent.side.value))


def run_frontier(scenario: Scenario, out_dir: Path) -> list[str]:
    """Emit frontier tables (per benchmark) and the cost surface; returns filenames."""
    opt = scenario.optimizer
    if opt is None:
        raise ScenarioError("the frontier needs an [optimizer] section")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    header = scenario.header()
    benchmarks = (("arrival", "previous_close") if opt.benchmark == "both"
                  else (opt.benchmark,))
    coeffs, risk = scenario.coefficients(), scenario.risk
    written = []
    for benchmark in benchmarks:
        points = frontier(opt.lambda_grid, coeffs, risk, benchmark=benchmark,
                          drift=opt.drift, alpha_min=opt.alpha_min,
                          alpha_max=opt.alpha_max)
        name = f"frontier_{benchmark}.txt"
        (out / name).write_text(header + frontier_to_delimited(points))
        written.append(name)
    alphas = np.linspace(opt.alpha_min, opt.alpha_max, 400)
    rows = sample_cost_surface(coeffs, risk, alphas)
    surface = "alpha|mi|risk\n" + "".join(
        f"{float(a)!r}|{m!r}|{r!r}\n" for a, m, r in rows)
    (out / "cost_surface.txt").write_text(header + surface)
    written.append("cost_surface.txt")
    return written

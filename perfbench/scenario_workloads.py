"""Scenario workloads: back-to-back `tradelab run` calls through `cli.main`.

Each request is one in-process `tradelab run <input> --seed <s> --out <dir>`
with a fresh seed drawn from the workload seed. The benchmark then checks
the run's artifacts, hashes them and deletes them.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from pathlib import Path

from common import Gauge, Outcome

INPUTS = Path(__file__).resolve().parent / "inputs"
WARMUP_FRACTION = 20      # the set-up warm-up run covers 1/20 of the session
POV_TOLERANCE = 0.01      # POV participation must sit within 1 pp of pr


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


class ScenarioWorkload:
    """A closed loop of `tradelab run` calls, one client, one at a time."""

    def __init__(self, name: str, input_name: str, seed: int, digest_requests: int,
                 min_requests: int):
        self.name = name
        self.input = INPUTS / input_name
        self.digest_requests = digest_requests
        self.min_requests = min_requests
        self.quiet = contextlib.nullcontext
        self.gauge = Gauge()
        self._rng = random.Random(f"{name}:{seed}")
        self._seeds: list[int] = []
        cfg = configparser.ConfigParser()
        cfg.read(self.input)
        self._cfg = cfg
        self.venues = sum(1 for s in cfg.sections() if s.startswith("venue:"))
        self.session_ticks = cfg.getint("market", "session_ticks")
        self.quantity = cfg.getint("parent", "quantity")
        self.pov_rate = (cfg.getfloat("algo", "pr")
                         if cfg.get("algo", "type").startswith("pov") else None)
        self.work_dir: Path | None = None

    def seed_of(self, i: int) -> int:
        """The run seed of request i, drawn from the workload seed."""
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.randrange(1, 2**31))
        return self._seeds[i]

    def _run(self, scenario: Path, seed: int, out: Path):
        import tradelab.cli as cli   # looked up per call, so a traced run sees the wrapper
        argv = ["run", str(scenario), "--seed", str(seed), "--out", str(out)]
        with contextlib.redirect_stdout(io.StringIO()):
            start = self.gauge.clock()
            code = cli.main(argv)
            elapsed = self.gauge.clock() - start
        return code, start, elapsed

    def setup(self, work_dir: Path) -> None:
        """Copy the input into the work dir and run a short warm-up session."""
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(self.input, work_dir / self.input.name)
        warm = configparser.ConfigParser()
        warm.read_dict(self._cfg)
        ticks = max(1, self.session_ticks // WARMUP_FRACTION)
        warm["market"]["session_ticks"] = str(ticks)
        warm["parent"]["end"] = str(min(ticks, self._cfg.getint("parent", "end")))
        warm_path = work_dir / "warmup.ini"
        with open(warm_path, "w") as fh:
            warm.write(fh)
        code, _, _ = self._run(warm_path, self.seed_of(0), work_dir / "warmup-out")
        shutil.rmtree(work_dir / "warmup-out", ignore_errors=True)
        if code != 0:
            raise RuntimeError(f"warm-up run exited with {code}")

    def reset(self) -> None:
        """Runs share no state, so replaying request i needs no reset."""

    def books(self) -> list:
        return []

    def throughput(self, outcomes: list) -> float:
        """Simulated venue-ticks per reference second of `tradelab run`."""
        ticks = self.session_ticks * self.venues * len(outcomes)
        return ticks / sum(sum(o.latencies) for o in outcomes)

    def request(self, i: int) -> Outcome:
        out = self.work_dir / f"run-{i}"
        code, start, elapsed = self._run(self.work_dir / self.input.name, self.seed_of(i), out)
        with self.quiet():
            failures = self.check(out) if code == 0 else [f"exit code {code}"]
            digest, size = _digest_dir(out)
        shutil.rmtree(out, ignore_errors=True)
        return Outcome(digest=digest, latencies=[elapsed], starts=[start], attempted=1,
                       failed=1 if failures else 0, failures=failures, artifact_bytes=size)

    def check(self, out: Path) -> list[str]:
        """Output checks; each returned string names one that failed."""
        failures = []
        report = _read_report(out)
        if report["filled"] + report["residual"] != self.quantity:
            failures.append("filled + residual != parent quantity")
        fills = _body(out / "fills.log")
        if sum(int(line.split("|")[2]) for line in fills) != report["filled"]:
            failures.append("fills.log does not add up to the reported fill")
        tca = {}
        for line in _body(out / "tca_report.txt"):
            key, sep, value = line.partition(" = ")
            if sep and key != "side":
                tca[key] = float(value)
        if not _close(tca["delay_cost"] + tca["trade_related_cost"], tca["execution_cost"]):
            failures.append("TCA delay + trade_related != execution_cost")
        legs = (tca["delay_cost"] + tca["trade_related_cost"]
                + tca["opportunity_cost"] + tca["fixed_cost"])
        if not _close(legs, tca["total"]):
            failures.append("TCA total != sum of its legs")
        if self.pov_rate is not None:
            part = report["participation"]
            if part is None or abs(part - self.pov_rate) > POV_TOLERANCE:
                failures.append(f"POV participation {part} not within 1 pp of {self.pov_rate}")
        return failures


def _body(path: Path) -> list[str]:
    """Artifact lines after the version header."""
    return [line for line in path.read_text().splitlines()[1:] if line]


def _read_report(out: Path) -> dict:
    json_path = out / "report.json"
    if json_path.exists():
        return json.loads("\n".join(_body(json_path)))
    flat = dict(line.split(",", 1) for line in _body(out / "report.csv")[1:])
    part = flat["participation"]
    return {"filled": int(flat["filled"]), "residual": int(flat["residual"]),
            "participation": None if part == "None" else float(part)}


def _digest_dir(out: Path) -> tuple[str, int]:
    """SHA-256 over every artifact's name and bytes; total artifact bytes."""
    h = hashlib.sha256()
    size = 0
    if out.is_dir():
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            size += len(data)
            h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest(), size


def pov_seed_sweep(seed: int) -> ScenarioWorkload:
    return ScenarioWorkload("pov_seed_sweep", "pov_quarter_day.ini", seed,
                            digest_requests=4, min_requests=16)


def heavy_day(seed: int) -> ScenarioWorkload:
    return ScenarioWorkload("heavy_day", "heavy_day.ini", seed,
                            digest_requests=1, min_requests=2)

"""Minimum-size smoke run of the benchmark.

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second, untraced and traced,
and fails unless:
  * each run exits 0, its outputs pass every check, and its last line names
    every end-to-end (untraced) or per-layer (traced) metric, with its unit;
  * the traced replay reproduces the untraced run's digest;
  * the bypasses hold: no tactics aggregation on pov_seed_sweep, no
    background orders on book_depth, and both on heavy_day;
  * on book_depth, cancel cost rises with queue length and market cost with
    the number of price levels;
  * in a directory holding only BENCHMARK.json and the benchmark's files,
    the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def run(cwd: Path, bench: dict, workload: str, trace: int):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def digest_of(stdout: str) -> str:
    return next(line.split(" = ")[1] for line in stdout.splitlines()
                if line.split(" ")[1:2] == ["digest"])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    layer = {}
    for workload in (w["name"] for w in bench["workloads"]):
        digests = []
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, bench, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks failed: {proc.stderr[-500:]}")
            for metric in bench[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} [{metric['unit']}] not printed")
            digests.append(digest_of(proc.stdout))
            if trace:
                layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"ok {label}", flush=True)
        if len(set(digests)) != 1:
            problems.append(f"{workload}: traced digest differs from the untraced one")

    bypasses = (("pov_seed_sweep", "tactics.aggregate.calls", False),
                ("book_depth", "venue_sim.bg_orders", False),
                ("heavy_day", "tactics.aggregate.calls", True),
                ("heavy_day", "venue_sim.bg_orders", True))
    for workload, name, nonzero in bypasses:
        value = layer.get(workload, {}).get(name)
        if value is None or (value > 0) != nonzero:
            problems.append(f"{workload}: {name} = {value}, want {'> 0' if nonzero else '0'}")
    book = layer.get("book_depth", {})
    for curve in (("cancel_us", "q10", "q1000", "q20000"),
                  ("market_us", "lv10", "lv1000", "lv10000")):
        values = [book.get(f"orderbook.{curve[0]}.{shape}", 0.0) for shape in curve[1:]]
        if not 0 < values[0] < values[1] < values[2]:
            problems.append(f"book_depth: {curve[0]} does not rise along {curve[1:]}: {values}")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, bench, bench["workloads"][0]["name"], 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("benchmark ran without the program's sources")

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

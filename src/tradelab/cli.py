"""Command-line entry points.

Verbs:
    tradelab run <scenario-file>        full scenario run with artifact files
    tradelab replay-fixtures            golden book-fixture conformance

Exit codes: 0 ok, 1 validation error, 2 runtime error, 3 fixture mismatch.
``tradelab --debug <verb>`` re-raises the error with its traceback instead.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tradelab import harness
from tradelab.scenario import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_FIXTURE_MISMATCH = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tradelab",
                                     description="trade-execution laboratory")
    parser.add_argument("--debug", action="store_true",
                        help="re-raise an error with its traceback")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument("--out", type=Path, default=None, help="output directory")

    p_replay = sub.add_parser("replay-fixtures", help="replay golden book fixtures")
    p_replay.add_argument("--dir", type=Path, default=None,
                          help="fixture directory (default: packaged goldens)")
    return parser


def _default_out(scenario, path: Path) -> Path:
    return Path(f"{path.stem}-out-{scenario.digest()}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            scenario = load_scenario(args.scenario, seed=args.seed)
            out = args.out or _default_out(scenario, args.scenario)
            report = harness.run(scenario, out)
            print(f"run complete: {report.filled} filled, "
                  f"{report.residual} residual -> {out}")
            return EXIT_OK
        results = harness.replay_fixtures(args.dir)   # replay-fixtures
        failed = 0
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{status}  {r.name}")
            for line in r.diff:
                print(f"      {line}")
            failed += 0 if r.passed else 1
        print(f"{len(results) - failed}/{len(results)} fixtures passed")
        return EXIT_OK if failed == 0 else EXIT_FIXTURE_MISMATCH
    except ScenarioError as exc:
        if args.debug:
            raise
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        if args.debug:
            raise
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Pinned behaviour: SHA-256 of every artifact of the packaged scenarios.

A refactor that claims to change no behaviour must leave every digest here
unchanged. A deliberate change of output re-pins them in the same commit;
the failure message prints the new mapping to paste in.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from tradelab import harness
from tradelab.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"

PINNED = {
    "twap_quarter_day/cost_surface.txt": "c9372b5100cd693675f26ebdc25590336c60f5d83bc052b8da1c13e36bfba2b0",
    "twap_quarter_day/events_LIT1.log": "90c9c99eb212fd3ca00481339ee6726565bbe8d308e3d2b2ba67ecf3e13c493a",
    "twap_quarter_day/fills.log": "f3cca5ec96705902164990150c6b215a30e83d04bdebdadde8e64935bfb8a059",
    "twap_quarter_day/frontier_arrival.txt": "5f88f45fd50d9c286ad9d7ff74e56909ecdabd130c7c7f6496cca9601b13819b",
    "twap_quarter_day/frontier_previous_close.txt": "42e0c61d71dac18d2c10942bda1a2ee5630702690d9eb5e834b741c382c7a995",
    "twap_quarter_day/report.json": "ef3f8a347739be292e191311097ccf3e78602553288cdd37f844951ffca36c55",
    "twap_quarter_day/scenario_echo.ini": "3c1ed1b461f053109104df8c180765db5e0b8d68924f40b17de48d4f21770dec",
    "twap_quarter_day/tca_report.txt": "99eb2bf6bf174905923d71566fd11aca9cace4a934831f61899eadf1864b85cb",
    "pov_quarter_day/events_LIT1.log": "41aa7490875c5714fa10c7534f9aa57f08a988912aaf3ed4aaa679a0443ef927",
    "pov_quarter_day/fills.log": "cbc1c2803dbfada7f152ec52e8d95ad02c628d5c96152ada0eb3189f7efc5b6f",
    "pov_quarter_day/report.csv": "f7aa1018619cb40b25411b542e5aa6ede6aad93bc45d81ae3aa56ec78aa82865",
    "pov_quarter_day/scenario_echo.ini": "a9dc1e6401c8bf5c42b4587e8c7fa6c21204ac0fe823860703b79ac37b83bcf2",
    "pov_quarter_day/tca_report.txt": "80955d254d52a2e7862c4f512f109e752d98d41560856ca097a0ab35c5b1c0ab",
    "frontier_only/cost_surface.txt": "1a135cb8dad2a76bcf9fb723270b4f648dfdee831526a40a365e306f607d6a31",
    "frontier_only/frontier_arrival.txt": "f403f3020406fc5ed5e7aef0360a7ab2bd5728009c408da24ff31b8e92ec2e41",
    "frontier_only/frontier_previous_close.txt": "afdd8ffe170987153822cd1f8f81659831f147112ab3a64fcaa9e86c3049ebb3",
    "frontier_only/report.csv": "8532d502120f691f5053ee813069895a74a0dd53385a459b6234a0863841475a",
    "frontier_only/scenario_echo.ini": "f1fe8aed54fcd8385f1be56f8e8564cbcdfc13b39765e0386a4ca35caaee27a2",
}


def _digests(out_dir: Path, name: str) -> dict[str, str]:
    return {f"{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def test_packaged_scenario_artifacts_match_pins(tmp_path):
    got = {}
    for name in ("twap_quarter_day", "pov_quarter_day", "frontier_only"):
        out = tmp_path / name
        harness.run(load_scenario(SCENARIOS / f"{name}.ini"), out)
        got.update(_digests(out, name))
    changed = sorted(k for k in PINNED.keys() | got.keys() if PINNED.get(k) != got.get(k))
    assert not changed, "artifacts differ from the pins: " + ", ".join(changed) + \
        "\nnew pins:\n" + "\n".join(f'    "{k}": "{v}",' for k, v in got.items())


def _cli_run(tmp_path: Path, hash_seed: str) -> dict[str, bytes]:
    out = tmp_path / f"hashseed-{hash_seed}"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-m", "tradelab.cli", "run",
                    str(SCENARIOS / "twap_quarter_day.ini"), "--out", str(out)],
                   env=env, check=True, capture_output=True, timeout=300)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_cli_run_is_byte_identical_across_hash_seeds(tmp_path):
    first, second = _cli_run(tmp_path, "1"), _cli_run(tmp_path, "2")
    assert first.keys() == second.keys()
    for fname in first:
        assert first[fname] == second[fname], f"{fname} depends on PYTHONHASHSEED"

"""Checker self-test: a corrupted output must be counted and fail the run.

Usage: ``python3 perfbench/selftest.py``

For each oracle, one short run alters one output just before its check
(``run.py --corrupt``): a flipped bit in one SSA product, one wrong
coefficient in one RLWE circuit, one altered serve response.  The test
asserts that the corrupted run exits 1 with ``correct`` false and
exactly one more failure than the same run left alone, which must pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CASES = ("ssa-paper", "rlwe-depth2", "serve-mixed")
SECONDS = "3"


def run(workload: str, corrupt: bool):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", SECONDS, "--trace", "0",
    ]
    if corrupt:
        command.append("--corrupt")
    process = subprocess.run(command, capture_output=True, text=True, timeout=300)
    lines = process.stdout.strip().splitlines()
    return process.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    failures = 0
    for workload in CASES:
        clean_code, clean = run(workload, corrupt=False)
        code, corrupted = run(workload, corrupt=True)
        ok = (
            clean_code == 0
            and clean["correct"] is True
            and clean["failed"] == 0
            and code == 1
            and corrupted["correct"] is False
            and corrupted["failed"] == 1
        )
        failures += not ok
        print(
            f"{'PASS' if ok else 'FAIL'} {workload}: clean exit {clean_code} "
            f"failed {clean and clean['failed']}; corrupted exit {code} "
            f"failed {corrupted and corrupted['failed']}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

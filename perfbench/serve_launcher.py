"""The ``serve-mixed`` server: ``repro serve`` with every CLI default.

Usage: ``python3 perfbench/serve_launcher.py --max-requests N [--trace]``.
It binds an ephemeral port (printed by the CLI on its first line) and
exits once it has answered N submits.  With ``--trace`` the benchmark's
timing wrappers are installed in this process before the server starts,
and the recorded spans are printed as one ``TRACE <json>`` line after
it has shut down.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-requests", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    recorder = None
    if args.trace:
        recorder = tracing.Recorder()
        tracing.install(recorder, serve=True)

    from repro.cli import main as cli_main

    cli_main(["serve", "--port", "0", "--max-requests", str(args.max_requests)])
    if recorder is not None:
        print("TRACE " + json.dumps(recorder.export()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one unruhcp CLI call and report how long its import and its command took.

    python3 -X importtime perfbench/cli_probe.py <subcommand> [args...]

Behaves as `python -m unruhcp.cli` (same stdout and exit code) and writes one
extra stderr line, "perfbench-probe {json}", with import_s and command_s.
"""
import json
import sys
import time

t0 = time.perf_counter()
import unruhcp.cli as cli  # noqa: E402

t1 = time.perf_counter()
rc = cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.flush()
sys.stderr.write("perfbench-probe " + json.dumps({"import_s": t1 - t0, "command_s": t2 - t1}) + "\n")
sys.exit(rc)

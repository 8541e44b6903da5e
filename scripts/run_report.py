#!/usr/bin/env python3
"""Run the bundled comparison report and a reference sweep.

Writes report.json and sweep.csv into --out-dir and prints one status line
per report section.  Exit code 4 when any acceptance-grade check fails
(the two known closed-form discrepancies are flagged separately).
"""
import argparse
import json
import pathlib
import sys

from unruhcp.sweep import compare_report, default_config, rows_to_csv, run_sweep

WORKERS = 4   # threads of the reference sweep; its rows do not depend on them


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out", help="artifact directory")
    args = ap.parse_args(argv)

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    config = default_config()
    report = compare_report(config)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")

    rows = run_sweep(config, max_workers=WORKERS)
    (out / "sweep.csv").write_text(rows_to_csv(rows))

    for key, sec in report.items():
        if isinstance(sec, dict) and ("pass" in sec or "status" in sec):
            status = sec.get("status") or ("PASS" if sec["pass"] else "FAIL")
            print(f"{key:18s} {status}")
    print(f"flagged discrepancies: {report['flagged_discrepancies']}")
    print(f"artifacts in {out}/")
    return 0 if report["acceptance_pass"] else 4


if __name__ == "__main__":
    sys.exit(main())

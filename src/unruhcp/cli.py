"""Command-line interface.

Subcommands: occupation, eval, asymptotic, sweep, fit, report.
Exit codes: 0 success, 1 input error, 2 regime error, 3 numerical failure,
4 acceptance-check failure (report).

occupation and asymptotic run without numpy; the other subcommands import
the numpy modules (potential, sweep) when they run, and main() pins
OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is set.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .asymptotics import (
    closed_form_slope,
    far_low_acc,
    far_low_acc_parts,
    high_aR,
    near_zone_value,
    potential_high_acc,
)
from .atoms import load_atom
from .errors import InputError, NumericalFailure, RegimeError, UnruhCPError, check_domain
from .occupation import mode_occupation
from .units import UnitSystem

LAWS = ("near", "far-low", "high-ar", "high-acc")


def _print_json(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _write_output(path: str | None, text: str) -> None:
    """Write text to the file path, or to stdout when path is unset or "-"."""
    if not path or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def _cmd_occupation(args) -> int:
    occ = mode_occupation(args.omega, args.accel, c=UnitSystem(mode=args.units).c)
    doc = {"omega": args.omega, "accel": args.accel, "units": args.units}
    doc.update(occ.as_dict())
    _print_json(doc)
    return 0


def _cmd_eval(args) -> int:
    from .potential import potential_numeric, potential_oracle
    from .sweep import relative_difference

    atom = load_atom(args.atom, units=args.units)
    doc = {"R": args.R, "a": args.accel, "units": args.units, "method": args.method}
    results = {}
    if args.method in ("contour", "both"):
        results["contour"] = potential_numeric(args.R, args.accel, atom,
                                               units=args.units).as_dict()
    if args.method in ("oracle", "both"):
        results["oracle"] = potential_oracle(args.R, args.accel, atom,
                                             units=args.units).as_dict()
    doc.update(results)
    if len(results) == 2:
        doc["rel_diff"] = relative_difference([r["value"] for r in results.values()])
    _print_json(doc)
    return 0


def _cmd_asymptotic(args) -> int:
    if args.law == "high-acc" and args.atom_b is None:
        raise InputError("--law high-acc needs --atom-b, the atom that responds to atom A")
    # checked for every law: the near law does not use it but echoes it
    check_domain("acceleration", args.accel, strict=False)
    atom = load_atom(args.atom, units=args.units)
    atom_b = load_atom(args.atom_b, units=args.units) if args.atom_b else None
    doc = {"law": args.law, "R": args.R, "a": args.accel, "units": args.units}
    if args.law == "near":
        doc["value"] = near_zone_value(args.R, atom, units=args.units)
    elif args.law == "far-low":
        t7, t5 = far_low_acc_parts(args.R, args.accel, atom, units=args.units)
        doc["value"] = far_low_acc(args.R, args.accel, atom, units=args.units)
        doc["parts"] = {"inertial_R7": t7, "acceleration_R5": t5}
    elif args.law == "high-ar":
        doc["value"] = high_aR(args.R, args.accel, atom, units=args.units)
    else:
        doc["value"] = potential_high_acc(args.R, args.accel, atom, atom_b,
                                          units=args.units)
    doc["slope"] = closed_form_slope(args.law, args.R, args.accel, atom, units=args.units)
    _print_json(doc)
    return 0


def _resolve_config(path: str):
    from .sweep import SweepConfig, default_config

    if path == "default":
        return default_config()
    return SweepConfig.from_json(path)


def _cmd_sweep(args) -> int:
    from .sweep import rows_to_csv, run_sweep

    config = _resolve_config(args.config)
    rows = run_sweep(config)
    _write_output(args.out or config.output_path, rows_to_csv(rows))
    return 0


def _cmd_fit(args) -> int:
    from .sweep import fit_slope, read_rows_csv

    rows = read_rows_csv(args.input)
    window = None
    if args.window:
        try:
            lo, hi = (float(v) for v in args.window.split(","))
        except ValueError as exc:
            raise InputError(f"bad window {args.window!r}; expected min,max") from exc
        window = (lo, hi)
    fit = fit_slope(rows, args.x, args.y, window)
    _print_json({"x": args.x, "y": args.y, "window": list(window) if window else None,
                 **fit.as_dict()})
    return 0


def _cmd_report(args) -> int:
    from .sweep import compare_report

    config = _resolve_config(args.config)
    report = compare_report(config)
    _write_output(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if report["acceptance_pass"] else 4


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="unruhcp",
                                description="Dispersion potential between two "
                                            "uniformly accelerating atoms")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("occupation", help="field mode occupation seen by the atoms")
    sp.add_argument("--omega", type=float, required=True)
    sp.add_argument("--accel", type=float, required=True)
    sp.add_argument("--units", choices=("natural", "si"), default="natural")
    sp.set_defaults(func=_cmd_occupation)

    sp = sub.add_parser("eval", help="evaluate the potential at one point")
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--accel", type=float, required=True)
    sp.add_argument("--atom", required=True)
    sp.add_argument("--method", choices=("contour", "oracle", "both"),
                    default="contour")
    sp.add_argument("--units", choices=("natural", "si"), default="natural")
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("asymptotic", help="closed-form regime laws")
    sp.add_argument("--law", choices=LAWS, required=True)
    sp.add_argument("--R", type=float, required=True)
    sp.add_argument("--accel", type=float, default=0.0)
    sp.add_argument("--atom", required=True)
    sp.add_argument("--atom-b", default=None)
    sp.add_argument("--units", choices=("natural", "si"), default="natural")
    sp.set_defaults(func=_cmd_asymptotic)

    sp = sub.add_parser("sweep", help="run a grid sweep to CSV")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("fit", help="log-log slope fit on sweep output")
    sp.add_argument("--input", required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--window", default=None)
    sp.set_defaults(func=_cmd_fit)

    sp = sub.add_parser("report", help="comparison report with acceptance checks")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    # the package does no BLAS work worth a thread; a spare OpenBLAS worker
    # only spins while numpy loads.  A value the user set still wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except UnruhCPError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

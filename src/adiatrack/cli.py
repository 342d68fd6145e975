"""Command line entry point.

    adiatrack track  --config cfg.json --out dir
    adiatrack sweep  --grid grid.json --config cfg.json --out dir
    adiatrack verify --suite prop1 [--master-seed N]
    adiatrack bound  --constants consts.json --gamma-p X --gamma-alpha Y \
                     --gamma-pi Z --T N

Exit codes: 0 pass, 1 property violation, 2 config error, which track, sweep
and bound print through one handler (_run_config), a bound term beyond the
floats included.  Every JSON printed has spec_version, the package's __version__.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__, bounds, verify
from .harness import ExperimentConfig, run_sweep, run_tracking
from .schedules import DriftCertificateError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


def _seed(text: str) -> int:
    """A master seed: a non-negative integer, as the suites' streams take."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _build_parser():
    parser = argparse.ArgumentParser(prog="adiatrack")
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="run a tracking experiment")
    track.add_argument("--config", required=True)
    track.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="run a grid of exponent cells")
    sweep.add_argument("--grid", required=True)
    sweep.add_argument("--config", required=True)
    sweep.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="run a named property suite")
    ver.add_argument("--suite", required=True, choices=sorted(verify.SUITES))
    ver.add_argument("--master-seed", type=_seed, default=verify.DEFAULT_MASTER_SEED)

    bound = sub.add_parser("bound", help="evaluate the tracking-error bound")
    bound.add_argument("--constants", help="JSON file of constants", default=None)
    bound.add_argument("--gamma-p", required=True,
                       help="drift exponent; 'inf' for a static chain")
    bound.add_argument("--gamma-alpha", type=float, required=True)
    bound.add_argument("--gamma-pi", type=float, required=True)
    bound.add_argument("--T", type=int, required=True)
    return parser


def _run_config(handler, args) -> int:
    """handler(args) for track, sweep or bound: the errors caught here stem from
    the config, the grid, the constants or the paths given, wherever in the
    run they surface."""
    try:
        return handler(args)
    except DriftCertificateError as exc:
        print(f"schedule certificate failed, no trace written: {exc}", file=sys.stderr)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _cmd_track(args) -> int:
    summary = run_tracking(ExperimentConfig.from_json(args.config), args.out)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_json(args.config)
    with open(args.grid) as fh:
        grid = json.load(fh)
    rows = run_sweep(grid, config, args.out)
    print(json.dumps({"spec_version": __version__, "cells": rows}, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, master_seed=args.master_seed)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_VIOLATION


def _cmd_bound(args) -> int:
    try:
        exps = bounds.ExponentTriple(float(args.gamma_p), args.gamma_alpha, args.gamma_pi)
        if args.constants:
            with open(args.constants) as fh:
                consts = bounds.Thm2Constants.from_spec(json.load(fh))
        else:
            consts = bounds.Thm2Constants(r_max_eff=1.0, rho=0.5, beta=0.5)
        report = bounds.tracking_error_bound(consts, exps, args.T)
    except ArithmeticError as exc:  # a config error like any other, named as an overflow
        raise ValueError(f"the bound overflows at these constants ({exc})") from None
    print(json.dumps({**report, "spec_version": __version__}, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    return _run_config({"track": _cmd_track, "sweep": _cmd_sweep,
                        "bound": _cmd_bound}[args.command], args)


if __name__ == "__main__":
    sys.exit(main())

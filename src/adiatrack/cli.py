"""Command line entry point.

    adiatrack track  --config cfg.json --out dir
    adiatrack sweep  --grid grid.json --config cfg.json --out dir
    adiatrack verify --suite prop1 [--master-seed N]
    adiatrack bound  --constants consts.json --gamma-p X --gamma-alpha Y \
                     --gamma-pi Z --T N

Exit codes: 0 pass, 1 property violation, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, chains, verify
from .harness import SPEC_VERSION, ExperimentConfig, run_sweep, run_tracking
from .schedules import GAMMA_INF, DriftCertificateError

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


def _run_config(run) -> int:
    """Run a track/sweep body: the errors caught here stem from the config,
    the grid or the paths given, wherever in the run they surface."""
    try:
        return run()
    except DriftCertificateError as exc:
        print(f"schedule certificate failed, no trace written: {exc}", file=sys.stderr)
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _cmd_track(args) -> int:
    def run():
        summary = run_tracking(ExperimentConfig.from_json(args.config), args.out)
        print(json.dumps(summary, sort_keys=True))
        return EXIT_OK
    return _run_config(run)


def _cmd_sweep(args) -> int:
    def run():
        config = ExperimentConfig.from_json(args.config)
        with open(args.grid) as fh:
            grid = chains._json_object(json.load(fh), "grid")
        rows = run_sweep(grid, config, args.out)
        print(json.dumps({"spec_version": SPEC_VERSION, "cells": rows}, sort_keys=True))
        return EXIT_OK
    return _run_config(run)


def _cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, master_seed=args.master_seed)
    print(json.dumps(report, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_VIOLATION


def _cmd_bound(args) -> int:
    try:
        gamma_p = GAMMA_INF if args.gamma_p == "inf" else float(args.gamma_p)
        exps = bounds.ExponentTriple(gamma_p, args.gamma_alpha, args.gamma_pi)
        if args.constants:
            with open(args.constants) as fh:
                consts = bounds.Thm2Constants.from_spec(json.load(fh))
        else:
            consts = bounds.Thm2Constants(r_max_eff=1.0, rho=0.5, beta=0.5)
        report = bounds.tracking_error_bound(consts, exps, args.T)
        # strict JSON: a term that overflowed to inf is refused, not printed as Infinity
        out = json.dumps({**report.to_json(), "spec_version": SPEC_VERSION}, sort_keys=True,
                         allow_nan=False)
    except ArithmeticError as exc:
        print(f"config error: the bound overflows at these constants ({exc})", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(out)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"track": _cmd_track, "sweep": _cmd_sweep,
               "verify": _cmd_verify, "bound": _cmd_bound}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

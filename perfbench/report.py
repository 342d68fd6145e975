"""Run every workload once and print one table of their end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/report.py [--seed N] [--seconds S]

Each workload runs in its own process (peak RSS is per process) through
run.py; the table is read back from the result files run.py writes.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import NAMES, OUT  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    failed = 0
    print(f"{'workload':<20}{'metric':<16}{'unit':>6}{'median':>13}{'q1':>13}{'q3':>13}{'n':>5}")
    for name in NAMES:
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", "0"], check=True, stdout=subprocess.DEVNULL)
        with open(OUT / f"result-{name}-seed{args.seed}-trace0.json") as fh:
            result = json.load(fh)
        failed += result["failed"]
        for metric, row in result["table"].items():
            print(f"{name:<20}{metric:<16}{row['unit']:>6}{row['median']:>13.6g}"
                  f"{row['q1']:>13.6g}{row['q3']:>13.6g}{row['n']:>5}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

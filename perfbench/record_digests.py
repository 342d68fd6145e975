"""Record the output digest of one checked operation per (workload, seed).

Usage (from the repository root):

    python3 perfbench/record_digests.py FIRST_SEED LAST_SEED

Writes perfbench/digests.json, which run.py compares every operation's
output bytes against.  Only an operation that passes its check is recorded.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy loads)

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    digests = {}
    work_dir = run.OUT / "record"
    shutil.rmtree(work_dir, ignore_errors=True)
    for name in run.NAMES:
        digests[name] = {}
        for seed in range(first, last + 1):
            op = run.run_op(workloads.make(name, seed), work_dir / f"{name}-{seed}")
            if op["problem"]:
                print(f"{name} seed {seed} failed its check; not recorded", file=sys.stderr)
                return 1
            digests[name][str(seed)] = op["digest"]
            print(name, seed, op["digest"], flush=True)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""adiatrack benchmark: one workload, one seed, a fixed measuring time.

Usage (from the repository root):

    python3 perfbench/run.py --workload track-adiabatic --seed 1 --seconds 20 --trace 0

A closed loop of one caller in this single-threaded process repeats one
operation of the workload until --seconds have passed, after one untimed
warm-up operation.  Every operation is checked (workloads.py).  Set-up is
timed in fresh processes (probe_setup.py), several per run.

The host's speed drifts by tens of percent within seconds, so each
operation and each set-up probe is preceded by a fixed reference task
(numpy and Python only, no adiatrack code), and the end-to-end times are
reported at the reference speed: measured time * REF_TASK_S / the reference
task's time right before it.  The raw times are printed alongside.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half with the layer wrappers of tracer.py installed, and
prints the per-layer metrics with the tracing overhead.  Each run prints a
table of its metrics (median, quartiles, sample count) and the machine
facts, writes the full result and any span records under .perfbench/, and
ends its output with one JSON line.
"""

import os

# Pin every BLAS / OpenMP pool to one thread before numpy loads: numpy's
# OpenBLAS would otherwise start one thread per core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
NAMES = ("track-adiabatic", "track-q", "sweep-short", "verify-fixedpoint")
SETUP_PROBES = 5
# The reference task's time at the reference speed: it defines the unit of
# the scaled times (close to its fastest time on the machine it was sized on).
REF_TASK_S = 0.015

# Per-layer self times, summed per group, for the dominant-layer line.
LAYER_GROUPS = {
    "schedules+chains": ("schedules.walk_s", "schedules.cert_scan_s",
                         "chains.stationary_s", "chains.rho_s"),
    "learners": ("learners.kernel_s", "learners.materialize_s"),
    "dp": ("dp.target_s",),
    "harness": ("harness.self_s", "harness.io_s"),
    "bounds": ("bounds.bound_s",),
    "verify": ("verify.self_s",),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_pin": {var: os.environ[var] for var in THREAD_VARS},
            "caches": caches}


def quartiles(values) -> tuple:
    """(median, q1, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def reference_task() -> float:
    """Seconds for fixed work like the workloads': small numpy calls and a Python loop.

    400 validated 2x2 stationary solves and a 16000-step TD(0)-style table
    update, written with numpy and Python alone, so no change to adiatrack
    can change this task.
    """
    rows = np.array([[0.9, 0.1], [0.2, 0.8]])
    rhs = np.array([0.0, 1.0])
    started = time.perf_counter()
    for _ in range(400):
        p = np.array(rows, dtype=float)
        if p.min() < 0.0 or np.abs(p.sum(axis=1) - 1.0).max() > 1e-12:
            raise ArithmeticError("reference matrix is not stochastic")
        a = p.T - np.eye(2)
        a[-1, :] = 1.0
        pi = np.linalg.solve(a, rhs)
        if 0.5 * float(np.abs(pi @ p - pi).sum()) > 1e-12:
            raise ArithmeticError("reference solve is inaccurate")
    table, cum, x = [0.0, 0.0], [0.9, 1.0], 0
    for t in range(1, 16001):
        u = (t * 0.6180339887498949) % 1.0
        xn = 0
        while xn < 1 and cum[xn] <= u:
            xn += 1
        table[x] += 0.5 / t ** 0.6 * (1.0 - x + 0.5 * table[xn] - table[x])
        x = xn
    if not 0.0 < table[0] < 2.0:
        raise ArithmeticError("reference update left the value ball")
    return time.perf_counter() - started


def scaled(seconds: float, ref_s: float) -> float:
    """A measured time at the reference speed."""
    return seconds * REF_TASK_S / ref_s


def time_setup(config) -> list:
    """(raw seconds, reference-task seconds) of each cold set-up probe."""
    text = "" if config is None else json.dumps(config)
    samples = []
    for _ in range(SETUP_PROBES):
        ref_s = reference_task()
        done = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), str(SRC)],
                              input=text, capture_output=True, text=True, timeout=120,
                              check=True)
        samples.append((float(done.stdout.strip().splitlines()[-1]), ref_s))
    return samples


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def run_op(wl, out_dir: Path, tracer=None) -> dict:
    """One checked operation after a reference task.

    Returns its raw and scaled wall time, failure (or None), digest, bytes.
    """
    out_dir.mkdir(parents=True)
    ref_s = reference_task()
    if tracer:
        tracer.begin_op()
    started = time.perf_counter()
    try:
        result = wl.run(out_dir)
        problem = None
    except Exception:  # an operation that raises is a failed operation
        problem = traceback.format_exc()
    wall = time.perf_counter() - started
    if tracer:
        tracer.end_op()
    digest, checks = None, 0
    if problem is None:
        try:
            problem = wl.check(result, out_dir)
            digest = wl.digest(result, out_dir)
            checks = wl.checks(result)
        except Exception:  # unreadable output fails the check
            problem = traceback.format_exc()
    op = {"wall_s": wall, "ref_s": ref_s, "scaled_s": scaled(wall, ref_s),
          "problem": problem, "digest": digest, "checks": checks,
          "io_bytes": dir_bytes(out_dir)}
    shutil.rmtree(out_dir)
    if problem:
        print(f"operation failed: {problem}", file=sys.stderr)
    return op


def run_loop(wl, seconds, work_dir: Path, tracer=None) -> list:
    """Checked operations until `seconds` have passed."""
    ops = []
    started = time.perf_counter()
    while not ops or time.perf_counter() - started < seconds:
        ops.append(run_op(wl, work_dir / f"op{len(ops)}", tracer))
    return ops


def layer_metrics(tracer, traced_ops, untraced_ops) -> dict:
    """Per-layer numbers, each a mean per traced operation."""
    n = len(tracer.ops)

    def per_op(table, *keys):
        return sum(op[table].get(key, 0) for op in tracer.ops for key in keys) / n

    kernel_s = per_op("self_s", "learners.kernel")
    steps = per_op("counts", "learners.steps")
    q_solves = per_op("counts", "dp.q_solves")
    traced_wall = statistics.fmean(op["wall_s"] for op in traced_ops)
    return {
        "schedules.walk_s": (per_op("self_s", "schedules.walk"), "s"),
        "schedules.walk_calls": (per_op("calls", "schedules.walk"), "count"),
        "schedules.cert_scan_s": (per_op("self_s", "schedules.cert_scan"), "s"),
        "chains.stationary_s": (per_op("self_s", "chains.stationary"), "s"),
        "chains.stationary_calls": (per_op("calls", "chains.stationary"), "count"),
        "chains.rho_s": (per_op("self_s", "chains.rho"), "s"),
        "chains.rho_calls": (per_op("calls", "chains.rho"), "count"),
        "learners.kernel_s": (kernel_s, "s"),
        "learners.steps": (steps, "count"),
        "learners.steps_per_s": (steps / kernel_s if kernel_s else 0.0, "1/s"),
        "learners.materialize_s": (per_op("self_s", "learners.materialize"), "s"),
        "learners.materialize_bytes": (per_op("counts", "learners.materialize_bytes"),
                                       "bytes"),
        "dp.target_s": (per_op("self_s", "dp.target"), "s"),
        "dp.target_calls": (per_op("calls", "dp.target"), "count"),
        "dp.q_sweeps_per_solve": (per_op("counts", "dp.bellman_g") / q_solves
                                  if q_solves else 0.0, "sweeps"),
        "bounds.bound_s": (per_op("self_s", "bounds"), "s"),
        "harness.self_s": (per_op("self_s", "harness"), "s"),
        "harness.io_s": (per_op("self_s", "harness.io"), "s"),
        "harness.io_bytes": (statistics.fmean(op["io_bytes"] for op in traced_ops), "bytes"),
        "verify.self_s": (per_op("self_s", "verify"), "s"),
        "verify.checks": (statistics.fmean(op["checks"] for op in traced_ops), "count"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_frac": (statistics.median(op["scaled_s"] for op in traced_ops)
                                / statistics.median(op["scaled_s"] for op in untraced_ops)
                                - 1.0, "1"),
    }


def end_to_end_table(wl, setup, untraced, ops) -> dict:
    """Every end-to-end metric, raw and scaled, as median, quartiles and count."""
    failed = sum(1 for op in ops if op["problem"])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [op["scaled_s"] for op in untraced]
    rows = [("setup_s", "s", [scaled(t, ref) for t, ref in setup]),
            ("setup_raw_s", "s", [t for t, _ in setup]),
            ("wall_s", "s", walls),
            ("wall_raw_s", "s", [op["wall_s"] for op in untraced]),
            (f"{wl.work_unit}_per_s", "1/s", [wl.work / w for w in walls]),
            ("ref_task_s", "s", [op["ref_s"] for op in untraced]),
            ("peak_rss_mb", "MB", [rss_mb]),
            ("fail_frac", "1", [failed / len(ops)] * len(ops))]
    table = {}
    for name, unit, samples in rows:
        med, q1, q3 = quartiles(samples)
        table[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "n": len(samples)}
    return table


def digest_counts(recorded, ops) -> dict:
    counts = {"match": 0, "differ": 0, "unrecorded": 0}
    for op in ops:
        if op["digest"] is not None:
            key = ("unrecorded" if recorded is None
                   else "match" if op["digest"] == recorded else "differ")
            counts[key] += 1
    return counts


def print_table(table):
    cols = ("median", "q1", "q3")
    print(f"{'metric':<16}{'unit':>6}" + "".join(f"{c:>13}" for c in cols) + f"{'n':>5}")
    for name, row in table.items():
        print(f"{name:<16}{row['unit']:>6}" + "".join(f"{row[c]:>13.6g}" for c in cols)
              + f"{row['n']:>5}")


def print_layers(layers, n_ops):
    traced_wall = layers["trace.wall_s"][0]
    print(f"layers: mean per traced operation over {n_ops} operations")
    for name, (value, unit) in layers.items():
        share = f"{100 * value / traced_wall:6.1f} %" if unit == "s" else ""
        print(f"  {name:<28}{unit:>7}{value:>14.6g}  {share}")
    groups = {group: sum(layers[name][0] for name in names)
              for group, names in LAYER_GROUPS.items()}
    print("dominant layer: " + max(groups, key=groups.get) + "  " + ", ".join(
        f"{g}={100 * v / traced_wall:.1f}%" for g, v in groups.items()))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "adiatrack" / "__init__.py").is_file():
        print(f"no adiatrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads

    facts = machine_facts()
    wl = workloads.make(args.workload, args.seed)
    setup = time_setup(wl.config)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)

    warmup = run_op(wl, work_dir / "warmup")
    tracer = None
    if args.trace:
        untraced = run_loop(wl, args.seconds / 2, work_dir / "untraced")
        tracer = tracing.Tracer()
        tracer.install()
        try:
            timed = run_loop(wl, args.seconds / 2, work_dir / "traced", tracer)
        finally:
            tracer.remove()
        ops = [warmup] + untraced + timed
    else:
        untraced = timed = run_loop(wl, args.seconds, work_dir / "untraced")
        ops = [warmup] + timed
    shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for op in ops if op["problem"])
    table = end_to_end_table(wl, setup, untraced, ops)
    digests = digest_counts(workloads.recorded_digest(args.workload, args.seed), ops)
    print(f"perfbench {tag} seconds={args.seconds:g} "
          f"work={wl.work} {wl.work_unit}/op closed loop, 1 caller")
    print("machine " + json.dumps(facts, sort_keys=True))
    print_table(table)
    print("output digests vs recorded: " + ", ".join(f"{k}={v}" for k, v in digests.items()))

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": facts, "work_per_op": wl.work,
              "work_unit": wl.work_unit, "ref_task_s_at_reference_speed": REF_TASK_S,
              "setup_samples": [{"raw_s": t, "ref_s": ref} for t, ref in setup],
              "untraced_ops": [{k: op[k] for k in ("wall_s", "ref_s", "scaled_s")}
                               for op in untraced],
              "ops": len(ops), "failed": failed, "digests": digests, "table": table}
    metrics = {name: (table[key]["median"], table[key]["unit"]) for name, key in (
        ("setup_s", "setup_s"), ("wall_s", "wall_s"),
        ("work_per_s", f"{wl.work_unit}_per_s"), ("peak_rss_mb", "peak_rss_mb"))}
    if tracer:
        metrics = layer_metrics(tracer, timed, untraced)
        print_layers(metrics, len(tracer.ops))
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
        tracer.write(OUT / f"spans-{tag}.json")
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The oracles CI reports, one subcommand per step of .github/workflows/tests.yml,
each printing that step's lines of the run's summary; none gates CI.

    python scripts/oracle.py size|verify|memory|rate|gate|separation|fixture
    python scripts/oracle.py bytes REV        # byte oracle: this tree against revision REV
    python scripts/oracle.py files ROOT OUT   # the byte oracle's files for the tree at ROOT

`bytes HEAD^1` checks a commit, `bytes HEAD` uncommitted work; both sides read
configs/ from this script's tree.  The functions take their sizes as arguments;
the command line runs CI's, in COMMANDS."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _timed(f, *args, **kw):
    """f(*args, **kw) and its wall seconds."""
    start = time.perf_counter()
    result = f(*args, **kw)
    return result, time.perf_counter() - start


def _python(*args, **kw):
    """A fresh Python process on args, stdout captured, adiatrack from this tree."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    return subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, env=env, **kw)


def _sci(t):
    """1_000_000 as "1e6"."""
    return f"{t:.0e}".replace("e+0", "e").replace("e+", "e")


def _cli(*args, stdout=None):
    """adiatrack.cli.main(args) in this process, its stderr swallowed and its stdout
    too unless written to the open file stdout: the exit code."""
    from adiatrack import cli
    with contextlib.redirect_stdout(stdout or io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(args))


def _config(name):
    """configs/<name>.json of this script's tree."""
    with open(os.path.join(ROOT, "configs", f"{name}.json")) as fh:
        return json.load(fh)


def size():
    """wc -l of the modules, of scripts/*.py and the workflow, and of configs/*.json;
    per module its __all__'s size and the parameters with a default of the public
    functions and classes it defines and of their public methods; the root's
    re-exports."""
    import adiatrack, glob, importlib, inspect, pkgutil, types
    for files in (glob.glob("src/adiatrack/*.py", root_dir=ROOT),
                  glob.glob("scripts/*.py", root_dir=ROOT) + [".github/workflows/tests.yml"],
                  glob.glob("configs/*.json", root_dir=ROOT)):
        print(subprocess.run(["wc", "-l", *sorted(files)], stdout=subprocess.PIPE, text=True,
                             cwd=ROOT).stdout, end="")

    def knobs(f):
        try:
            return sum(p.default is not p.empty for p in inspect.signature(f).parameters.values())
        except ValueError:  # a class with a builtin constructor
            return 0
    for m in pkgutil.iter_modules(adiatrack.__path__):
        mod = importlib.import_module("adiatrack." + m.name)
        own = [v for n, v in vars(mod).items() if not n.startswith("_")
               and (inspect.isclass(v) or inspect.isfunction(v)) and v.__module__ == mod.__name__]
        own += [f for c in own if inspect.isclass(c) for n, f in vars(c).items()
                if not n.startswith("_") and inspect.isfunction(f)]
        print(m.name, len(getattr(mod, "__all__", [])), "names in __all__,",
              sum(map(knobs, own)), "parameters with a default")
    print("package root re-exports", sum(not n.startswith("_") and not isinstance(v, types.ModuleType)
                                         for n, v in vars(adiatrack).items()), "public names")


def verify_suites():
    """Each verify suite at its default counts through the CLI: its pass flag,
    wall seconds, the sha256 of its report (16 hex digits) and the report's
    worst_margin, so a digest that moves shows whether the margin moved."""
    import hashlib
    from adiatrack import verify
    for suite in sorted(verify.SUITES):
        proc, wall = _timed(_python, "-m", "adiatrack.cli", "verify", "--suite", suite)
        try:
            report = json.loads(proc.stdout)
            passed, margin = report["pass"], repr(report["worst_margin"])
            digest = hashlib.sha256(proc.stdout).hexdigest()[:16]
        except (ValueError, KeyError):
            passed, digest, margin = "error", "-", "-"
        print(f"{suite:<10} pass={passed!s:<5} {wall:6.1f} s  sha256={digest}  "
              f"worst_margin={margin}")


def memory(t_max, n_seeds):
    """One adiabatic run at T = t_max with n_seeds seeds in this process, and
    its peak RSS: a run's memory should not grow with its horizon."""
    import resource
    from adiatrack.harness import ExperimentConfig, run_tracking
    doc = _config("adiabatic")
    doc = {**doc, "t_max": t_max, "seeds": {**doc["seeds"], "count": n_seeds}}
    with tempfile.TemporaryDirectory() as out:
        _, wall = _timed(run_tracking, ExperimentConfig.from_dict(doc), out)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"adiabatic, T = {_sci(t_max)}, {n_seeds} seeds: {wall:.1f} s wall, ru_maxrss {rss:.0f} MB")


def rate():
    """Steps/s (T x seeds) of one learners.track call, no output, on the
    adiabatic TD(0) and static Q configs (T = 1e5, 20 seeds)."""
    from adiatrack import learners
    from adiatrack.harness import ExperimentConfig
    for name, file in [("adiabatic TD(0)", "adiabatic"), ("static Q", "static_q")]:
        cfg = ExperimentConfig.from_dict(_config(file))
        schedule, spec, rate, noise = cfg.build()
        _, wall = _timed(learners.track, schedule, spec, [rate], noise, cfg.t_max, cfg.seeds,
                         cfg.checkpoints, cfg.x0, cfg.n_actions)
        print(f"{name}, T = {cfg.t_max}, {len(cfg.seeds)} seeds: "
              f"{cfg.t_max * len(cfg.seeds) / wall:,.0f} steps/s ({wall:.2f} s wall)")


def gate(t_max):
    """Ten runs at T = t_max with 20 seeds through cli.main in this process: exit
    code, wall seconds, and whether the out dir was written (none should be).
    `track` and `sweep` on a certificate failing at t = 1 (c_pi = 0.9) exit 2 after the
    scan alone.  `track` on a floor c_pi = 0.3 first failing at t = 91,381, in
    the walk's 45th block, times a mid-horizon failure (the walk of 44 blocks,
    the scan on to T) and exits 2; a shorter horizon exits 0.  `track` and
    `sweep` with x0 = 5 on a 2-state chain, `track` with a rate lacking
    c_alpha, "c_p": Infinity (a token the hash cannot write), gamma_pi = 0.5
    against gamma_alpha = 0.6, uniform-iid noise of eps_max = 1e308 (a draw
    span beyond the floats) or zero noise of eps_max = 0.5 (an envelope that
    draws nothing) are refused before the scan: exit 2 at once."""
    static, adiabatic = ({**_config(name), "t_max": t_max} for name in ("static_td", "adiabatic"))
    params = adiabatic["schedule"]["params"]
    edit = lambda doc=adiabatic, **kw: {**doc, "schedule": {**doc["schedule"], **kw}}
    noise = lambda kind, eps_max: {**adiabatic, "noise": {"kind": kind, "eps_max": eps_max}}
    failing = {"c_p": 1.0, "gamma_p": "inf", "c_pi": 0.9, "gamma_pi": 0.0}
    cases = [("track", "failing certificate", edit(static, params=failing)),
             ("sweep", "failing certificate", edit(params={**params, "c_pi": 0.9})),
             ("track", "certificate failing at t = 91,381", edit(
                 params={**params, "c_p": 0.002, "c_pi": 0.3}, p_end=[[0.95, 0.05], [0.5, 0.5]])),
             ("track", "x0 = 5", {**adiabatic, "x0": 5}), ("sweep", "x0 = 5", {**adiabatic, "x0": 5}),
             ("track", "rate without c_alpha", {**adiabatic, "rate": {"gamma_alpha": 0.6}}),
             ("track", "c_p Infinity", edit(params={**params, "c_p": float("inf")})),
             ("track", "gamma_pi = 0.5", edit(params={**params, "gamma_pi": 0.5})),
             ("track", "eps_max = 1e308", noise("uniform-iid", 1e308)),
             ("track", "zero noise, eps_max = 0.5", noise("zero", 0.5))]
    for command, name, doc in cases:
        with tempfile.TemporaryDirectory() as tmp:
            cfg, grid, out = (os.path.join(tmp, f) for f in ("cfg.json", "grid.json", "out"))
            for path, content in ((cfg, doc), (grid, {"gamma_p": [1.0], "gamma_alpha": [0.6]})):
                with open(path, "w") as fh:
                    json.dump(content, fh)
            args = [command, "--config", cfg, "--out", out, *(["--grid", grid] * (command == "sweep"))]
            code, wall = _timed(_cli, *args)
            print(f"{command} {name}, T = {_sci(t_max)}, {static['seeds']['count']} seeds: exit "
                  f"{code}, {wall:.2f} s wall, out dir written: {os.path.exists(out)}")


def files(out, log, t_max, noisy_t_max, sweep_t_max):
    """The byte oracle's files, written into out by the adiatrack on sys.path: the
    four acceptance configs (configs/, T = t_max, 20 seeds); the adiabatic and
    static Q ones with uniform-iid noise (eps_max = 0.3, x0 = 1, T = noisy_t_max,
    5 seeds), the only runs through the noise draws; sweep-short's grid (gamma_p
    in {1.0, 0.3, inf} x gamma_alpha in {0.6, 0.8}) around the adiabatic and the
    diabatic config (T = sweep_t_max, 4 seeds); what `adiatrack bound` prints at
    gamma_p in {1.0, 0.3, inf} (gamma_alpha 0.6, gamma_pi 0, T = 1e5) and at
    gamma_p 1.0 with a constants file kept outside out; the verify reports at
    master seed 1.  Each verify.run_suite call logs a "suite seconds" line."""
    from adiatrack import verify
    from adiatrack.harness import ExperimentConfig, run_sweep, run_tracking
    docs = {name: _config(name) for name in ("static_td", "adiabatic", "diabatic", "static_q")}
    adiabatic, diabatic, static_q = docs["adiabatic"], docs["diabatic"], docs["static_q"]
    for name, doc in docs.items():
        run_tracking(ExperimentConfig.from_dict({**doc, "t_max": t_max}), os.path.join(out, name))
    for name, doc in [("adiabatic-noisy", adiabatic), ("static_q-noisy", static_q)]:
        doc = {**doc, "noise": {"kind": "uniform-iid", "eps_max": 0.3}, "x0": 1,
               "t_max": noisy_t_max, "seeds": {**doc["seeds"], "count": 5}}
        run_tracking(ExperimentConfig.from_dict(doc), os.path.join(out, name))
    for name, doc in [("sweep", adiabatic), ("sweep-diabatic", diabatic)]:
        base = {**doc, "t_max": sweep_t_max, "seeds": {"base": 101, "count": 4}}
        run_sweep({"gamma_p": [1.0, 0.3, "inf"], "gamma_alpha": [0.6, 0.8]},
                  ExperimentConfig.from_dict(base), os.path.join(out, name))
    bound = ["bound", "--gamma-alpha", "0.6", "--gamma-pi", "0", "--T", "100000", "--gamma-p"]
    with tempfile.TemporaryDirectory() as tmp:
        consts = os.path.join(tmp, "consts.json")
        with open(consts, "w") as fh:
            json.dump({"r_max_eff": 2.0, "rho": 0.8, "beta": 0.9, "d_a": 0.5, "k": 3.0,
                       "delta": 0.01, "tau_coeff": 8.0}, fh)
        for name, args in [("1.0", ["1.0"]), ("0.3", ["0.3"]), ("inf", ["inf"]),
                           ("1.0-constants", ["1.0", "--constants", consts])]:
            with open(os.path.join(out, f"bound-gp{name}.json"), "w") as fh:
                _cli(*bound, *args, stdout=fh)
    for suite in sorted(verify.SUITES):
        report, wall = _timed(verify.run_suite, suite, 1)
        print(suite, wall, file=log, flush=True)
        with open(os.path.join(out, f"verify-{suite}-seed1.json"), "w") as fh:
            json.dump(report, fh, sort_keys=True)


def compare(new, old):
    """Print the files each side (label, out dir, log) wrote, diff -r's verdict and
    each verify suite's seconds on both sides; return whether the dirs match."""
    count = [sum(len(names) for *_, names in os.walk(d)) for _, d, _ in (new, old)]
    print(f"files written: {new[0]} {count[0]}, {old[0]} {count[1]}")
    diff = subprocess.run(["diff", "-rq", old[1], new[1]], capture_output=True, text=True)
    print(f"diff -r {old[0]} {new[0]}:", "identical" if diff.returncode == 0
          else f"{len((diff.stdout + diff.stderr).splitlines())} files differ or are missing")
    times = [dict(line.split() for line in log.splitlines()) for *_, log in (new, old)]
    show = lambda side, suite: f"{float(side[suite]):6.2f} s" if suite in side else "     -  "
    for suite in sorted(times[0].keys() | times[1].keys()):
        print(f"verify {suite:<10} master seed 1: {new[0]} {show(times[0], suite)}"
              f"  {old[0]} {show(times[1], suite)}")
    return diff.returncode == 0


def bytes_oracle(rev):
    """The byte oracle's files at CI's sizes for this working tree (labelled
    HEAD, or "working tree" when rev is HEAD) and for a detached git worktree
    of rev, each from its own source in its own process, then compare's lines;
    the worktree goes even when a side fails.  Exit 1 when a side fails or
    the files differ."""
    with tempfile.TemporaryDirectory() as tmp:
        head, parent, tree = (os.path.join(tmp, d) for d in ("head", "parent", "tree"))
        label = "working tree" if rev == "HEAD" else "HEAD"
        sides = [(label, head, _python(__file__, "files", ROOT, head, text=True))]
        git = lambda *args: subprocess.run(["git", "-C", ROOT, "worktree", *args],
                                           stdout=subprocess.DEVNULL)
        try:
            proc = git("add", "--detach", tree, rev)
            if not proc.returncode:
                proc = _python(__file__, "files", tree, parent, text=True)
            sides.append((rev, parent, proc))
        finally:
            git("remove", "--force", tree)
        failed = [label for label, _, proc in sides if proc.returncode]
        print("".join(f"the run at {label} failed\n" for label in failed), end="")
        same = compare(*[(label, out, proc.stdout or "") for label, out, proc in sides])
    return 0 if same and not failed else 1


def separation(t_max):
    """The separation experiment, `adiatrack sweep` of configs/separation_grid.json
    around configs/adiabatic.json at T = t_max through cli.main: each cell's
    regime, final median error and slope from its sweep.csv, then the exit code
    and wall seconds, a record of sweep time."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out, rows = os.path.join(tmp, "adiabatic.json"), os.path.join(tmp, "out"), []
        with open(cfg, "w") as fh:
            json.dump({**_config("adiabatic"), "t_max": t_max}, fh)
        grid = os.path.join(ROOT, "configs", "separation_grid.json")
        code, wall = _timed(_cli, "sweep", "--grid", grid, "--config", cfg, "--out", out)
        if not code:
            with open(os.path.join(out, "sweep.csv")) as fh:
                rows = list(csv.DictReader(fh))
    for row in rows:
        print(f"{row['cell']}  regime={row['regime']:<9} final_median="
              f"{float(row['final_median_error']):.5f} slope={float(row['slope']):+.3f}")
    print(f"adiatrack sweep: exit {code}, {wall:.1f} s wall")


def fixture():
    """scripts/reference_recursion.py rerun (about 7 s): the top-level fields that
    differ from the frozen fixture ("thresholds" is frozen by hand; "static_q"
    may move by rounding, its frozen targets came from value iteration) and
    static_q's largest difference.  Exit 1, after the wall line, when the rerun
    fails."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "reference.json")
        proc, wall = _timed(_python, os.path.join(ROOT, "scripts", "reference_recursion.py"), path)
        if proc.returncode:
            print("reference_recursion.py failed")
        print(f"reference_recursion.py: {wall:.1f} s wall")
        if proc.returncode:
            return 1
        with open(path) as fh:
            fresh = json.load(fh)
    with open(os.path.join(ROOT, "tests", "fixtures", "tracking_reference.json")) as fh:
        frozen = json.load(fh)
    differ = sorted(k for k in fresh.keys() | frozen.keys() if fresh.get(k) != frozen.get(k))
    gap = max(abs(a - b) for a, b in zip(fresh["static_q"]["checkpoint_medians"],
                                         frozen["static_q"]["checkpoint_medians"]))
    print("fields that differ from the frozen fixture:", ", ".join(differ) or "none")
    print(f"static_q: largest checkpoint-median difference {gap:.3g}")


# CI's sizes; files: T of the acceptance runs, the noisy runs and the sweeps
COMMANDS = {"size": size, "verify": verify_suites, "memory": lambda: memory(1_000_000, 4),
            "rate": rate, "gate": lambda: gate(1_000_000),
            "separation": lambda: separation(100_000), "fixture": fixture, "bytes": bytes_oracle,
            "files": lambda root, out: files(out, sys.stdout, 100_000, 5_000, 500)}

if __name__ == "__main__":
    command, *args = sys.argv[1:] or [""]
    if command not in COMMANDS or len(args) != COMMANDS[command].__code__.co_argcount:
        sys.exit(__doc__)
    root = args[0] if command == "files" else ROOT
    sys.path.insert(0, os.path.join(root, "src"))
    sys.exit(COMMANDS[command](*args))

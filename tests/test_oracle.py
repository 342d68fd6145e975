"""scripts/oracle.py, the oracles CI reports, at horizons small enough for
Tier-1: the source size, the certificate gate, the separation experiment, and
the byte oracle's side for this tree (no git worktree) with its comparison
lines."""

import glob
import importlib.util
import io
import os
import re
import shutil
import subprocess
import types

from adiatrack import verify

_SPEC = importlib.util.spec_from_file_location(
    "oracle", os.path.join(os.path.dirname(__file__), "..", "scripts", "oracle.py"))
oracle = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(oracle)


def test_size_prints_the_source_total_and_no_root_re_exports(capsys):
    oracle.size()
    lines = capsys.readouterr().out.splitlines()
    modules = glob.glob(os.path.join(oracle.ROOT, "src", "adiatrack", "*.py"))
    total = sum(open(path).read().count("\n") for path in modules)
    assert [line.split() for line in lines if line.endswith(" total")][0] == [str(total), "total"]
    assert lines[-1] == "package root re-exports 0 public names"
    # one line per module, in name order, with the package's modules it imports
    names = sorted(os.path.basename(path)[:-3] for path in modules if "__init__" not in path)
    rows = [re.fullmatch(r"(\w+) \d+ names in __all__, \d+ parameters with a default; "
                         r"imports (none|\w+(?:, \w+)*)", line)
            for line in lines[-1 - len(names):-1]]
    assert all(rows) and [row[1] for row in rows] == names
    imported = {row[1]: row[2] for row in rows}
    assert (imported["chains"], imported["bounds"]) == ("none", "chains")
    assert imported["verify"] == "bounds, chains, dp, schedules"


def test_rate_prints_steps_per_second_and_the_first_blocks_tables(capsys):
    oracle.rate(2000)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line, name in zip(lines, ["adiabatic TD(0)", "static Q"]):
        assert re.fullmatch(re.escape(name) + r", T = 2000, 20 seeds: [\d,]+ steps/s "
                            r"\(\d+\.\d\d s wall\), "
                            r"first block's successor tables \d+\.\d\d ms \(\d+ steps\)", line), line


def test_gate_cases_exit_2_and_write_nothing_but_the_mid_horizon_one(capsys):
    # below t = 91,381 the path whose floor fails there runs to T and exits 0
    oracle.gate(2000)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    for line in lines:
        mid_horizon = "certificate failing at t = 91,381" in line
        exit_code, written = ("0", "True") if mid_horizon else ("2", "False")
        assert re.fullmatch(rf"(track|sweep) .+, T = 2e3, 20 seeds: exit {exit_code}, "
                            rf"\d+\.\d\d s wall, out dir written: {written}", line), line


def test_separation_prints_one_line_per_grid_cell(capsys):
    oracle.separation(2000)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and re.fullmatch(r"adiatrack sweep: exit 0, \d+\.\d s wall", lines[3])
    for line, (gp, regime) in zip(lines, [("0.3", "diabatic "), ("1.0", "adiabatic"),
                                          ("inf", "adiabatic")]):
        assert re.fullmatch(rf"gp={gp}\|ga=0\.6\|gpi=0\.0  regime={regime} "
                            r"final_median=0\.\d{5} slope=[+-]\d\.\d{3}", line), line


def test_byte_oracle_side_writes_every_file_and_compares(tmp_path, capsys, monkeypatch):
    # two cheap suites stand for the seven: the side's files are 158 run
    # files, four bound reports and one report per suite
    monkeypatch.setattr(verify, "SUITES", {s: verify.SUITES[s] for s in ("coverage", "mixing")})
    log = io.StringIO()
    oracle.files(tmp_path / "head", log, 1000, 100, 100)
    assert [line.split()[0] for line in log.getvalue().splitlines()] == ["coverage", "mixing"]
    shutil.copytree(tmp_path / "head", tmp_path / "parent")
    parent = ("HEAD^1", tmp_path / "parent", "coverage 0.5\n")  # a side that stopped early
    assert oracle.compare(("HEAD", tmp_path / "head", log.getvalue()), parent)
    (tmp_path / "parent" / "verify-mixing-seed1.json").write_text("{}")
    assert not oracle.compare(("HEAD", tmp_path / "head", log.getvalue()), parent)
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["files written: HEAD 164, HEAD^1 164", "diff -r HEAD^1 HEAD: identical"]
    assert re.fullmatch(r"verify coverage   master seed 1: HEAD +\d+\.\d\d s  HEAD\^1   0\.50 s",
                        lines[2])
    assert re.fullmatch(r"verify mixing     master seed 1: HEAD +\d+\.\d\d s  HEAD\^1      -  ",
                        lines[3])
    assert lines[5] == "diff -r HEAD^1 HEAD: 1 files differ or are missing"


def test_byte_oracle_against_head_keeps_the_working_tree_side_apart(monkeypatch, capsys):
    # both sides write the same file; the working tree's run fails, the run
    # at HEAD's worktree passes: each side keeps its own exit status and log
    def python(script, command, root, out, text):
        os.makedirs(out)
        with open(os.path.join(out, "run.csv"), "w") as fh:
            fh.write("t\n")
        here = root == oracle.ROOT
        return subprocess.CompletedProcess([], int(here), f"coverage {0.5 if here else 0.25}\n")

    git = lambda args, **kw: (subprocess.CompletedProcess(args, 0) if args[0] == "git"
                              else subprocess.run(args, **kw))
    monkeypatch.setattr(oracle, "_python", python)
    monkeypatch.setattr(oracle, "subprocess", types.SimpleNamespace(
        run=git, PIPE=subprocess.PIPE, DEVNULL=subprocess.DEVNULL))
    assert oracle.bytes_oracle("HEAD") == 1
    assert capsys.readouterr().out.splitlines() == [
        "the run at working tree failed", "files written: working tree 1, HEAD 1",
        "diff -r HEAD working tree: identical",
        "verify coverage   master seed 1: working tree   0.50 s  HEAD   0.25 s"]


def test_verify_prints_each_suites_worst_margin_next_to_its_digest(monkeypatch, capsys):
    # two cheap suites stand for the seven; each margin is its report's, at the
    # default seed, and the CLI call's wall stands beside the suite's in-process seconds
    monkeypatch.setattr(verify, "SUITES", {s: verify.SUITES[s] for s in ("coverage", "mixing")})
    oracle.verify_suites()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line, suite in zip(lines, ("coverage", "mixing")):
        margin = verify.run_suite(suite)["worst_margin"]
        assert re.fullmatch(rf"{suite} +pass=True +\d+\.\d s  in-process +\d+\.\d\d s  "
                            rf"sha256=[0-9a-f]{{16}}  worst_margin={re.escape(repr(margin))}",
                            line), line


def test_fixture_exits_1_when_the_rerun_fails(monkeypatch, capsys):
    # the rerun writes nothing: no traceback from reading its missing output
    monkeypatch.setattr(oracle, "_python",
                        lambda *args, **kw: subprocess.CompletedProcess(args, 1, b""))
    assert oracle.fixture() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "reference_recursion.py failed"
    assert re.fullmatch(r"reference_recursion.py: \d+\.\d s wall", lines[1]) and len(lines) == 2

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


def test_gate_cases_exit_2_and_write_nothing_but_the_mid_horizon_one(capsys):
    # below t = 91,381 the path whose floor fails there runs to T and exits 0
    oracle.gate(2000)
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10
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

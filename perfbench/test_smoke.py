"""Smoke tests of the benchmark itself.

Every workload, at reduced size, passes every check in both modes, the
traced replay reproduces the command line's fused bytes, each mode prints
exactly the metrics BENCHMARK.json declares, and the benchmark refuses to
run without the source tree.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

SMALL = {
    "bands": {"objects": 4, "frames": 120},
    "crowd": {"scenarios": 3, "frames": 120},
    "gappy": {"frames": 600},
}


def test_declared_workloads_match():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w.why for name, w in run.WORKLOADS.items()}
    assert set(SMALL) == set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_small_workload_passes_every_check(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "STARTUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    w = dataclasses.replace(run.WORKLOADS[name], **SMALL[name])

    plain = run.run_workload(w, seed=3, seconds=0, trace=False)
    traced = run.run_workload(w, seed=3, seconds=0, trace=True)

    for kind, out in (("end_to_end", plain), ("per_layer", traced)):
        result = out["result"]
        assert result["failed"] == 0, out["report"]["problems"]
        assert result["correct"] and result["attempted"] > 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        assert {m: e["unit"] for m, e in result["metrics"].items()} == declared
    assert traced["report"]["sha256"] == plain["report"]["sha256"]
    assert (tmp_path / name / "replay.txt").read_bytes() == (
        tmp_path / name / "fused.txt"
    ).read_bytes()
    filled = traced["result"]["metrics"]["interpolate.boxes_filled"]["value"]
    assert (filled > 0) == ("--interpolate" in w.merge_flags)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bands", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

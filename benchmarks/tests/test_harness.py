"""Fast checks of the benchmark harness on tiny versions of its workloads."""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict, replace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import bench  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    CONTRACT = json.load(fh)


def tiny(name):
    w = WORKLOADS[name]
    config = {**w.config, "n_cells": (4, 4)}
    # 4x4 cells are far from the exact solution, but not by 0.5
    checks = {**w.checks, "l2_error": 0.5} if "l2_error" in w.checks \
        else w.checks
    if "snapshot_grid" in config:
        config["snapshot_grid"] = 8
    return replace(w, config=config, steps=5, checks=checks)


def units(kind):
    return {m["name"]: m["unit"] for m in CONTRACT[kind]}


def test_contract_names_the_workloads_and_sizes_them_for_p90():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    for w in WORKLOADS.values():
        # p90 over the pooled steps needs ten samples beyond it
        assert w.steps * bench.MIN_REPEATS >= 100


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, monkeypatch):
    monkeypatch.setattr(bench, "MIN_REPEATS", 1)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, record = bench.measure(tiny(name), seed=1, seconds=0,
                                       trace=trace)
        assert result["correct"], record["problems"]
        assert result["failed"] == 0 and result["attempted"] >= 5
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == units(kind)
        assert all(isinstance(v["value"], (int, float))
                   for v in result["metrics"].values())
        assert record["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert set(record["dofs"]) == {"n0", "n1", "n2"}


def _run(name, tmp_path):
    from flowforms import runner
    spec = asdict(tiny(name))
    cfg = worker.sim_config(spec, str(tmp_path))
    res = runner.run(cfg)
    assert worker.check_run(spec, cfg, res) == []
    return spec, cfg, res


def _bump_last(field, factor):
    def corrupt(res):
        rec = res.records[-1]
        setattr(rec, field, getattr(rec, field) * factor)
    return corrupt


def _shift_velocity(res):
    res.u.coeffs += 0.5


def _truncate(path):
    with open(path) as fh:
        lines = fh.readlines()
    with open(path, "w") as fh:
        fh.writelines(lines[:-1])


CORRUPTIONS = {
    "div_l2": _bump_last("div_l2", 1e6),
    "momentum_drift": _bump_last("momentum", 1.0 + 1e-6),
    "energy_drift": _bump_last("energy", 1.0 + 1e-6),
    "l2_error": _shift_velocity,
    "steps, expected": lambda res: setattr(res, "steps", res.steps - 1),
    "aborted": lambda res: setattr(res, "failed", True),
    "diagnostics file": lambda res: _truncate(res.diagnostics_path),
}


@pytest.mark.parametrize("message", list(CORRUPTIONS))
def test_checks_fire_on_a_corrupted_run(tmp_path, message):
    spec, cfg, res = _run("tg_advect", tmp_path)
    CORRUPTIONS[message](res)
    assert any(message in p for p in worker.check_run(spec, cfg, res))


def test_checks_fire_on_corrupted_snapshots(tmp_path):
    spec, cfg, res = _run("dsl_output", tmp_path)
    last = res.snapshot_paths[-1]
    with open(last) as fh:
        lines = fh.read().splitlines()
    cols = lines[-1].split()
    cols[2] = repr(float(cols[2]) + 1e-6)     # u_x at the last point
    lines[-1] = " ".join(cols)
    with open(last, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("last snapshot" in p
               for p in worker.check_run(spec, cfg, res))
    _truncate(res.snapshot_paths[0])
    assert any("lines" in p for p in worker.check_run(spec, cfg, res))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "tg_advect",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

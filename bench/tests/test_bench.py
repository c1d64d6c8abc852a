"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import losspool.cli  # noqa: E402
import losspool.oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _small_solve(tmp_path, p="1.3"):
    losses = workloads.crop_losses(7, crops=1, side=64)[0]
    path = tmp_path / "losses.json"
    path.write_text(json.dumps(losses.tolist()))
    return workloads.solve_command(path, losses, p, "25%")


@pytest.mark.parametrize("p", ["1", "1.3"])
def test_correct_solve_output_passes(tmp_path, p):
    _, outcome = run.execute(_small_solve(tmp_path, p), tmp_path / "out")
    assert outcome.cause is None
    assert not (tmp_path / "out").exists()


def test_corrupted_solve_output_counts_as_failed(tmp_path, monkeypatch):
    real_solve = losspool.cli.solve_pool

    def corrupted(values, config):
        outcome = real_solve(values, config)
        return dataclasses.replace(outcome, pooled_loss=outcome.pooled_loss * (1 + 1e-9))

    monkeypatch.setattr(losspool.cli, "solve_pool", corrupted)
    _, outcome = run.execute(_small_solve(tmp_path), tmp_path / "out")
    assert outcome.cause is not None and "pooled" in outcome.cause


def test_untraced_run_leaves_every_module_attribute_unwrapped(tmp_path, monkeypatch):
    targets = [
        (sys.modules[module], attribute) for module, attribute, _, _ in spans.TARGETS
    ]
    originals = [getattr(module, attribute) for module, attribute in targets]
    real_main = losspool.cli.main
    seen = []

    def spy(argv):
        seen.append([getattr(m, a) for m, a in targets] == originals)
        return real_main(argv)

    monkeypatch.setattr(losspool.cli, "main", spy)
    workload = workloads.TrainDemo(0, tmp_path)
    record = run.run_workload(workload, 0.0, False, tmp_path)
    assert seen == [True] and not record.traced_walls

    seen.clear()
    record = run.run_workload(workload, 0.0, True, tmp_path)
    assert seen == [False, True]  # cycle 0 runs its traced command first
    assert [getattr(m, a) for m, a in targets] == originals
    assert record.layers["solver.solve_pool.calls"] == 3200
    assert record.trace_problems == []


def test_changed_output_of_a_repeated_command_counts_as_failed():
    record = run.RunRecord()
    for digest in ("a", "a", "b"):
        record.add(0.1, run.Outcome("solve x", None, digest, 1), traced=False)
    assert record.attempted == 3
    assert record.failures == [("solve x", "output differs from an earlier run of the same command")]


def test_tracer_reports_what_would_read_as_zero(monkeypatch):
    monkeypatch.delattr(losspool.oracle, "kkt_residual")
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    tracer._wrap(object, "oracle.scan_dual_alpha", spans._count_scan)()
    tracer.drain()
    problems = tracer.problems(["oracle.scan_dual_alpha", "sampler.pick_crop"])
    assert problems == [
        "target losspool.oracle.kkt_residual is missing",
        "cannot count oracle.scan_dual_alpha: 'object' object has no attribute 'iterations'",
        "layer sampler.pick_crop was never called",
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "audit", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

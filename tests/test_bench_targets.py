"""The benchmark's trace targets and imports exist in the program.

``bench/spans.py`` times the program by replacing module attributes, and
the other bench scripts import names from ``losspool``; a refactor that
renames one of them would otherwise show up only in a benchmark run.
``spans.py`` imports only the standard library, so it is loaded here
straight from its file; the other scripts are only parsed.  A short traced
``train-demo`` and ``oracle-audit`` check that the tracer can time and count
every sampler, solver and oracle layer, as a traced benchmark run would.
"""

import ast
import importlib.util
import json
from pathlib import Path

from losspool.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_callable_attribute():
    targets = load_spans().TARGETS
    assert targets
    for module_name, attribute, _, _ in targets:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attribute, None)), (module_name, attribute)


def test_every_name_the_bench_imports_from_losspool_exists():
    imported = [
        (script.name, node.module, alias.name)
        for script in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(script.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "losspool"
        for alias in node.names
    ]
    assert any(name == "train" for _, _, name in imported)
    for script, module_name, name in imported:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), (script, module_name, name)


def test_a_traced_demo_times_and_counts_every_sampler_layer(tmp_path, capsys):
    config = tmp_path / "demo.json"
    config.write_text(json.dumps({"train": {"sampler": {"blend": 0.5, "epsilon": 0.01}}}))
    tracer = load_spans().Tracer()
    with tracer.installed():
        code = main(["train-demo", "--seeds", "1", "--modes", "uniform,lmp", "--iterations", "1",
                     "--config", str(config), "--output-dir", str(tmp_path / "out")])
    tracer.drain()
    assert code == 0
    layers = ["trainer.train", "sampler.sample_class", "sampler.pick_crop",
              "sampler.update_stats", "solver.solve_pool"]
    assert tracer.problems(layers) == []
    assert tracer.totals["solver.solve_pool"][0] == 1  # one segmented solve per lmp iteration
    crops = tracer.totals["sampler.update_stats"][0]
    assert crops == tracer.totals["sampler.sample_class"][0] == tracer.counts["sampler.picks"]
    # The longest IoU history is one run's crops; there is one run per mode.
    runs = tracer.totals["trainer.train"][0]
    assert runs == 2 and tracer.counts["sampler.iou_history_len"] * runs == crops > 0


def test_a_traced_audit_times_and_counts_every_oracle_layer(tmp_path, capsys):
    instances = 12  # enough draws of seed 0 to cover all five audit p
    tracer = load_spans().Tracer()
    with tracer.installed():
        code = main(["oracle-audit", "--instances", str(instances), "--output-dir", str(tmp_path)])
    tracer.drain()
    assert code == 0
    rows = json.loads((tmp_path / "audit_report.json").read_text())["rows"]
    assert {row["p"] for row in rows} == {1.1, 1.3, 1.7, 2.0, 4.0}
    layers = ["oracle.run_audit", "oracle.maximize_primal", "oracle.scan_dual_alpha",
              "oracle.kkt_residual", "solver.solve_pool"]
    assert tracer.problems(layers) == []
    # One block ascent, which counts one projection per instance.
    assert tracer.totals["oracle.maximize_primal"][0] == 1
    assert tracer.counts["oracle.ascent_iters"] == instances
    # One block scan, which counts its evaluations, about 67 per instance.
    assert tracer.totals["oracle.scan_dual_alpha"][0] == 1
    assert tracer.counts["oracle.scan_evals"] <= 70 * instances

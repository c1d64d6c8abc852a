"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` replaces the module attributes through which the program
calls from one layer into another (``losspool.trainer.solve_pool``,
``losspool.oracle.scan_dual_alpha``, ...) with timing wrappers, and puts the
originals back when the command ends.  Untraced runs never install it, so
they run the program unchanged.

Each call becomes a span (name, start, end, parent index) kept in memory.
A span's self time is its duration minus the durations of its direct child
spans; the process is single-threaded, so spans nest and no layer waits on
another.  Counters are read from the wrapped calls' results at the same
boundaries.  A target the program no longer has, a result that lacks a
counted field, or an expected layer that was never called is a problem
(:meth:`Tracer.problems`): the traced run then reports itself incorrect
rather than a layer time or count of zero.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from contextlib import contextmanager

__all__ = ["TARGETS", "Tracer", "layer_metrics"]


def _count_ascent(counts, result):
    counts["oracle.ascent_iters"] += result.iterations


def _count_scan(counts, result):
    counts["oracle.scan_evals"] += result.iterations


def _count_pixels(counts, result):
    counts["pixel_losses.pixels"] += len(result.losses)


def _count_pick(counts, result):
    counts["sampler.picks"] += 1
    counts["sampler.fallbacks"] += bool(result.fallback)


def _count_history(counts, result):
    # The longest IoU history any run held: state that grows per crop.
    length = len(result.iou_history)
    counts["sampler.iou_history_len"] = max(counts["sampler.iou_history_len"], length)


# (module, attribute the program looks up, span name, counter).  A target
# the program no longer has is skipped and recorded as missing.
TARGETS = (
    ("losspool.cli", "read_losses", "cli.read_losses", None),
    ("losspool.cli", "solve_pool", "solver.solve_pool", None),
    ("losspool.cli", "run_audit", "oracle.run_audit", None),
    ("losspool.cli", "generate_dataset", "trainer.generate_dataset", None),
    ("losspool.cli", "train", "trainer.train", None),
    ("losspool.cli", "save_model", "trainer.save_model", None),
    ("losspool.oracle", "solve_pool", "solver.solve_pool", None),
    ("losspool.oracle", "maximize_primal", "oracle.maximize_primal", _count_ascent),
    ("losspool.oracle", "scan_dual_alpha", "oracle.scan_dual_alpha", _count_scan),
    ("losspool.oracle", "kkt_residual", "oracle.kkt_residual", None),
    ("losspool.trainer", "SegBatch", "pixel_losses.SegBatch", None),
    ("losspool.trainer", "softmax_xent", "pixel_losses.softmax_xent", _count_pixels),
    ("losspool.trainer", "backprop_pooled", "pixel_losses.backprop_pooled", None),
    ("losspool.trainer", "sample_class", "sampler.sample_class", None),
    ("losspool.trainer", "pick_crop", "sampler.pick_crop", _count_pick),
    ("losspool.trainer", "update_stats", "sampler.update_stats", _count_history),
    ("losspool.trainer", "solve_pool", "solver.solve_pool", None),
    ("losspool.trainer", "evaluate", "trainer.evaluate", None),
)


class Tracer:
    """Collects spans of traced commands and folds them into per-name totals."""

    def __init__(self):
        self.spans: list = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.uncounted: set[str] = set()
        self._stack: list[int] = []

    def _open(self, name):
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def _close(self, index, start, end):
        self._stack.pop()
        name, _, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)

    @contextmanager
    def span(self, name):
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def _wrap(self, fn, name, counter):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, clock())
            if counter is not None:
                try:
                    counter(self.counts, result)
                except (AttributeError, TypeError) as exc:
                    self.uncounted.add(f"{name}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        replaced = []
        try:
            for module_name, attribute, name, counter in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute, None)
                if original is None:
                    if f"{module_name}.{attribute}" not in self.missing:
                        self.missing.append(f"{module_name}.{attribute}")
                    continue
                setattr(module, attribute, self._wrap(original, name, counter))
                replaced.append((module, attribute, original))
            yield self
        finally:
            for module, attribute, original in reversed(replaced):
                setattr(module, attribute, original)

    def drain(self) -> None:
        """Fold the recorded spans into the totals and forget them."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, covered):
            row = self.totals.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        self.spans.clear()

    def problems(self, expected_layers) -> list[str]:
        """Why the per-layer figures cannot be trusted; empty when they can."""
        found = [f"target {target} is missing" for target in self.missing]
        found += [f"cannot count {what}" for what in sorted(self.uncounted)]
        found += [
            f"layer {name} was never called"
            for name in expected_layers if name not in self.totals
        ]
        return found


# Per-layer metric name -> unit.  Times, calls and counts are per traced
# command; the ratios and the history length are over the whole run.
PER_LAYER_UNITS = {
    "cli.read_losses.s": "s",
    "cli.self.s": "s",
    "cli.bytes_written": "bytes",
    "solver.solve_pool.s": "s",
    "solver.solve_pool.calls": "count",
    "oracle.run_audit.self.s": "s",
    "oracle.maximize_primal.s": "s",
    "oracle.ascent_iters": "count",
    "oracle.scan_dual_alpha.s": "s",
    "oracle.scan_evals": "count",
    "oracle.kkt_residual.s": "s",
    "pixel_losses.softmax_xent.s": "s",
    "pixel_losses.backprop_pooled.s": "s",
    "pixel_losses.SegBatch.s": "s",
    "pixel_losses.pixels": "count",
    "sampler.sample_class.s": "s",
    "sampler.pick_crop.s": "s",
    "sampler.update_stats.s": "s",
    "sampler.fallback_ratio": "ratio",
    "sampler.iou_history_len": "count",
    "trainer.train.self.s": "s",
    "trainer.evaluate.s": "s",
    "trainer.generate_dataset.s": "s",
    "trainer.save_model.s": "s",
    "trace.overhead_ratio": "ratio",
}


def layer_metrics(
    tracer: Tracer, commands: int, bytes_written: int, overhead_ratio: float
) -> dict[str, float]:
    """Every per-layer metric of a traced run of ``commands`` commands."""
    def total(name, column=1):
        return tracer.totals.get(name, [0, 0.0, 0.0])[column] / commands

    counts = tracer.counts
    picks = counts["sampler.picks"]
    values = {
        "cli.self.s": total("cli.main", 2),
        "cli.bytes_written": bytes_written / commands,
        "solver.solve_pool.calls": total("solver.solve_pool", 0),
        "oracle.run_audit.self.s": total("oracle.run_audit", 2),
        "oracle.ascent_iters": counts["oracle.ascent_iters"] / commands,
        "oracle.scan_evals": counts["oracle.scan_evals"] / commands,
        "pixel_losses.pixels": counts["pixel_losses.pixels"] / commands,
        "sampler.fallback_ratio": counts["sampler.fallbacks"] / picks if picks else 0.0,
        "sampler.iou_history_len": counts["sampler.iou_history_len"],
        "trainer.train.self.s": total("trainer.train", 2),
        "trace.overhead_ratio": overhead_ratio,
    }
    return {
        name: values[name] if name in values else total(name[: -len(".s")])
        for name in PER_LAYER_UNITS
    }

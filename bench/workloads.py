"""Workloads of the losspool benchmark: seeded inputs, commands and checks.

Each workload turns the benchmark seed into input files and an endless
series of command cycles.  A command is one ``losspool`` invocation (its
argv without ``--output-dir``), the number of items it completes and a check
of the files it writes.  Commands with equal labels read equal inputs, so
they must write equal files.  ``layers`` names the spans a traced run of the
workload must record at least once.

* ``solve-crop`` pools one paper-scale crop, 512 x 512 = 262,144 losses whose
  2 MB arrays overflow L2.  The losses are the program's own: per-pixel cross
  entropies of a partly trained model (see :func:`crop_losses`).  A cycle
  covers the hard top-m path (p = 1) and the float64 threshold scan
  (p = 1.3, the trainer default), each on a CSV and on a JSON-array input.
  CLI parsing and formatting and the large-n solver do nearly all the work.
* ``audit`` runs the solver-against-oracles audit on its own seeded
  instances (n <= 50).  The oracles take nearly all the time, so a large-n
  solver optimisation should show no change here.
* ``train-demo`` runs the paired-seed training demo in the uniform and lmp
  modes with the complementary sampler on.  It is the only workload that
  exercises the pixel losses, the sampler and the trainer, and it calls the
  solver thousands of times at n <= 144.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from losspool.cli import parse_pooling
from losspool.oracle import constraint_violation, kkt_residual
from losspool.pixel_losses import SegBatch, softmax_xent
from losspool.trainer import SyntheticDatasetSpec, TrainConfig, generate_dataset, train

from forked import in_child

__all__ = ["Command", "WORKLOADS", "crop_losses", "solve_command"]

CROP_SIDE = 512
CROP_PAIRS = 2
# The crop model trains for a quarter of the trainer's default 80 iterations.
CROP_MODEL_ITERATIONS = 20
SOLVE_SETTINGS = (("1", "25%"), ("1.3", "25%"))
AUDIT_INSTANCES = 100
DEMO_SEEDS_PER_COMMAND = 5
DEMO_MODES = ("uniform", "lmp")
DEMO_CONFIG = {"train": {"sampler": {"blend": 0.5, "epsilon": 0.01}}}

# Tolerances of the solve check; the audit uses the same KKT and
# feasibility limits.
DOT_REL_TOL = 1e-12
VIOLATION_TOL = 1e-8
KKT_TOL = 1e-6


@dataclass(frozen=True)
class Command:
    """One CLI invocation: ``check(out_dir)`` returns a failure cause or None."""

    label: str
    argv: tuple[str, ...]
    items: int
    check: Callable[[Path], str | None]


def _write_floats(path: Path, values: np.ndarray, head: str, sep: str, tail: str) -> None:
    """Write ``values`` at 17 significant digits, which read back exactly."""
    path.write_text(head + sep.join(map("{:.17g}".format, values.tolist())) + tail)


def crop_losses(seed: int, crops: int = 2, side: int = CROP_SIDE) -> np.ndarray:
    """Per-pixel cross entropies of a partly trained model on seeded crops.

    ``losspool.trainer.train`` fits the demo's linear softmax model to the
    default synthetic dataset (``SyntheticDatasetSpec()``, seed 0) for a
    quarter of the default schedule (``CROP_MODEL_ITERATIONS``; mean IoU
    0.55 against 0.71 when fully trained).  The model is the same for every
    seed; the seed draws the crops, the ``side`` x ``side`` images of a
    dataset of the default spec seeded ``seed + 1``, so they have its class
    shares, noise and blob layout.  A pixel's loss depends only on its own
    feature and label, so these are the losses the trainer pools, at paper
    scale: most pixels near 0, a long tail up to about 17.  At p = 1.3 and
    m = 25% about 23% of the pixels are in the support.  Returns
    ``[crops, side * side]``.
    """
    model = train(
        generate_dataset(SyntheticDatasetSpec()), TrainConfig(iterations=CROP_MODEL_ITERATIONS)
    ).model_weights
    data = generate_dataset(
        SyntheticDatasetSpec(image_size=(side, side), images=max(crops, 2), seed=seed + 1)
    )
    losses = np.empty((crops, side * side))
    for k in range(crops):
        features = data.features[k].reshape(side * side, -1)
        logits = np.concatenate([features, np.ones((side * side, 1))], axis=1) @ model
        losses[k] = softmax_xent(SegBatch(logits=logits, labels=data.labels[k].ravel())).losses
    return losses


def _read_json(path: Path):
    try:
        return json.loads(path.read_text()), None
    except (OSError, ValueError) as exc:
        return None, f"{path.name} does not parse: {exc}"


def check_solve(out_dir: Path, losses: np.ndarray, p: str, m: str) -> str | None:
    """The solution is feasible, optimal to KKT tolerance and self-consistent."""
    doc, cause = _read_json(out_dir / "losspool_solve.json")
    if cause:
        return cause
    try:
        pooled = float(doc["pooled_loss"])
        weights = np.asarray(doc["weights"], dtype=np.float64)
        dual = np.asarray(doc["dual"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        return f"solution lacks a valid field: {exc!r}"
    if weights.shape != losses.shape or dual.shape != losses.shape:
        return f"weights {weights.shape} / dual {dual.shape} for {losses.size} losses"
    mean = float(losses.mean())
    if not pooled >= mean:
        return f"pooled {pooled!r} below the mean {mean!r}"
    dot = float(weights @ losses)
    if not abs(dot - pooled) <= DOT_REL_TOL * abs(pooled):
        return f"weights . losses = {dot!r} but pooled = {pooled!r}"
    config = parse_pooling(p, m)
    violation = constraint_violation(weights, config.resolve(losses.size))
    if not violation <= VIOLATION_TOL:
        return f"constraint violation {violation!r}"
    if config.p > 1.0:
        scale = float(losses.max())
        residual = kkt_residual(dual / scale, losses / scale, config)
        if not residual <= KKT_TOL:
            return f"KKT residual {residual!r}"
    return None


def solve_command(path: Path, losses: np.ndarray, p: str, m: str) -> Command:
    return Command(
        label=f"solve {path.name} p={p} m={m}",
        argv=("solve", "--losses", str(path), "--p", p, "--m", m),
        items=losses.size,
        check=partial(check_solve, losses=losses, p=p, m=m),
    )


class SolveCrop:
    """Two pairs of seeded crops, each pair one CSV (with header) and one JSON array.

    Cycle k solves pair ``k % 2``.  With a single pair, the program's peak
    memory depends on how that pair's values happen to fragment the heap:
    it ranged from 94.7 to 100.8 MB across seeds.  Alternating two pairs
    brings every seed to the same peak (105.7 to 105.8 MB over six seeds).
    """

    layers = ("cli.main", "cli.read_losses", "solver.solve_pool")

    def __init__(self, seed: int, input_dir: Path):
        array_path = input_dir / "crops.npy"
        # Training the crop model and building the crops take far more memory
        # than a solve command; in a child, they stay out of peak_rss_mb.
        in_child(partial(self.write_inputs, seed, input_dir, array_path))
        crops = np.load(array_path)
        (p1, m1), (p2, m2) = SOLVE_SETTINGS
        self.cycles = []
        for pair in range(CROP_PAIRS):
            csv_path, json_path = self.paths(input_dir, pair)
            csv_losses, json_losses = crops[2 * pair], crops[2 * pair + 1]
            self.cycles.append([
                solve_command(csv_path, csv_losses, p1, m1),
                solve_command(json_path, json_losses, p2, m2),
                solve_command(csv_path, csv_losses, p2, m2),
                solve_command(json_path, json_losses, p1, m1),
            ])

    @staticmethod
    def paths(input_dir: Path, pair: int) -> tuple[Path, Path]:
        return input_dir / f"crop{pair}.csv", input_dir / f"crop{pair}.json"

    @classmethod
    def write_inputs(cls, seed: int, input_dir: Path, array_path: Path) -> None:
        crops = crop_losses(seed, crops=2 * CROP_PAIRS)
        for pair in range(CROP_PAIRS):
            csv_path, json_path = cls.paths(input_dir, pair)
            _write_floats(csv_path, crops[2 * pair], "loss\n", "\n", "\n")
            _write_floats(json_path, crops[2 * pair + 1], "[", ", ", "]\n")
        np.save(array_path, crops)

    def cycle(self, k: int) -> list[Command]:
        return self.cycles[k % CROP_PAIRS]


def check_audit(out_dir: Path) -> str | None:
    doc, cause = _read_json(out_dir / "audit_report.json")
    if cause:
        return cause
    if doc.get("all_passed") is not True:
        failed = [row.get("index") for row in doc.get("rows", []) if not row.get("passed")]
        return f"audit failed on instances {failed[:10]}"
    return None


class Audit:
    """Command k audits the instances of seed ``10**6 * seed + k``."""

    layers = ("cli.main", "oracle.run_audit", "solver.solve_pool", "oracle.maximize_primal",
              "oracle.scan_dual_alpha", "oracle.kkt_residual")

    def __init__(self, seed: int, input_dir: Path):
        self.seed = seed

    def cycle(self, k: int) -> list[Command]:
        audit_seed = 10**6 * self.seed + k
        return [
            Command(
                label=f"oracle-audit seed={audit_seed}",
                argv=("oracle-audit", "--instances", str(AUDIT_INSTANCES),
                      "--seed", str(audit_seed)),
                items=AUDIT_INSTANCES,
                check=check_audit,
            )
        ]


def check_demo(out_dir: Path, seeds: list[int]) -> str | None:
    """Every run reports a finite loss history and IoUs in [0, 1]."""
    for seed in seeds:
        for mode in DEMO_MODES:
            stem = f"{mode}_seed{seed}"
            report, cause = _read_json(out_dir / f"report_{stem}.json")
            if cause:
                return cause
            try:
                history = [float(x) for x in report["loss_history"]]
                ious = [float(x) for x in report["per_class_iou"]] + [
                    float(report["mean_iou"])
                ]
                iterations = int(report["config_echo"]["iterations"])
            except (KeyError, TypeError, ValueError) as exc:
                return f"report_{stem}.json lacks a valid field: {exc!r}"
            if len(history) != iterations or not all(map(math.isfinite, history)):
                return f"report_{stem}.json: bad loss history"
            if not all(0.0 <= iou <= 1.0 for iou in ious):
                return f"report_{stem}.json: IoU outside [0, 1]: {ious}"
            if not (out_dir / f"model_{stem}.bin").is_file():
                return f"model_{stem}.bin missing"
    if not (out_dir / "iou_by_class.csv").is_file():
        return "iou_by_class.csv missing"
    return None


class TrainDemo:
    """Command k trains five paired seeds, starting at ``5 * (10**4 * seed + k) + 1``.

    Seed 0 therefore starts with the demo's default seeds 1..5.  An item is
    one trained crop pixel at the trainer's default schedule.
    """

    layers = ("cli.main", "trainer.generate_dataset", "trainer.train", "trainer.evaluate",
              "trainer.save_model", "solver.solve_pool", "pixel_losses.SegBatch",
              "pixel_losses.softmax_xent", "pixel_losses.backprop_pooled",
              "sampler.sample_class", "sampler.pick_crop", "sampler.update_stats")

    def __init__(self, seed: int, input_dir: Path):
        self.seed = seed
        self.config_path = input_dir / "demo_config.json"
        self.config_path.write_text(json.dumps(DEMO_CONFIG) + "\n")
        schedule = TrainConfig()
        crop_h, crop_w = schedule.crop_size
        self.items_per_run = schedule.iterations * schedule.batch_crops * crop_h * crop_w

    def cycle(self, k: int) -> list[Command]:
        first = DEMO_SEEDS_PER_COMMAND * (10**4 * self.seed + k) + 1
        seeds = list(range(first, first + DEMO_SEEDS_PER_COMMAND))
        return [
            Command(
                label=f"train-demo seeds={first}..{seeds[-1]}",
                argv=("train-demo", "--seeds", ",".join(map(str, seeds)),
                      "--modes", ",".join(DEMO_MODES),
                      "--config", str(self.config_path)),
                items=len(seeds) * len(DEMO_MODES) * self.items_per_run,
                check=partial(check_demo, seeds=seeds),
            )
        ]


WORKLOADS = {"solve-crop": SolveCrop, "audit": Audit, "train-demo": TrainDemo}

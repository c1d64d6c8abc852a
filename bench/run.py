"""Benchmark of the losspool command line, driven in-process.

    python3 bench/run.py --workload {solve-crop,audit,train-demo} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source tree: the program is imported from ``src/``
next to this directory, never from an installed copy, and the run fails
(exit 2, no result line) when that source is missing.

One single-threaded process runs one workload (see ``workloads.py``).  It
generates the inputs from ``--seed``, then calls ``losspool.cli.main(argv)``
in cycles of commands until ``--seconds`` have passed.  Every command writes
into a fresh empty directory, made and removed outside the timed region, and
its output is checked; a command fails when it exits non-zero, fails the
check, or writes other bytes than an earlier command with the same label.
The check and the output digest run in a forked child (``forked.py``), so
the memory they take to parse the output never counts in ``peak_rss_mb``.

``--trace 0`` measures the end-to-end metrics with nothing installed:

* ``items_per_s`` -- items per second of timed ``main()`` wall time, the
  median over cycles.  An item is one pooled loss (solve-crop), one audited
  instance (audit) or one trained crop pixel (train-demo).
* ``peak_rss_mb`` -- peak resident memory of this process.
* ``setup_s`` -- set-up before the first timed command: a fresh import of
  the losspool package plus the input generation, the median of nine.
  numpy is imported once beforehand and not counted: its import is the
  environment's, and its time varies between processes by more than the
  rest of set-up takes.  Other modules losspool imports stay loaded after
  the first repeat, so the median leaves them out too.

``--trace 1`` runs each command twice, untraced and with the span tracer of
``spans.py`` installed, and reports the per-layer metrics.  It reports
itself incorrect when the tracer finds a problem (a missing target, an
uncountable result, a workload layer never called).  Both modes print
a readable table, a diagnostics line (environment, failed_ratio and its
causes, per-command wall times, sha256 digests of the output files with
their timing fields stripped) and, last, the result line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from forked import ChildFailed, in_child

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 9
# BLAS threads would make the process multi-threaded and noisier.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END_UNITS = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
# Timing fields that differ between identical runs; digests skip their lines.
_VOLATILE_LINE = re.compile(rb'^[ \t]*"(?:elapsed_seconds|wall_time)": [^\n]*\n', re.M)


class ProgramMissing(Exception):
    """The losspool source tree is not next to the benchmark."""


def find_program() -> None:
    """Put ``src/`` of this tree first on the path and check losspool is there."""
    sys.path.insert(0, str(SOURCE))
    spec = importlib.util.find_spec("losspool")
    origin = spec.origin if spec else None
    if origin is None or SOURCE not in Path(origin).resolve().parents:
        found = origin or "nowhere"
        raise ProgramMissing(f"losspool found {found}, not in {SOURCE}")


def set_up(name: str, seed: int, work_dir: Path):
    """Import losspool afresh and generate the inputs, ``SETUP_REPEATS`` times.

    Returns the last workload, and the import and generation seconds of
    every repeat.  The bench's own ``workloads`` module is imported again
    untimed each time, so that it binds to the fresh losspool.
    """
    import_times, generation_times = [], []
    for _ in range(SETUP_REPEATS):
        for module in [m for m in sys.modules if m.split(".")[0] in ("losspool", "workloads")]:
            del sys.modules[module]
        start = time.perf_counter()
        importlib.import_module("losspool.cli")
        import_times.append(time.perf_counter() - start)
        workloads = importlib.import_module("workloads")
        input_dir = work_dir / "inputs"
        shutil.rmtree(input_dir, ignore_errors=True)
        input_dir.mkdir()
        start = time.perf_counter()
        workload = workloads.WORKLOADS[name](seed, input_dir)
        generation_times.append(time.perf_counter() - start)
    return workload, import_times, generation_times


@dataclass
class Outcome:
    label: str
    cause: str | None
    digest: str
    bytes_written: int


def output_digest(out_dir: Path) -> tuple[str, int]:
    """sha256 over the output files' names and contents, and their total size."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        if path.suffix == ".json":
            data = _VOLATILE_LINE.sub(b"", data)
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest(), total


def execute(command, out_dir: Path, tracer=None) -> tuple[float, Outcome]:
    """Run one command into the empty ``out_dir``, check it, then remove it.

    Returns the timed wall seconds of ``main()`` and the outcome.
    """
    import losspool.cli as cli

    out_dir.mkdir()
    argv = [*command.argv, "--output-dir", str(out_dir)]
    stderr = io.StringIO()
    cause = None
    gc.collect()  # so no earlier garbage is collected inside the timed region
    with (tracer.installed() if tracer else nullcontext()), \
            redirect_stdout(io.StringIO()), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            with tracer.span("cli.main") if tracer else nullcontext():
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an internal error fails the command, not the run
            code, cause = None, f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    if tracer:
        tracer.drain()
    if cause is None and code != 0:
        cause = f"exit code {code}: {stderr.getvalue().strip()[-300:]}"
    try:
        cause, digest, written = in_child(partial(check_and_digest, command, out_dir, cause))
    except ChildFailed as exc:
        cause, digest, written = f"check raised {exc}", "", 0
    shutil.rmtree(out_dir)
    return wall, Outcome(command.label, cause, digest, written)


def check_and_digest(command, out_dir: Path, cause: str | None) -> list:
    """The command's failure cause (checking its output if it ran), digest and size."""
    if cause is None:
        cause = command.check(out_dir)
    return [cause, *output_digest(out_dir)]


@dataclass
class RunRecord:
    """Everything one benchmark run measured.

    It keeps no object per command: an object made just after a command can
    land in an arena among the command's freed objects and keep that arena
    resident, so per-command objects would inflate ``peak_rss_mb`` command
    after command.  Times go into arrays, outputs into one digest per label.
    """

    attempted: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    walls: array = field(default_factory=lambda: array("d"))
    traced_walls: array = field(default_factory=lambda: array("d"))
    traced_bytes: int = 0
    cycle_rates: array = field(default_factory=lambda: array("d"))
    layers: dict[str, float] | None = None
    trace_problems: list[str] = field(default_factory=list)

    def add(self, wall: float, outcome: Outcome, traced: bool) -> None:
        self.attempted += 1
        earlier = self.digests.setdefault(outcome.label, outcome.digest)
        if outcome.cause:
            self.failures.append((outcome.label, outcome.cause))
        elif outcome.digest != earlier:
            self.failures.append(
                (outcome.label, "output differs from an earlier run of the same command")
            )
        if traced:
            self.traced_walls.append(wall)
            self.traced_bytes += outcome.bytes_written
        else:
            self.walls.append(wall)


def run_workload(workload, seconds: float, trace: bool, work_dir: Path) -> RunRecord:
    """Run whole command cycles of ``workload`` until ``seconds`` have passed."""
    import spans

    record = RunRecord()
    tracer = spans.Tracer() if trace else None

    serial = 0
    cycle = 0
    deadline = time.perf_counter() + seconds
    while cycle == 0 or time.perf_counter() < deadline:
        commands = workload.cycle(cycle)
        first = len(record.walls)
        for command in commands:
            # A traced run pairs each command with an untraced one; which
            # goes first alternates, so neither always finds warmer caches.
            if tracer is None:
                modes = (None,)
            else:
                modes = (None, tracer) if cycle % 2 else (tracer, None)
            for mode in modes:
                serial += 1
                wall, outcome = execute(command, work_dir / f"out{serial}", mode)
                record.add(wall, outcome, traced=mode is not None)
        items = sum(command.items for command in commands)
        record.cycle_rates.append(items / sum(record.walls[first:]))
        cycle += 1

    if tracer:
        record.layers = spans.layer_metrics(
            tracer,
            len(record.traced_walls),
            record.traced_bytes,
            sum(record.traced_walls) / sum(record.walls),
        )
        record.trace_problems = tracer.problems(workload.layers)
    return record


def git_commit() -> str | None:
    """HEAD of the tree, or None when it is not a git checkout of its own."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: build.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARIABLES},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "seed": seed,
    }


def report(args, record: RunRecord, import_times, generation_times) -> dict:
    setup = [a + b for a, b in zip(import_times, generation_times)]
    end_to_end = {
        "items_per_s": statistics.median(record.cycle_rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup),
    }
    diagnostics = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "failed_ratio": len(record.failures) / record.attempted,
        "failures": [
            {"label": label, "cause": cause} for label, cause in record.failures[:20]
        ],
        "command_wall_s": {
            "median": statistics.median(record.walls), "count": len(record.walls)
        },
        "cycles": len(record.cycle_rates),
        "setup_import_s": import_times,
        "setup_generation_s": generation_times,
        "output_sha256": record.digests,
        "end_to_end": end_to_end,
        "trace_problems": record.trace_problems,
    }
    if args.trace:
        from spans import PER_LAYER_UNITS

        metrics = {
            k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in record.layers.items()
        }
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in end_to_end.items()}
    result = {
        "correct": not record.failures and not record.trace_problems,
        "attempted": record.attempted,
        "failed": len(record.failures),
        "metrics": metrics,
    }
    return {"diagnostics": diagnostics, "result": result}


def print_table(args, summary: dict) -> None:
    diagnostics, result = summary["diagnostics"], summary["result"]
    print(f"losspool benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    rows = [(k, v, END_TO_END_UNITS[k]) for k, v in diagnostics["end_to_end"].items()]
    rows.append(("failed_ratio", diagnostics["failed_ratio"], "ratio"))
    if args.trace:
        rows += [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    for name, value, unit in rows:
        print(f"  {name:<32} {value:>16.6g} {unit}")
    print(f"  {result['failed']} of {result['attempted']} commands failed")
    for failure in diagnostics["failures"]:
        print(f"  FAILED {failure['label']}: {failure['cause']}")
    for problem in diagnostics["trace_problems"]:
        print(f"  FAILED trace: {problem}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-crop", "audit", "train-demo"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    try:
        find_program()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import numpy  # noqa: F401  (imported before set-up is timed, see setup_s)

    work_dir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        workload, import_times, generation_times = set_up(args.workload, args.seed, work_dir)
        record = run_workload(workload, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    summary = report(args, record, import_times, generation_times)
    print_table(args, summary)
    print(json.dumps({"diagnostics": summary["diagnostics"]}))
    print(json.dumps(summary["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

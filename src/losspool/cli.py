"""Command-line surface for the pooling library.

Four subcommands:

* ``solve`` — pool one loss vector from a CSV/JSON file, write the full
  solution as JSON, print the pooled value.
* ``weight-curves`` — generate seeded losses and write a CSV of optimal
  weight profiles over a grid of (p, m) settings.
* ``oracle-audit`` — run the randomized solver-versus-oracle comparison and
  print a pass/fail table.
* ``train-demo`` — run the synthetic training comparison across paired
  seeds and loss modes, writing reports, models and an IoU table.

Exit codes are a stable contract: 0 success, 1 verification or training
failure, 2 malformed input data, 3 invalid parameters.  Every subcommand
accepts ``--config FILE`` with a JSON object of option defaults; explicit
flags win over the file.  The only environment variable consulted is
``LOSSPOOL_OUTPUT_DIR`` (default directory for output files).

Machine-readable files carry floats with 17 significant digits (exact for
64-bit reals); human-facing output rounds to 9.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .oracle import run_audit
from .solver import PoolingConfig, as_loss_vector, solve_pool
from .trainer import (
    SyntheticDatasetSpec,
    TrainConfig,
    TrainingDivergence,
    check_crop_pooling,
    class_pixel_counts,
    generate_dataset,
    save_model,
    train,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_BAD_PARAMS = 3


class InputDataError(ValueError):
    """Input file missing, unreadable, or holding invalid loss data."""


class ParameterError(ValueError):
    """Flags or config file violate a documented precondition."""


def _f17(x) -> str:
    return format(float(x), ".17g")


def _f9(x) -> str:
    return np.format_float_positional(
        float(x), precision=9, unique=False, fractional=False
    )


def _f9_sci(x) -> str:
    return np.format_float_scientific(float(x), precision=8, unique=False)


# Entries per piece when a 1-D array is streamed: only one piece's list and
# strings are alive at a time, not a string for every entry of the array.
_ARRAY_CHUNK = 4096


def _format_each(values):
    """Return an iterator over the text of each entry of a 1-D numeric array.

    Floats get 17 significant digits and integers their decimal digits,
    the same text ``_f17`` and ``str(int(x))`` give one scalar at a time.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return map(str, values.tolist())
    return map("{:.17g}".format, values.astype(np.float64, copy=False).tolist())


def _json_pieces(value, indent: int = 0):
    """Yield the JSON text of ``value`` piece by piece.

    The stdlib encoder offers no control over float formatting, so this
    walks the (dict/list/array/scalar) document itself.  Arrays and lists
    stay on one line with ", " between items; mappings are indented by two
    spaces per level.  A 1-D numeric array is formatted ``_ARRAY_CHUNK``
    entries at a time.
    """
    pad = " " * indent
    if isinstance(value, dict):
        if not value:
            yield "{}"
            return
        for position, (key, item) in enumerate(value.items()):
            yield ",\n" if position else "{\n"
            yield f"{pad}  {json.dumps(str(key))}: "
            yield from _json_pieces(item, indent + 2)
        yield "\n" + pad + "}"
    elif (
        isinstance(value, np.ndarray)
        and value.ndim == 1
        and value.dtype.kind in "iuf"
    ):
        yield "["
        for start in range(0, value.size, _ARRAY_CHUNK):
            if start:
                yield ", "
            yield ", ".join(_format_each(value[start:start + _ARRAY_CHUNK]))
        yield "]"
    elif isinstance(value, (list, tuple, np.ndarray)):
        yield "["
        for position, item in enumerate(value):
            if position:
                yield ", "
            yield from _json_pieces(item, indent)
        yield "]"
    elif isinstance(value, bool) or value is None:
        yield json.dumps(value)
    elif isinstance(value, (int, np.integer)):
        yield str(int(value))
    elif isinstance(value, (float, np.floating)):
        yield _f17(value)
    elif isinstance(value, str):
        yield json.dumps(value)
    else:
        raise TypeError(f"cannot serialise {type(value).__name__}")


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.writelines(_json_pieces(payload))
        out.write("\n")


def read_losses(path) -> np.ndarray:
    """Load a loss vector from CSV (one value per line) or a JSON array."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputDataError(f"cannot read losses file {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        raise InputDataError(f"losses file {path} is empty")
    if stripped.startswith("["):
        try:
            values = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputDataError(f"losses file {path}: invalid JSON: {exc}") from exc
        if not isinstance(values, list):
            raise InputDataError(f"losses file {path}: expected a JSON array")
        # One pass over the types, not a check per element; bool is its own
        # type, so true/false are rejected along with strings and null.
        if not set(map(type, values)) <= {int, float}:
            index, bad = next(
                (i, v) for i, v in enumerate(values) if type(v) not in (int, float)
            )
            raise InputDataError(
                f"losses file {path}: element {index} is not a number: "
                f"{json.dumps(bad)}"
            )
    else:
        values = []
        header_allowed = True  # the first non-blank line may be a header
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                if not header_allowed:
                    raise InputDataError(
                        f"losses file {path}, line {lineno}: not a number: {line!r}"
                    ) from None
            header_allowed = False
    try:
        return as_loss_vector(values)
    except (ValueError, OverflowError) as exc:
        raise InputDataError(f"losses file {path}: {exc}") from exc


def parse_pooling(p_token: str, m_token: str) -> PoolingConfig:
    """Build a PoolingConfig from command-line tokens.

    ``p`` accepts any float spelling including "inf".  ``m`` accepts an
    absolute count ("25") or a percentage of the valid pixels ("25%").
    """
    try:
        p = float(p_token)
    except ValueError:
        raise ParameterError(f"p must be a number or 'inf', got {p_token!r}") from None
    token = str(m_token).strip()
    try:
        if token.endswith("%"):
            kwargs = {"m_fraction": float(token[:-1]) / 100.0}
        else:
            kwargs = {"m": float(token)}
    except ValueError:
        raise ParameterError(
            f"m must be a number or a percentage like '25%', got {m_token!r}"
        ) from None
    try:
        return PoolingConfig(p=p, **kwargs)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc


def _load_config_file(path, allowed) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParameterError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in allowed:
            raise ParameterError(f"config file {path}: unknown key {key!r}")
    return data


def _merge_options(args: argparse.Namespace, defaults: dict) -> dict:
    """Layer defaults < config file < explicit flags."""
    provided = {
        key: value
        for key, value in vars(args).items()
        if key not in ("func", "config", "command")
    }
    from_file = {}
    if getattr(args, "config", None):
        from_file = _load_config_file(args.config, allowed=set(defaults))
    return {**defaults, **from_file, **provided}


def _option(merged: dict, key: str, convert):
    """``convert(merged[key])``, reporting a value it rejects as a parameter error."""
    try:
        return convert(merged[key])
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"bad {key} value {merged[key]!r}: {exc}") from None


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ParameterError(f"seeds must be non-negative, got {seed}")


def _output_dir(merged: dict) -> Path:
    configured = merged.get("output_dir") or os.environ.get("LOSSPOOL_OUTPUT_DIR")
    directory = Path(configured) if configured else Path(".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


# ---------------------------------------------------------------------------
# solve

_SOLVE_DEFAULTS = {
    "losses": None,
    "p": None,
    "m": None,
    "output": None,
    "output_dir": None,
}


def cmd_solve(args: argparse.Namespace) -> int:
    merged = _merge_options(args, _SOLVE_DEFAULTS)
    for required in ("losses", "p", "m"):
        if merged[required] is None:
            raise ParameterError(f"--{required} is required")
    values = read_losses(merged["losses"])
    config = parse_pooling(str(merged["p"]), str(merged["m"]))
    try:
        config.resolve(values.size)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc
    outcome = solve_pool(values, config)
    if not (math.isfinite(outcome.pooled_loss) and math.isfinite(outcome.alpha_star)):
        raise InputDataError(
            f"losses file {merged['losses']}: the solution leaves float64 range "
            f"(pooled_loss {outcome.pooled_loss!r}, alpha_star {outcome.alpha_star!r})"
        )

    payload = {
        "pooled_loss": outcome.pooled_loss,
        "alpha_star": outcome.alpha_star,
        "support_indices": outcome.support,
        "weights": outcome.weights,
        "dual": outcome.dual,
    }
    out_path = (
        Path(merged["output"])
        if merged["output"]
        else _output_dir(merged) / "losspool_solve.json"
    )
    _write_json(out_path, payload)
    print(_f9(outcome.pooled_loss))
    return EXIT_OK


# ---------------------------------------------------------------------------
# weight-curves

_CURVES_DEFAULTS = {
    "n": 100,
    "seed": 0,
    "p_list": "1,1.2,1.4,1.7,2,3,4,10,inf",
    "m_list": "33.33%",
    "output": None,
    "output_dir": None,
}


def cmd_weight_curves(args: argparse.Namespace) -> int:
    merged = _merge_options(args, _CURVES_DEFAULTS)
    n = _option(merged, "n", int)
    if n < 1:
        raise ParameterError(f"n must be at least 1, got {n}")
    seed = _option(merged, "seed", int)
    _check_seed(seed)
    p_tokens = [tok.strip() for tok in str(merged["p_list"]).split(",") if tok.strip()]
    m_tokens = [tok.strip() for tok in str(merged["m_list"]).split(",") if tok.strip()]
    if not p_tokens or not m_tokens:
        raise ParameterError("p-list and m-list must each name at least one value")

    # Jittered exponential quantiles: a long-tailed, strictly increasing
    # loss profile whose shape is stable across seeds, so the curve
    # geometry (cap onset, support growth) does not depend on a lucky draw.
    rng = np.random.default_rng(seed)
    quantiles = (np.arange(n) + rng.uniform(0.05, 0.95, size=n)) / n
    losses = 0.3 - np.log1p(-quantiles)

    columns = []
    for p_tok, m_tok in itertools.product(p_tokens, m_tokens):
        config = parse_pooling(p_tok, m_tok)
        try:
            config.resolve(n)  # surface parameter errors before any output
        except ValueError as exc:
            raise ParameterError(str(exc)) from exc
        outcome = solve_pool(losses, config)
        columns.append((f"w_p{p_tok}_m{m_tok}", outcome.weights))

    out_path = (
        Path(merged["output"])
        if merged["output"]
        else _output_dir(merged) / "weight_curves.csv"
    )
    out_path.parent.mkdir(parents=True, exist_ok=True)
    header = ["pixel_rank", "loss"] + [name for name, _ in columns]
    cells = [map(str, range(1, n + 1)), _format_each(losses)]
    cells += [_format_each(weights) for _, weights in columns]
    lines = [",".join(header)] + [",".join(row) for row in zip(*cells)]
    out_path.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(columns)} weight curves over {n} losses to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-audit

_AUDIT_DEFAULTS = {
    "instances": 500,
    "seed": 0,
    "rel_tol": 1e-4,
    "kkt_tol": 1e-6,
    "output_dir": None,
}


def cmd_oracle_audit(args: argparse.Namespace) -> int:
    merged = _merge_options(args, _AUDIT_DEFAULTS)
    instances = _option(merged, "instances", int)
    if instances < 1:
        raise ParameterError(f"instances must be at least 1, got {instances}")
    seed = _option(merged, "seed", int)
    _check_seed(seed)
    rel_tol = _option(merged, "rel_tol", float)
    kkt_tol = _option(merged, "kkt_tol", float)

    summary = run_audit(
        instances=instances, seed=seed, rel_tol=rel_tol, kkt_tol=kkt_tol
    )
    checks = [
        ("max relative gap (ascent)", summary.worst_ascent_err, rel_tol),
        ("max relative gap (dual scan)", summary.worst_scan_err, rel_tol),
        ("max KKT residual", summary.worst_kkt, kkt_tol),
        ("max constraint violation", summary.worst_violation, 1e-8),
    ]
    print(
        f"oracle audit: {instances} instances, seed {seed}, "
        f"{summary.elapsed_seconds:.1f}s"
    )
    for label, worst, tol in checks:
        verdict = "pass" if worst <= tol else "FAIL"
        print(f"  {label:<30} {_f9_sci(worst)}  tol {tol:g}  {verdict}")
    failures = [row for row in summary.rows if not row.passed]
    print(f"  failed instances: {len(failures)} of {instances}")

    report = {
        "instances": instances,
        "seed": seed,
        "rel_tol": rel_tol,
        "kkt_tol": kkt_tol,
        "elapsed_seconds": summary.elapsed_seconds,
        "all_passed": summary.all_passed,
        "worst": {
            "ascent_rel_err": summary.worst_ascent_err,
            "scan_rel_err": summary.worst_scan_err,
            "kkt_residual": summary.worst_kkt,
            "constraint_violation": summary.worst_violation,
        },
        "rows": [dataclasses.asdict(row) for row in summary.rows],
    }
    report_path = _output_dir(merged) / "audit_report.json"
    _write_json(report_path, report)
    if summary.all_passed:
        print("  result: PASS")
        return EXIT_OK
    print(f"  result: FAIL (full report retained at {report_path})")
    return EXIT_FAILURE


# ---------------------------------------------------------------------------
# train-demo

_DEMO_DEFAULTS = {
    "seeds": "1,2,3,4,5",
    "modes": "uniform,lmp",
    "sigma": None,
    "iterations": None,
    "dataset": {},
    "train": {},
    "output_dir": None,
}


def cmd_train_demo(args: argparse.Namespace) -> int:
    merged = _merge_options(args, _DEMO_DEFAULTS)
    try:
        seeds = [int(tok) for tok in str(merged["seeds"]).split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"bad --seeds value {merged['seeds']!r}") from None
    modes = [tok.strip() for tok in str(merged["modes"]).split(",") if tok.strip()]
    if not seeds or not modes:
        raise ParameterError("need at least one seed and one loss mode")
    for seed in seeds:
        _check_seed(seed)

    dataset_options = _option(merged, "dataset", dict)
    train_options = _option(merged, "train", dict)
    for forbidden, owner in (("seed", "--seeds"), ("loss_mode", "--modes")):
        if forbidden in train_options:
            raise ParameterError(f"config key train.{forbidden} is set by {owner}")
    if "seed" in dataset_options:
        raise ParameterError(
            "config key dataset.seed is derived from --seeds (100 + seed)"
        )
    if merged["sigma"] is not None:
        dataset_options["feature_noise"] = _option(merged, "sigma", float)
    if merged["iterations"] is not None:
        train_options["iterations"] = _option(merged, "iterations", int)

    try:
        base_spec = SyntheticDatasetSpec.from_dict(
            {**SyntheticDatasetSpec().to_dict(), **dataset_options}
        )
        class_pixel_counts(base_spec)  # rejects a class rounded to 0 pixels
        base_train = TrainConfig.from_dict({**TrainConfig().to_dict(), **train_options})
        mode_configs = [
            dataclasses.replace(base_train, loss_mode=mode) for mode in modes
        ]
        if "lmp" in modes:
            check_crop_pooling(
                base_spec.image_size, base_train.crop_size, base_train.pooling
            )
    except (ValueError, TypeError, KeyError) as exc:
        raise ParameterError(f"invalid demo config: {exc}") from exc

    out_dir = _output_dir(merged)
    rarest = int(np.argmin(base_spec.class_pixel_fractions))
    results: dict[tuple[str, int], list[float]] = {}
    csv_lines = [
        "seed,mode,"
        + ",".join(f"iou_class{c}" for c in range(base_spec.classes))
        + ",mean_iou"
    ]
    for seed in seeds:
        spec = SyntheticDatasetSpec.from_dict(
            {**base_spec.to_dict(), "seed": 100 + seed}
        )
        dataset = generate_dataset(spec)
        for mode, mode_config in zip(modes, mode_configs):
            config = dataclasses.replace(mode_config, seed=seed)
            report = train(dataset, config)
            results[(mode, seed)] = report.per_class_iou
            stem = f"{mode}_seed{seed}"
            _write_json(out_dir / f"report_{stem}.json", report.to_json())
            save_model(
                out_dir / f"model_{stem}.bin",
                report.model_weights,
                seed,
                report.config_echo,
            )
            ious = _format_each([*report.per_class_iou, report.mean_iou])
            csv_lines.append(f"{seed},{mode}," + ",".join(ious))
            print(
                f"seed {seed} {mode}: mean IoU {_f9(report.mean_iou)}, "
                f"class {rarest} IoU {_f9(report.per_class_iou[rarest])}"
            )
    (out_dir / "iou_by_class.csv").write_text("\n".join(csv_lines) + "\n")

    if "lmp" in modes and "uniform" in modes:
        wins = sum(
            results[("lmp", s)][rarest] > results[("uniform", s)][rarest]
            for s in seeds
        )
        print(
            f"lmp beats uniform on class {rarest} IoU in "
            f"{wins} of {len(seeds)} paired seeds"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; our contract reserves 2 for bad data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_PARAMS, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="losspool",
        description="Adaptive loss pooling: solve, audit, and demo tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sup = argparse.SUPPRESS

    solve = sub.add_parser("solve", help="pool one loss vector from a file")
    solve.add_argument("--losses", default=sup, help="CSV (one loss per line) or JSON array")
    solve.add_argument("--p", default=sup, help="norm exponent in [1, inf], e.g. 1.3 or inf")
    solve.add_argument("--m", default=sup, help="support parameter: absolute ('25') or percent ('25%%')")
    solve.add_argument("--output", default=sup, help="output JSON path")
    solve.add_argument("--output-dir", dest="output_dir", default=sup)
    solve.add_argument("--config", default=None, help="JSON file of option defaults")
    solve.set_defaults(func=cmd_solve)

    curves = sub.add_parser("weight-curves", help="CSV of weight profiles over (p, m) grids")
    curves.add_argument("--n", type=int, default=sup, help="number of synthetic losses")
    curves.add_argument("--seed", type=int, default=sup)
    curves.add_argument("--p-list", dest="p_list", default=sup, help="comma-separated p grid")
    curves.add_argument("--m-list", dest="m_list", default=sup, help="comma-separated m grid")
    curves.add_argument("--output", default=sup, help="output CSV path")
    curves.add_argument("--output-dir", dest="output_dir", default=sup)
    curves.add_argument("--config", default=None)
    curves.set_defaults(func=cmd_weight_curves)

    audit = sub.add_parser("oracle-audit", help="randomized solver-vs-oracle comparison")
    audit.add_argument("--instances", type=int, default=sup)
    audit.add_argument("--seed", type=int, default=sup)
    audit.add_argument("--rel-tol", dest="rel_tol", type=float, default=sup)
    audit.add_argument("--kkt-tol", dest="kkt_tol", type=float, default=sup)
    audit.add_argument("--output-dir", dest="output_dir", default=sup)
    audit.add_argument("--config", default=None)
    audit.set_defaults(func=cmd_oracle_audit)

    demo = sub.add_parser("train-demo", help="paired-seed training comparison")
    demo.add_argument("--seeds", default=sup, help="comma-separated training seeds")
    demo.add_argument("--modes", default=sup, help="comma-separated loss modes")
    demo.add_argument("--sigma", type=float, default=sup, help="dataset feature noise")
    demo.add_argument("--iterations", type=int, default=sup)
    demo.add_argument("--output-dir", dest="output_dir", default=sup)
    demo.add_argument("--config", default=None)
    demo.set_defaults(func=cmd_train_demo)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputDataError as exc:
        print(f"losspool: input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ParameterError as exc:
        print(f"losspool: parameter error: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except TrainingDivergence as exc:
        print(f"losspool: training failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())

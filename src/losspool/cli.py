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
accepts ``--config FILE`` with a JSON object of option defaults, keyed by
option name and converted like the flags; explicit flags win over the file.
The only environment variable consulted is ``LOSSPOOL_OUTPUT_DIR`` (default
directory for output files).

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
    as_integer,
    as_real,
    check_crop_pooling,
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


def _f9_sci(x) -> str:
    return np.format_float_scientific(float(x), precision=8, unique=False)


def _f9(x) -> str:
    # Positional only where that stays short: 1.7e308 would print as 310
    # characters and 5e-324 as 334.
    x = float(x)
    if x != 0.0 and not 1e-4 <= abs(x) < 1e9:
        return _f9_sci(x)
    return np.format_float_positional(x, precision=9, unique=False, fractional=False)


# Entries per piece when a 1-D array is streamed: only one piece's values,
# distinct values and strings are alive at a time, not a string for every
# entry of the array.
_ARRAY_CHUNK = 4096

# Characters per piece when a loss file is parsed: only one piece's lines or
# items are Python objects at a time, not one for every loss in the file.
_TEXT_CHUNK = 1 << 16


def _format_each(values):
    """Return an iterable over the text of each entry of a 1-D numeric array.

    Floats get 17 significant digits and integers their decimal digits,
    the same text ``_f17`` and ``str(int(x))`` give one scalar at a time.
    Each distinct float, told apart by its bits so that -0.0 stays ``-0``,
    is formatted once: solver outputs repeat zeros and the weight cap.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return map(str, values.tolist())
    bits, inverse = np.unique(
        values.astype(np.float64, copy=False).view(np.int64), return_inverse=True
    )
    distinct = tuple(bits.view(np.float64).tolist())
    texts = ("%.17g " * len(distinct) % distinct).split()
    return np.array(texts, dtype=object)[inverse].tolist()


def _json_pieces(value, indent: int = 0):
    """Yield the JSON text of ``value`` piece by piece.

    The stdlib encoder offers no control over float formatting, so this
    walks the (dict/list/array/scalar) document itself.  Arrays and lists
    stay on one line with ", " between items; mappings are indented by two
    spaces per level.  A 1-D numeric array is formatted ``_ARRAY_CHUNK``
    entries at a time, each distinct value once per chunk.
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


def _is_number(line: str) -> bool:
    try:
        float(line)
    except ValueError:
        return False
    return True


def _cuts(text: str, sep: str, start: int = 0):
    """Yield the bounds of pieces of ``text[start:]``, each cut just after the
    first ``sep`` at least ``_TEXT_CHUNK`` characters in; the last runs to the end."""
    while end := text.find(sep, start + _TEXT_CHUNK) + 1:
        yield start, end
        start = end
    yield start, len(text)


def _json_numbers(body: str):
    """The values of ``body``, a flat JSON array of numbers, else None.

    The text between cut commas parses as an array of its own.  When each
    is a non-empty array of ints and floats, they and the commas between
    them are the whole array's text; anything else (a string, a bool, null,
    a nested array, a cut in a string, an int beyond float64 or beyond
    Python's digit limit) gives None.
    """
    parts = []
    for start, end in _cuts(body, ",", 1):
        piece = body[start:end] if end == len(body) else body[start:end - 1] + "]"
        try:
            items = json.loads("[" + piece)
            if not items or not set(map(type, items)) <= {int, float}:
                return None
            parts.append(np.array(items, dtype=np.float64))
        except (ValueError, OverflowError):  # JSONDecodeError is a ValueError
            return None
    return np.concatenate(parts)


def read_losses(path) -> np.ndarray:
    """Load a loss vector from CSV (one value per line) or a JSON array.

    In CSV, blank lines are skipped and the first non-blank line is a header
    when it is not a number; a numeric first line is a loss.  Any later line
    that is not a number is an error naming its line number in the file,
    blank lines counted.  Values take every spelling ``float`` accepts.

    The text is parsed in pieces cut after a newline (CSV) or a comma (JSON),
    holding no Python object per loss, with the values and errors of a whole parse.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise InputDataError(f"cannot read losses file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"losses file {path} is not UTF-8 text: {exc}") from exc
    if not text or text.isspace():
        raise InputDataError(f"losses file {path} is empty")
    body = text.lstrip()  # the text itself when nothing is stripped
    if not body.startswith("["):
        parts, header = [], True
        try:
            for start, end in _cuts(text, "\n"):
                rows = list(filter(str.strip, text[start:end].splitlines()))  # non-blank
                if header and rows:
                    header = False
                    if not _is_number(rows[0]):
                        del rows[0]  # the header
                # numpy converts each str with float(), padding and all.
                parts.append(np.array(rows, dtype=np.float64))
        except ValueError:
            # Name the first line past the first non-blank one that fails.
            lines = text.splitlines()
            filled = [(n, line.strip()) for n, line in enumerate(lines, start=1) if line.strip()]
            lineno, line = next((n, line) for n, line in filled[1:] if not _is_number(line))
            raise InputDataError(
                f"losses file {path}, line {lineno}: not a number: {line!r}"
            ) from None
        values = np.concatenate(parts)
    elif (values := _json_numbers(body)) is None:
        # Not a flat array of numbers: parse it whole, for the exact error.
        try:
            values = json.loads(text.strip())
        except ValueError as exc:  # also an int past Python's digit limit
            raise InputDataError(f"losses file {path}: invalid JSON: {exc}") from exc
        if not isinstance(values, list):
            raise InputDataError(f"losses file {path}: expected a JSON array")
        # bool is its own type, so true/false are rejected with strings and null.
        for index, item in enumerate(values):
            if type(item) not in (int, float):
                raise InputDataError(
                    f"losses file {path}: element {index} is not a number: "
                    f"{json.dumps(item)}"
                )
    try:
        return as_loss_vector(values)
    except (ValueError, OverflowError) as exc:
        raise InputDataError(f"losses file {path}: {exc}") from exc


def parse_pooling(p_token: str, m_token: str) -> PoolingConfig:
    """Build a PoolingConfig from command-line tokens.

    ``p`` accepts any float spelling including "inf".  ``m`` accepts an
    absolute count ("25") or a percentage of the losses ("25%").
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


def _say(line: str) -> None:
    """Print a line; once stdout's reader has gone, send the rest to the null
    device, so a closed pipe costs a command neither its files nor its exit code."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _pooling_for(p_token: str, m_token: str, n: int) -> PoolingConfig:
    """``parse_pooling``, with ``m`` checked against ``n`` losses before any output."""
    config = parse_pooling(p_token, m_token)
    try:
        config.resolve(n)
    except ValueError as exc:
        raise ParameterError(str(exc)) from exc
    return config


def _output_path(options: dict, name: str) -> Path:
    """``--output`` if set, else ``name`` in the output directory."""
    return Path(options.get("output") or options["output_dir"] / name)


# ---------------------------------------------------------------------------
# option tables: name -> (default, converter, help)
#
# The flag is the name with dashes, the config-file key the name itself;
# flag text and config value pass through the same converter.  A default of
# None leaves the option unset until given; no help means no flag.

def _count(value) -> int:
    """An integer of at least 1."""
    if (count := as_integer(value)) < 1:
        raise ValueError("must be at least 1")
    return count


def _seed(value) -> int:
    """A non-negative integer."""
    if (seed := as_integer(value)) < 0:
        raise ValueError("must be non-negative")
    return seed


def _tolerance(value) -> float:
    """A non-negative real."""
    if (tol := as_real(value)) < 0:
        raise ValueError("must be non-negative")
    return tol


def _object(value) -> dict:
    """A JSON object, copied: ``cmd_train_demo`` merges flags into it."""
    if not isinstance(value, dict):
        raise ValueError("must be a JSON object")
    return dict(value)


def _split(value) -> list[str]:
    """The items of a comma-separated list, at least one."""
    tokens = [tok.strip() for tok in str(value).split(",") if tok.strip()]
    if not tokens:
        raise ValueError("names no value")
    return tokens


def _seeds(value) -> list[int]:
    """A comma-separated list of seeds."""
    return [_seed(tok) for tok in _split(value)]


def _load_config_file(path, allowed) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except OSError as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # also an int past Python's digit limit
        raise ParameterError(f"config file {path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterError(f"config file {path} must hold a JSON object")
    for key in data:
        if key not in allowed:
            raise ParameterError(f"config file {path}: unknown key {key!r}")
    return data


def _options(args: argparse.Namespace, table: dict) -> dict:
    """The converted options of ``table``: defaults < config file < flags.

    ``output_dir`` is common to every subcommand and falls back to
    ``LOSSPOOL_OUTPUT_DIR``, then the working directory.
    """
    table = {**table, "output_dir": (None, str, None)}
    given = _load_config_file(args.config, table) if args.config else {}
    given.update((key, value) for key, value in vars(args).items() if key in table)
    options = {}
    for key, (default, convert, _) in table.items():
        value = given.get(key, default)
        if value is None and default is None:
            options[key] = None
            continue
        try:
            options[key] = convert(value)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"bad {key} value {value!r}: {exc}") from None
    options["output_dir"] = Path(
        options["output_dir"] or os.environ.get("LOSSPOOL_OUTPUT_DIR") or "."
    )
    return options


# ---------------------------------------------------------------------------
# solve

_SOLVE_OPTIONS = {
    "losses": (None, str, "CSV (one loss per line) or JSON array"),
    "p": (None, str, "norm exponent in [1, inf], e.g. 1.3 or inf"),
    "m": (None, str, "support parameter: absolute ('25') or percent ('25%%')"),
    "output": (None, str, "output JSON path"),
}


def cmd_solve(options: dict) -> int:
    for required in ("losses", "p", "m"):
        if options[required] is None:
            raise ParameterError(f"--{required} is required")
    values = read_losses(options["losses"])
    config = _pooling_for(options["p"], options["m"], values.size)
    outcome = solve_pool(values, config)
    if not (math.isfinite(outcome.pooled_loss) and math.isfinite(outcome.alpha_star)):
        raise InputDataError(
            f"losses file {options['losses']}: the solution leaves float64 range "
            f"(pooled_loss {outcome.pooled_loss!r}, alpha_star {outcome.alpha_star!r})"
        )

    payload = {
        "pooled_loss": outcome.pooled_loss,
        "alpha_star": outcome.alpha_star,
        "support_indices": outcome.support,
        "weights": outcome.weights,
        "dual": outcome.dual,
    }
    _write_json(_output_path(options, "losspool_solve.json"), payload)
    _say(_f9(outcome.pooled_loss))
    return EXIT_OK


# ---------------------------------------------------------------------------
# weight-curves

_CURVES_OPTIONS = {
    "n": (100, _count, "number of synthetic losses"),
    "seed": (0, _seed, "seed of the synthetic losses"),
    "p_list": ("1,1.2,1.4,1.7,2,3,4,10,inf", _split, "comma-separated p grid"),
    "m_list": ("33.33%", _split, "comma-separated m grid"),
    "output": (None, str, "output CSV path"),
}


def cmd_weight_curves(options: dict) -> int:
    """Write the weight columns ``_ARRAY_CHUNK`` rows at a time through one
    open file, so only one chunk's cell strings are alive at a time."""
    n = options["n"]
    # Jittered exponential quantiles: a long-tailed, strictly increasing
    # loss profile whose shape is stable across seeds, so the curve
    # geometry (cap onset, support growth) does not depend on a lucky draw.
    rng = np.random.default_rng(options["seed"])
    quantiles = (np.arange(n) + rng.uniform(0.05, 0.95, size=n)) / n
    losses = 0.3 - np.log1p(-quantiles)

    columns = []
    for p_tok, m_tok in itertools.product(options["p_list"], options["m_list"]):
        outcome = solve_pool(losses, _pooling_for(p_tok, m_tok, n))
        columns.append((f"w_p{p_tok}_m{m_tok}", outcome.weights))

    out_path = _output_path(options, "weight_curves.csv")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("w") as out:
        out.write(",".join(["pixel_rank", "loss"] + [name for name, _ in columns]) + "\n")
        for start in range(0, n, _ARRAY_CHUNK):
            stop = min(start + _ARRAY_CHUNK, n)
            cells = [map(str, range(start + 1, stop + 1)), _format_each(losses[start:stop])]
            cells += [_format_each(weights[start:stop]) for _, weights in columns]
            out.writelines(",".join(row) + "\n" for row in zip(*cells))
    _say(f"wrote {len(columns)} weight curves over {n} losses to {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-audit

_AUDIT_OPTIONS = {
    "instances": (500, _count, "number of random instances"),
    "seed": (0, _seed, "seed of the random instances"),
    "rel_tol": (1e-4, _tolerance, "largest passing relative gap to either oracle"),
    "kkt_tol": (1e-6, _tolerance, "largest passing KKT residual"),
}

# Printed label of each audit check, keyed like AuditSummary.worst.
_CHECK_LABELS = {
    "ascent_rel_err": "max relative gap (ascent)",
    "scan_rel_err": "max relative gap (dual scan)",
    "kkt_residual": "max KKT residual",
    "constraint_violation": "max constraint violation",
}


def cmd_oracle_audit(options: dict) -> int:
    settings = {key: options[key] for key in _AUDIT_OPTIONS}  # run_audit's keywords
    summary = run_audit(**settings)
    report = {
        **settings,
        "elapsed_seconds": summary.elapsed_seconds,
        "all_passed": summary.all_passed,
        "worst": summary.worst,
        "rows": [dataclasses.asdict(row) for row in summary.rows],
    }
    report_path = _output_path(options, "audit_report.json")
    _write_json(report_path, report)

    instances = options["instances"]
    _say(
        f"oracle audit: {instances} instances, seed {options['seed']}, "
        f"{summary.elapsed_seconds:.1f}s"
    )
    for key, worst in summary.worst.items():
        tol = summary.tolerances[key]
        verdict = "pass" if worst <= tol else "FAIL"
        _say(f"  {_CHECK_LABELS[key]:<30} {_f9_sci(worst)}  tol {tol:g}  {verdict}")
    failures = sum(not row.passed for row in summary.rows)
    _say(f"  failed instances: {failures} of {instances}")
    if summary.all_passed:
        _say("  result: PASS")
        return EXIT_OK
    _say(f"  result: FAIL (full report retained at {report_path})")
    return EXIT_FAILURE


# ---------------------------------------------------------------------------
# train-demo

_DEMO_OPTIONS = {
    "seeds": ("1,2,3,4,5", _seeds, "comma-separated training seeds"),
    "modes": ("uniform,lmp", _split, "comma-separated loss modes"),
    "sigma": (None, as_real, "dataset feature noise"),
    "iterations": (None, _count, "training iterations per run"),
    "dataset": ({}, _object, None),
    "train": ({}, _object, None),
}


def cmd_train_demo(options: dict) -> int:
    seeds, modes = options["seeds"], options["modes"]
    dataset_options, train_options = options["dataset"], options["train"]
    for forbidden, owner in (("seed", "--seeds"), ("loss_mode", "--modes")):
        if forbidden in train_options:
            raise ParameterError(f"config key train.{forbidden} is set by {owner}")
    if "seed" in dataset_options:
        raise ParameterError(
            "config key dataset.seed is derived from --seeds (100 + seed)"
        )
    if options["sigma"] is not None:
        dataset_options["feature_noise"] = options["sigma"]
    if options["iterations"] is not None:
        train_options["iterations"] = options["iterations"]

    try:
        base_spec = SyntheticDatasetSpec.from_dict(dataset_options)
        base_train = TrainConfig.from_dict(train_options)
        mode_configs = [
            dataclasses.replace(base_train, loss_mode=mode) for mode in modes
        ]
        if "lmp" in modes:
            check_crop_pooling(
                base_spec.image_size, base_train.crop_size, base_train.pooling
            )
    except ValueError as exc:
        raise ParameterError(f"invalid demo config: {exc}") from exc

    out_dir = options["output_dir"]
    out_dir.mkdir(parents=True, exist_ok=True)
    rarest = int(np.argmin(base_spec.class_pixel_fractions))
    results: dict[tuple[str, int], list[float]] = {}
    csv_lines = [
        "seed,mode,"
        + ",".join(f"iou_class{c}" for c in range(base_spec.classes))
        + ",mean_iou"
    ]
    for seed in seeds:
        dataset = generate_dataset(dataclasses.replace(base_spec, seed=100 + seed))
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
            _say(
                f"seed {seed} {mode}: mean IoU {_f9(report.mean_iou)}, "
                f"class {rarest} IoU {_f9(report.per_class_iou[rarest])}"
            )
    (out_dir / "iou_by_class.csv").write_text("\n".join(csv_lines) + "\n")

    if "lmp" in modes and "uniform" in modes:
        wins = sum(
            results[("lmp", s)][rarest] > results[("uniform", s)][rarest]
            for s in seeds
        )
        _say(
            f"lmp beats uniform on class {rarest} IoU in "
            f"{wins} of {len(seeds)} paired seeds"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing

# name -> (command, help, option table)
_COMMANDS = {
    "solve": (cmd_solve, "pool one loss vector from a file", _SOLVE_OPTIONS),
    "weight-curves": (
        cmd_weight_curves, "CSV of weight profiles over (p, m) grids", _CURVES_OPTIONS
    ),
    "oracle-audit": (
        cmd_oracle_audit, "randomized solver-vs-oracle comparison", _AUDIT_OPTIONS
    ),
    "train-demo": (cmd_train_demo, "paired-seed training comparison", _DEMO_OPTIONS),
}


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
    for name, (_, summary, table) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for key, (_, _, text) in table.items():
            if text is not None:
                flag = "--" + key.replace("_", "-")
                command.add_argument(flag, default=argparse.SUPPRESS, help=text)
        command.add_argument("--output-dir", default=argparse.SUPPRESS)
        command.add_argument("--config", help="JSON file of option defaults")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command, _, table = _COMMANDS[args.command]
    try:
        return command(_options(args, table))
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

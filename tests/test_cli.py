"""End-to-end tests of the command-line interface.

Everything runs in process through ``main(argv)`` (fast, and coverage sees
it); one final test runs ``python -m losspool`` in a child process against
the same ``losspool`` these tests imported, whether that is installed or on
``src/``.  The exit code contract: 0 success, 1 verification or training
failure, 2 malformed input data, 3 invalid parameters.
"""

import argparse
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import losspool
import losspool.cli
from helpers import read_losses_whole
from losspool.cli import (
    InputDataError,
    _ARRAY_CHUNK,
    _DEMO_OPTIONS,
    _TEXT_CHUNK,
    _build_parser,
    _write_json,
    main,
    parse_pooling,
    read_losses,
)
from losspool.solver import PoolingConfig, solve_pool


@pytest.fixture(autouse=True)
def isolated_output(tmp_path, monkeypatch):
    """Point default output at a scratch directory for every test."""
    monkeypatch.delenv("LOSSPOOL_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_losses(path, values):
    path.write_text("\n".join(str(v) for v in values) + "\n")
    return str(path)


class TestReadLosses:
    def test_csv_one_value_per_line(self, tmp_path):
        path = write_losses(tmp_path / "l.csv", [3.0, 1.0])
        np.testing.assert_array_equal(read_losses(path), [3.0, 1.0])

    def test_csv_with_header_line(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("loss\n1.5\n2.5\n")
        np.testing.assert_array_equal(read_losses(path), [1.5, 2.5])

    def test_json_array(self, tmp_path):
        path = tmp_path / "l.json"
        path.write_text("[0.25, 4.0, 1.0]")
        np.testing.assert_array_equal(read_losses(path), [0.25, 4.0, 1.0])

    @pytest.mark.parametrize(
        "text",
        [
            "", "[1.0,", '{"a": 1}', "1.0\nnot-a-number\n", "[1.0, -2.0]",
            "[1, true]", '["1.5", 2]', "[1.5, null]", "[[1.0, 2.0]]",
            pytest.param("[1" + "0" * 400 + "]", id="int-beyond-float64"),
        ],
    )
    def test_bad_files_raise_input_errors(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputDataError):
            read_losses(path)

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("[1, true]", "element 1 is not a number: true"),
            ('["1.5", 2]', 'element 0 is not a number: "1.5"'),
            ("[1.5, null]", "element 1 is not a number: null"),
        ],
    )
    def test_json_error_names_the_first_non_number(self, tmp_path, text, fragment):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InputDataError, match=fragment):
            read_losses(path)

    @pytest.mark.parametrize(
        "text,lineno",
        [("loss\n1.5\n\n\n2.5\nx\n", 6), ("\n\nloss\n1.5\nx\n", 5)],
    )
    def test_csv_error_names_the_line_in_the_file(self, tmp_path, text, lineno):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputDataError, match=f"line {lineno}: not a number: 'x'"):
            read_losses(path)

    @pytest.mark.parametrize(
        "text", ["[1" + "0" * 5000 + "]", "[0.5, 1" + "0" * 5000 + "]"], ids=["alone", "second"]
    )
    def test_int_past_the_digit_limit_exits_2(self, tmp_path, capsys, text):
        # Python's default limit is 4,300 digits; json.loads then raises a
        # plain ValueError, not a JSONDecodeError.
        path = tmp_path / "long.json"
        path.write_text(text)
        assert main(["solve", "--losses", str(path), "--p", "2", "--m", "1"]) == 2
        assert f"losses file {path}: " in capsys.readouterr().err

    def test_bytes_that_are_not_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"\xff\xfe1.0\n2.0\n")
        assert main(["solve", "--losses", str(path), "--p", "2", "--m", "1"]) == 2
        assert f"losses file {path} is not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data",
        [b"\xef\xbb\xbf3.0\n1.0\n2.0\n", b"\xef\xbb\xbf[3.0, 1.0, 2.0]"],
        ids=["csv", "json"],
    )
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, data):
        path = tmp_path / "bom.txt"
        path.write_bytes(data)
        np.testing.assert_array_equal(read_losses(path), [3.0, 1.0, 2.0])

    def test_csv_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("loss\n1.5\n\n\n2.5\nx\n")
        assert main(["solve", "--losses", str(path), "--p", "2", "--m", "1"]) == 2
        assert "line 6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,expected",
        [
            pytest.param(b"loss\r\n1.5\r\n2.5\r\n", [1.5, 2.5], id="crlf"),
            pytest.param(b" 1.5 \n\t2.5\t\n  \t 3 \r\n", [1.5, 2.5, 3.0], id="padding"),
            pytest.param(b"1_000\n", [1000.0], id="underscore"),
            pytest.param(b"\n\n1\n\n \n2\n\n", [1.0, 2.0], id="blank-lines"),
            pytest.param(b"\n \nloss\n\n1\n", [1.0], id="header-after-blanks"),
            pytest.param(b"3\n4\n", [3.0, 4.0], id="numeric-first-line-kept"),
            pytest.param(b"-0\n+.5\n5e-324\n", [-0.0, 0.5, 5e-324], id="spellings"),
            pytest.param("１２\n".encode(), [12.0], id="fullwidth-digits"),
        ],
    )
    def test_csv_values_keep_their_bits(self, tmp_path, text, expected):
        path = tmp_path / "l.csv"
        path.write_bytes(text)
        values = read_losses(path)
        assert values.dtype == np.float64
        assert values.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param("1.0\n2.0 3.0\n", ", line 2: not a number: '2.0 3.0'", id="two-numbers"),
            pytest.param("1\ninf\n", ": losses must be finite", id="inf"),
            pytest.param("loss\nnan\n2\n", ": losses must be finite", id="nan"),
            pytest.param("\nloss\n\n", ": losses must contain at least one entry", id="header-only"),
        ],
    )
    def test_csv_errors_are_exact(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InputDataError) as caught:
            read_losses(path)
        assert str(caught.value) == f"losses file {path}{message}"


def outcome_of(read, path):
    """The bytes ``read(path)`` returns, or the message it raises."""
    try:
        return read(path).tobytes()
    except InputDataError as exc:
        return str(exc)


@functools.cache
def long_file(kind):
    """A file of 20,000 losses: more than three pieces of ``_TEXT_CHUNK``."""
    texts = [format(x, ".17g") for x in np.random.default_rng(4).lognormal(0.0, 1.0, 20_000)]
    if kind == "csv":
        return "\n".join(texts) + "\n"
    return "[" + ", ".join(texts) + "]\n"


def with_json_item(item, index):
    """The long JSON file with ``item`` inserted as element ``index``."""
    items = long_file("json").split(", ")
    return ", ".join(items[:index] + [item] + items[index:])


def with_csv_line(line, index):
    """The long CSV file with ``line`` inserted as line ``index + 1``."""
    lines = long_file("csv").splitlines()
    return "\n".join(lines[:index] + [line] + lines[index:]) + "\n"


def at_each_cut(separators):
    """The long CSV file with its line ends cycling through ``separators``,
    so each cut just after a newline has one of them beside it."""
    lines = long_file("csv").splitlines()
    return "".join(x + separators[k % len(separators)] for k, x in enumerate(lines))


PIECE_CASES = {
    "csv": lambda: long_file("csv"),
    "csv-bad-line-late": lambda: with_csv_line("0.5 x", 15_000),
    "csv-blanks-and-header": lambda: "\n \n\t\nloss\n\n" + long_file("csv"),
    "csv-blanks-and-numeric-first-line": lambda: "\n\n" + long_file("csv"),
    "csv-line-separators-at-cuts": lambda: at_each_cut(
        ["\n", "\x0b\n", "\n\u2028", "\u2028\n", "\r\n", "\n\n", "\n\x0b"]
    ),
    "csv-nan-late": lambda: with_csv_line("nan", 15_000),
    "json": lambda: long_file("json"),
    "json-string-late": lambda: with_json_item('"0.5"', 15_000),
    "json-string-with-commas-across-cuts": lambda: with_json_item(
        '"' + ",".join(["x"] * _TEXT_CHUNK) + '"', 100
    ),
    "json-nested-late": lambda: with_json_item("[1, 2]", 15_000),
    "json-bool-late": lambda: with_json_item("true", 15_000),
    "json-null-late": lambda: with_json_item("null", 15_000),
    "json-object-late": lambda: with_json_item('{"a": 1, "b": 2}', 15_000),
    "json-nan-late": lambda: with_json_item("NaN", 15_000),
    "json-int-beyond-float64": lambda: with_json_item("1" + "0" * 400, 15_000),
    "json-empty-gap": lambda: with_json_item(" " * 2 * _TEXT_CHUNK, 100),
    "json-trailing-data": lambda: long_file("json") + "x",
    "json-trailing-array": lambda: long_file("json").rstrip() + ", [1]",
    "json-trailing-comma": lambda: long_file("json").rstrip()[:-1] + ",]",
    "json-truncated": lambda: long_file("json").rstrip()[:-1],
    "json-trailing-whitespace": lambda: long_file("json") + "\x0b \u2028\n",
    "json-empty": lambda: "[]",
    "json-empty-spaced": lambda: " \n[ ]\n",
}


class TestReadLossesInPieces:
    """Files of several pieces read as the whole-text reference reads them."""

    @pytest.mark.parametrize("name", list(PIECE_CASES))
    @pytest.mark.parametrize("chunk", [_TEXT_CHUNK, 1])
    def test_values_and_messages_match_the_whole_text(self, tmp_path, monkeypatch, name, chunk):
        monkeypatch.setattr(losspool.cli, "_TEXT_CHUNK", chunk)
        text = PIECE_CASES[name]()
        assert len(text) > 3 * _TEXT_CHUNK or name.startswith("json-empty")
        path = tmp_path / "losses.txt"
        path.write_text(text)
        assert outcome_of(read_losses, path) == outcome_of(read_losses_whole, path)

    @pytest.mark.parametrize(
        "name,message",
        [
            ("csv-bad-line-late", ", line 15001: not a number: '0.5 x'"),
            ("json-string-late", ': element 15000 is not a number: "0.5"'),
            ("json-nested-late", ": element 15000 is not a number: [1, 2]"),
            ("json-int-beyond-float64", ": int too large to convert to float"),
            ("json-empty", ": losses must contain at least one entry"),
        ],
    )
    def test_late_faults_are_named_in_the_whole_file(self, tmp_path, name, message):
        path = tmp_path / "losses.txt"
        path.write_text(PIECE_CASES[name]())
        with pytest.raises(InputDataError) as caught:
            read_losses(path)
        assert str(caught.value) == f"losses file {path}{message}"

    @pytest.mark.parametrize("kind", ["csv", "json"])
    def test_peak_memory_holds_no_object_per_loss(self, tmp_path, kind):
        """Below twice the file plus three arrays; a Python float per loss
        peaked at about 33 MiB (CSV) and 21 MiB (JSON) on these files."""
        losses = np.random.default_rng(9).lognormal(0.0, 1.0, 512 * 512)
        path = tmp_path / f"crop.{kind}"
        texts = map("{:.17g}".format, losses.tolist())
        path.write_text("loss\n" + "\n".join(texts) if kind == "csv" else "[" + ", ".join(texts) + "]")
        tracemalloc.start()
        try:
            values = read_losses(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.tobytes() == losses.tobytes()
        assert peak < 2 * path.stat().st_size + 3 * values.nbytes


class TestParsePooling:
    def test_percent_token_is_a_fraction(self):
        config = parse_pooling("2", "25%")
        assert config.m_fraction == 0.25
        assert config.m is None

    def test_plain_token_is_absolute(self):
        config = parse_pooling("1.3", "25")
        assert config.m == 25.0
        assert config.m_fraction is None

    def test_inf_spelling(self):
        assert parse_pooling("inf", "50%").p == np.inf

    @pytest.mark.parametrize("p,m", [("fast", "1"), ("2", "lots"), ("0.5", "1")])
    def test_bad_tokens_raise_parameter_errors(self, p, m):
        from losspool.cli import ParameterError

        with pytest.raises(ParameterError):
            parse_pooling(p, m)


class TestSolveCommand:
    def test_prints_nine_significant_digits(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [3.0, 1.0])
        code = main(["solve", "--losses", losses, "--p", "2", "--m", "1"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2.23606798"

    def test_mean_case_prints_padded_digits(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [2.0, 4.0])
        code = main(["solve", "--losses", losses, "--p", "2", "--m", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3.00000000"

    @pytest.mark.parametrize(
        "loss, printed",
        [(1.7e308, "1.70000000e+308"), (5e-324, "4.94065646e-324"),
         (1e-4, "0.000100000000"), (1e9, "1.00000000e+09")],
    )
    def test_positional_only_from_1e_minus_4_below_1e9(
        self, tmp_path, capsys, loss, printed
    ):
        # m = n pools to the mean, which is the loss itself.
        losses = write_losses(tmp_path / "l.csv", [loss] * 3)
        code = main(["solve", "--losses", losses, "--p", "2", "--m", "3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == printed

    def test_output_json_schema_and_round_trip(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [0.3, 1.1, 2.4, 0.7, 3.9])
        out = tmp_path / "solution.json"
        code = main(
            ["solve", "--losses", losses, "--p", "1.7", "--m", "40%",
             "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert sorted(doc) == [
            "alpha_star", "dual", "pooled_loss", "support_indices", "weights",
        ]
        # the serialised weights must reproduce the pooled value exactly
        # (17 significant digits round-trip 64-bit floats)
        values = np.array([0.3, 1.1, 2.4, 0.7, 3.9])
        recomputed = np.array(doc["weights"]) @ values
        assert abs(recomputed - doc["pooled_loss"]) <= 1e-9
        assert capsys.readouterr().out.strip() == np.format_float_positional(
            doc["pooled_loss"], precision=9, unique=False, fractional=False
        )

    def test_default_output_lands_in_output_dir(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [1.0, 2.0])
        outdir = tmp_path / "results"
        code = main(
            ["solve", "--losses", losses, "--p", "2", "--m", "1",
             "--output-dir", str(outdir)]
        )
        assert code == 0
        assert (outdir / "losspool_solve.json").exists()

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch, capsys):
        losses = write_losses(tmp_path / "l.csv", [1.0, 2.0])
        envdir = tmp_path / "from_env"
        monkeypatch.setenv("LOSSPOOL_OUTPUT_DIR", str(envdir))
        assert main(["solve", "--losses", losses, "--p", "2", "--m", "1"]) == 0
        assert (envdir / "losspool_solve.json").exists()

    def test_negative_loss_exits_2_citing_non_negativity(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [1.0, -1.0])
        code = main(["solve", "--losses", losses, "--p", "2", "--m", "1"])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err

    def test_subnormal_loss_stays_distinct_from_zero(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [1e16, 0.1, 5e-324, 0.0])
        out = tmp_path / "solution.json"
        code = main(
            ["solve", "--losses", losses, "--p", "1", "--m", "3",
             "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["support_indices"] == [0, 1, 2]
        assert doc["weights"][3] == 0

    def test_threshold_beyond_float64_exits_2_without_output(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [1.7e308, 1.7e308, 1.7e308, 1.0])
        out = tmp_path / "solution.json"
        code = main(
            ["solve", "--losses", losses, "--p", "4", "--m", "2.5",
             "--output", str(out)]
        )
        assert code == 2
        assert "input error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "values, m", [([1.7e308] * 3, "2"), ([1e308, 1.5e308], "1")], ids=["tied", "m1"]
    )
    def test_infinite_p_near_float64_max_exits_0(self, tmp_path, capsys, values, m):
        # At p = inf every pixel is capped: alpha_star is 0 and the dual is
        # the losses.  It used to be sum / m, which overflowed here.
        losses = write_losses(tmp_path / "l.csv", values)
        out = tmp_path / "solution.json"
        code = main(
            ["solve", "--losses", losses, "--p", "inf", "--m", m,
             "--output", str(out)]
        )
        assert code == 0
        solution = json.loads(out.read_text())
        assert solution["pooled_loss"] == pytest.approx(sum(v / len(values) for v in values))
        assert solution["alpha_star"] == 0.0
        assert solution["support_indices"] == list(range(len(values)))
        assert solution["dual"] == values

    def test_mean_of_losses_near_float64_max_exits_0(self, tmp_path, capsys):
        # Their sum passes the float64 maximum; the mean and the threshold
        # (the sum over m) do not.
        losses = write_losses(tmp_path / "l.csv", [1.7e308, 1.7e308, 1.0])
        out = tmp_path / "solution.json"
        code = main(
            ["solve", "--losses", losses, "--p", "inf", "--m", "2",
             "--output", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pooled_loss"] == pytest.approx(1.7e308 / 3 * 2, rel=1e-15)
        assert doc["weights"] == [1 / 3] * 3

    def test_value_error_from_the_solver_propagates(self, tmp_path, monkeypatch):
        def broken(values, config):
            raise ValueError("internal failure")

        monkeypatch.setattr(losspool.cli, "solve_pool", broken)
        losses = write_losses(tmp_path / "l.csv", [3.0, 1.0])
        with pytest.raises(ValueError, match="internal failure"):
            main(["solve", "--losses", losses, "--p", "2", "--m", "1"])

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["solve", "--losses", str(tmp_path / "nope.csv"), "--p", "2", "--m", "1"]
        )
        assert code == 2

    @pytest.mark.parametrize("p,m", [("0.5", "1"), ("2", "0"), ("2", "99"), ("2", "banana")])
    def test_invalid_parameters_exit_3(self, tmp_path, capsys, p, m):
        losses = write_losses(tmp_path / "l.csv", [1.0, 2.0])
        code = main(["solve", "--losses", losses, "--p", p, "--m", m])
        assert code == 3
        assert capsys.readouterr().err  # names the violated precondition

    def test_missing_required_option_exits_3(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [1.0, 2.0])
        code = main(["solve", "--losses", losses, "--p", "2"])
        assert code == 3
        assert "--m" in capsys.readouterr().err

    def test_unknown_flag_exits_3(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--frobnicate"])
        assert info.value.code == 3

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_config_file_supplies_defaults(self, tmp_path, capsys, bom):
        losses = write_losses(tmp_path / "l.csv", [3.0, 1.0])
        config = tmp_path / "cfg.json"
        config.write_text(bom + json.dumps({"p": 2, "m": "1"}), encoding="utf-8")
        code = main(["solve", "--losses", losses, "--config", str(config)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2.23606798"

    def test_flags_override_config_file(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [2.0, 4.0])
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p": 2, "m": "1"}))
        code = main(["solve", "--losses", losses, "--config", str(config), "--m", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "3.00000000"

    def test_unknown_config_key_exits_3_naming_it(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [1.0, 2.0])
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p": 2, "m": "1", "tolerance": 5}))
        code = main(["solve", "--losses", losses, "--config", str(config)])
        assert code == 3
        assert "tolerance" in capsys.readouterr().err

    def test_broken_config_json_exits_3(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [1.0, 2.0])
        config = tmp_path / "cfg.json"
        config.write_text('{"p": 2,')
        code = main(["solve", "--losses", losses, "--config", str(config)])
        assert code == 3

    @pytest.mark.parametrize("command", ["solve", "oracle-audit", "train-demo"])
    def test_config_int_past_the_digit_limit_exits_3(self, tmp_path, capsys, command):
        # json.loads raises a plain ValueError here, not a JSONDecodeError.
        losses = write_losses(tmp_path / "l.csv", [1.0, 2.0])
        config = tmp_path / "cfg.json"
        config.write_text('{"seed": 1' + "0" * 5000 + "}")
        args = ["--losses", losses] if command == "solve" else []
        code = main([command, *args, "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 3
        assert f"config file {config}: " in capsys.readouterr().err


class TestJsonWriter:
    """The exact bytes of the files the CLI writes."""

    def test_solve_file_bytes_are_frozen(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [0.1, 5e-324, 1e16, 0.0, 2.5])
        out = tmp_path / "solution.json"
        code = main(
            ["solve", "--losses", losses, "--p", "1", "--m", "3",
             "--output", str(out)]
        )
        assert code == 0
        assert out.read_bytes() == (
            b'{\n'
            b'  "pooled_loss": 3333333333333334,\n'
            b'  "alpha_star": 4.9406564584124654e-324,\n'
            b'  "support_indices": [0, 2, 4],\n'
            b'  "weights": [0.33333333333333331, 0, 0.33333333333333331, 0, '
            b'0.33333333333333331],\n'
            b'  "dual": [0.10000000000000001, 0, 10000000000000000, 0, 2.5]\n'
            b'}\n'
        )

    def test_arrays_longer_than_a_chunk(self, tmp_path, capsys):
        n = 3 * _ARRAY_CHUNK + 1
        values = np.random.default_rng(11).exponential(size=n) ** 2
        losses = write_losses(tmp_path / "l.csv", values.tolist())
        out = tmp_path / "solution.json"
        code = main(
            ["solve", "--losses", losses, "--p", "1.3", "--m", "25%",
             "--output", str(out)]
        )
        assert code == 0
        outcome = solve_pool(values, PoolingConfig(p=1.3, m_fraction=0.25))
        support = ", ".join(str(int(i)) for i in outcome.support)
        weights = ", ".join(format(x, ".17g") for x in outcome.weights)
        dual = ", ".join(format(x, ".17g") for x in outcome.dual)
        assert out.read_text().splitlines()[3:6] == [
            f'  "support_indices": [{support}],',
            f'  "weights": [{weights}],',
            f'  "dual": [{dual}]',
        ]

    def test_nested_document_layout(self, tmp_path):
        doc = {
            "empty_dict": {},
            "empty_list": [],
            "flags": [True, False],
            "none": None,
            "text": 'a "b"\u00e9',
            "int": 7,
            "np_int": np.int64(-3),
            "np_float": np.float32(0.1),
            "nested": {
                "rows": [{"x": 0.1}, [1, 2.5]],
                "arr": np.array([[1, 2], [3, 4]]),
            },
        }
        path = tmp_path / "sub" / "doc.json"
        _write_json(path, doc)
        assert path.read_text() == (
            '{\n'
            '  "empty_dict": {},\n'
            '  "empty_list": [],\n'
            '  "flags": [true, false],\n'
            '  "none": null,\n'
            '  "text": "a \\"b\\"\\u00e9",\n'
            '  "int": 7,\n'
            '  "np_int": -3,\n'
            '  "np_float": 0.10000000149011612,\n'
            '  "nested": {\n'
            '    "rows": [{\n'
            '      "x": 0.10000000000000001\n'
            '    }, [1, 2.5]],\n'
            '    "arr": [[1, 2], [3, 4]]\n'
            '  }\n'
            '}\n'
        )

    @staticmethod
    def written_array(tmp_path, values):
        """The text ``_write_json`` gives a 1-D array, between its brackets."""
        path = tmp_path / "array.json"
        _write_json(path, {"a": values})
        text = path.read_text()
        head, tail = '{\n  "a": [', "]\n}\n"
        assert text.startswith(head) and text.endswith(tail)
        return text[len(head):-len(tail)]

    @pytest.mark.parametrize(
        "values",
        [
            pytest.param(
                np.repeat([0.0, 0.1, 1 / 3, 2.5], 2 * _ARRAY_CHUNK // 3 + 1),
                id="ties-over-chunks",
            ),
            pytest.param(
                np.array([5e-324, 1.7976931348623157e308, 5e-324, 0.0]), id="extremes"
            ),
            pytest.param(np.array([0.1, 0.1, 1e-40, 3.0], dtype=np.float32), id="float32"),
            pytest.param(np.full(_ARRAY_CHUNK + 5, 0.7), id="all-equal"),
            pytest.param(np.array([], dtype=np.float64), id="empty"),
        ],
    )
    def test_float_arrays_match_format(self, tmp_path, values):
        expected = ", ".join(format(x, ".17g") for x in values)
        assert self.written_array(tmp_path, values) == expected

    def test_signed_zeros_keep_their_sign(self, tmp_path):
        values = np.array([0.0, -0.0, 1.0, -0.0, 0.0])
        assert self.written_array(tmp_path, values) == "0, -0, 1, -0, 0"

    def test_arrays_from_a_small_pool_match_format(self, tmp_path, monkeypatch):
        # A chunk of 7 entries puts ties within chunks and across their edges.
        monkeypatch.setattr(losspool.cli, "_ARRAY_CHUNK", 7)
        pool = np.array(
            [0.0, -0.0, 0.1, 1 / 3, 2.5, 1e16, 5e-324, 1.7976931348623157e308, -1.5]
        )
        rng = np.random.default_rng(2017)
        for _ in range(200):
            values = rng.choice(pool, size=rng.integers(0, 40))
            expected = ", ".join(format(x, ".17g") for x in values)
            assert self.written_array(tmp_path, values) == expected, values.tolist()


class TestWeightCurvesCommand:
    def run_curves(self, tmp_path, capsys, args=()):
        out = tmp_path / "curves.csv"
        code = main(
            ["weight-curves", "--n", "40", "--seed", "3",
             "--p-list", "1.7,inf", "--m-list", "25%",
             "--output", str(out), *args]
        )
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        return header, rows

    def test_csv_layout(self, tmp_path, capsys):
        header, rows = self.run_curves(tmp_path, capsys)
        assert header == ["pixel_rank", "loss", "w_p1.7_m25%", "w_pinf_m25%"]
        assert len(rows) == 40
        assert [int(r[0]) for r in rows] == list(range(1, 41))
        losses = [float(r[1]) for r in rows]
        assert losses == sorted(losses)
        assert all(v > 0.3 for v in losses)

    def test_columns_reproduce_pooled_values(self, tmp_path, capsys):
        header, rows = self.run_curves(tmp_path, capsys)
        losses = np.array([float(r[1]) for r in rows])
        for col, (p, kwargs) in enumerate(
            [(1.7, {"m_fraction": 0.25}), (np.inf, {"m_fraction": 0.25})], start=2
        ):
            from losspool.solver import PoolingConfig

            weights = np.array([float(r[col]) for r in rows])
            outcome = solve_pool(losses, PoolingConfig(p=p, **kwargs))
            assert abs(weights @ losses - outcome.pooled_loss) <= 1e-9
            np.testing.assert_allclose(weights, outcome.weights, atol=1e-15)

    def test_infinite_p_column_is_uniform(self, tmp_path, capsys):
        header, rows = self.run_curves(tmp_path, capsys)
        uniform = [float(r[3]) for r in rows]
        assert all(v == uniform[0] for v in uniform)
        assert uniform[0] == pytest.approx(1.0 / 40.0, rel=1e-15)

    def test_bad_grid_exits_3(self, tmp_path, capsys):
        code = main(["weight-curves", "--p-list", "0.2", "--m-list", "25%"])
        assert code == 3

    def test_m_beyond_n_exits_3(self, tmp_path, capsys):
        code = main(["weight-curves", "--n", "5", "--m-list", "9"])
        assert code == 3
        assert "m must lie in" in capsys.readouterr().err

    def test_seeded_losses_are_reproducible(self, tmp_path, capsys):
        _, first = self.run_curves(tmp_path, capsys)
        _, second = self.run_curves(tmp_path, capsys)
        assert first == second

    def test_chunked_file_matches_one_built_whole(self, tmp_path, capsys):
        """Rows written a chunk at a time, across chunk ends, hold the bytes
        of a file built from every cell at once."""
        n, out = 2 * _ARRAY_CHUNK + 5, tmp_path / "curves.csv"
        assert main(["weight-curves", "--n", str(n), "--seed", "7", "--output", str(out)]) == 0
        rng = np.random.default_rng(7)
        losses = 0.3 - np.log1p(-(np.arange(n) + rng.uniform(0.05, 0.95, size=n)) / n)
        header, columns = ["pixel_rank", "loss"], [range(1, n + 1), losses.tolist()]
        for p in "1,1.2,1.4,1.7,2,3,4,10,inf".split(","):
            header.append(f"w_p{p}_m33.33%")
            config = PoolingConfig(p=float(p), m_fraction=33.33 / 100.0)
            columns.append(solve_pool(losses, config).weights.tolist())
        rows = [",".join(["%d" % row[0]] + ["%.17g" % x for x in row[1:]]) for row in zip(*columns)]
        assert out.read_text() == "\n".join([",".join(header)] + rows) + "\n"

    def test_peak_memory_is_a_few_columns(self, tmp_path, capsys):
        """Below four times the ten float64 columns; every cell string at
        once took 65.9 MiB at n = 50,000."""
        n = 50_000
        tracemalloc.start()
        try:
            assert main(["weight-curves", "--n", str(n), "--output", str(tmp_path / "c.csv")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 10 * 8 * n


class TestOracleAuditCommand:
    def test_small_audit_passes(self, tmp_path, capsys):
        code = main(
            ["oracle-audit", "--instances", "25", "--seed", "123",
             "--output-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out
        assert "max KKT residual" in out
        assert "max constraint violation" in out
        report = json.loads((tmp_path / "audit_report.json").read_text())
        assert report["all_passed"] is True
        assert len(report["rows"]) == 25
        assert report["worst"]["ascent_rel_err"] <= 1e-4

    def test_zero_tolerance_fails_with_retained_report(self, tmp_path, capsys):
        code = main(
            ["oracle-audit", "--instances", "10", "--rel-tol", "0",
             "--output-dir", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out
        assert "retained" in out
        report = json.loads((tmp_path / "audit_report.json").read_text())
        assert report["all_passed"] is False

    @pytest.mark.parametrize(
        "argv,key",
        [
            (["--rel-tol", "-1"], "rel_tol"),
            (["--kkt-tol=-1e-9"], "kkt_tol"),
            (["--config", "tol.json"], "rel_tol"),
        ],
        ids=["rel-tol-flag", "kkt-tol-flag", "rel-tol-config"],
    )
    def test_negative_tolerance_exits_3_without_a_report(self, tmp_path, capsys, argv, key):
        (tmp_path / "tol.json").write_text(json.dumps({"rel_tol": -1e-4}))
        code = main(["oracle-audit", "--instances", "3", *argv, "--output-dir", str(tmp_path)])
        assert code == 3
        assert f"bad {key} value" in capsys.readouterr().err
        assert not (tmp_path / "audit_report.json").exists()

    @pytest.mark.parametrize(
        "config_doc,fragment",
        [({"instances": "many"}, "instances"), ({"seed": -1}, "non-negative")],
    )
    def test_bad_config_value_exits_3(self, tmp_path, capsys, config_doc, fragment):
        config = tmp_path / "audit.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            ["oracle-audit", "--config", str(config), "--output-dir", str(tmp_path)]
        )
        assert code == 3
        assert fragment in capsys.readouterr().err

    def test_audit_rows_are_deterministic(self, tmp_path, capsys):
        for sub in ("a", "b"):
            code = main(
                ["oracle-audit", "--instances", "15", "--seed", "7",
                 "--output-dir", str(tmp_path / sub)]
            )
            assert code == 0
        capsys.readouterr()
        row_sets = [
            json.loads((tmp_path / sub / "audit_report.json").read_text())["rows"]
            for sub in ("a", "b")
        ]
        assert row_sets[0] == row_sets[1]


    def test_report_bytes_are_frozen(self, tmp_path, capsys):
        """Every line of the report but the timing, row keys in field order."""
        code = main(
            ["oracle-audit", "--instances", "3", "--seed", "0",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "audit_report.json").read_bytes().splitlines(True)
        assert lines[5].startswith(b'  "elapsed_seconds": ')
        del lines[5]
        assert b"".join(lines) == (
            b'{\n'
            b'  "instances": 3,\n'
            b'  "seed": 0,\n'
            b'  "rel_tol": 0.0001,\n'
            b'  "kkt_tol": 9.9999999999999995e-07,\n'
            b'  "all_passed": true,\n'
            b'  "worst": {\n'
            b'    "ascent_rel_err": 2.6710823010359325e-13,\n'
            b'    "scan_rel_err": 3.9752911157142062e-16,\n'
            b'    "kkt_residual": 1.1102230246251565e-16,\n'
            b'    "constraint_violation": 0\n'
            b'  },\n'
            b'  "rows": [{\n'
            b'    "index": 0,\n'
            b'    "n": 43,\n'
            b'    "p": 2,\n'
            b'    "m": 38.391522784201278,\n'
            b'    "solver_value": 0.55856187248097544,\n'
            b'    "ascent_value": 0.55856187248097533,\n'
            b'    "scan_value": 0.55856187248097522,\n'
            b'    "ascent_rel_err": 1.9876455578571031e-16,\n'
            b'    "scan_rel_err": 3.9752911157142062e-16,\n'
            b'    "kkt_residual": 5.5511151231257827e-17,\n'
            b'    "constraint_violation": 0,\n'
            b'    "passed": true\n'
            b'  }, {\n'
            b'    "index": 1,\n'
            b'    "n": 14,\n'
            b'    "p": 1.3,\n'
            b'    "m": 2.1797895930485849,\n'
            b'    "solver_value": 3.1239906946507912,\n'
            b'    "ascent_value": 3.1239906946499567,\n'
            b'    "scan_value": 3.1239906946507907,\n'
            b'    "ascent_rel_err": 2.6710823010359325e-13,\n'
            b'    "scan_rel_err": 1.4215445987418481e-16,\n'
            b'    "kkt_residual": 0,\n'
            b'    "constraint_violation": 0,\n'
            b'    "passed": true\n'
            b'  }, {\n'
            b'    "index": 2,\n'
            b'    "n": 32,\n'
            b'    "p": 1.7,\n'
            b'    "m": 31.151493228511605,\n'
            b'    "solver_value": 0.64265510520311153,\n'
            b'    "ascent_value": 0.64265510520311164,\n'
            b'    "scan_value": 0.64265510520311153,\n'
            b'    "ascent_rel_err": 1.7275565317018212e-16,\n'
            b'    "scan_rel_err": 0,\n'
            b'    "kkt_residual": 1.1102230246251565e-16,\n'
            b'    "constraint_violation": 0,\n'
            b'    "passed": true\n'
            b'  }]\n'
            b'}\n'
        )


class TestTrainDemoCommand:
    def demo_args(self, tmp_path, extra=()):
        config = tmp_path / "demo.json"
        config.write_text(json.dumps({
            "dataset": {"image_size": [16, 16], "images": 10,
                         "class_pixel_fractions": [0.8, 0.15, 0.05]},
            "train": {"iterations": 12},
        }))
        return ["train-demo", "--config", str(config),
                "--output-dir", str(tmp_path), *extra]

    def test_writes_reports_models_and_iou_table(self, tmp_path, capsys):
        code = main(self.demo_args(tmp_path, ["--seeds", "1,2"]))
        out = capsys.readouterr().out
        assert code == 0
        for mode in ("uniform", "lmp"):
            for seed in (1, 2):
                assert (tmp_path / f"report_{mode}_seed{seed}.json").exists()
                assert (tmp_path / f"model_{mode}_seed{seed}.bin").exists()
        table = (tmp_path / "iou_by_class.csv").read_text().strip().splitlines()
        assert table[0] == "seed,mode,iou_class0,iou_class1,iou_class2,mean_iou"
        assert len(table) == 1 + 4  # 2 seeds x 2 modes
        assert "lmp beats uniform on class 2 IoU in" in out

    def test_report_json_is_loadable(self, tmp_path, capsys):
        assert main(self.demo_args(tmp_path, ["--seeds", "3", "--modes", "lmp"])) == 0
        doc = json.loads((tmp_path / "report_lmp_seed3.json").read_text())
        assert doc["config_echo"]["loss_mode"] == "lmp"
        assert doc["config_echo"]["seed"] == 3
        assert len(doc["loss_history"]) == 12
        assert len(doc["per_class_iou"]) == 3

    def test_single_mode_prints_no_comparison(self, tmp_path, capsys):
        code = main(self.demo_args(tmp_path, ["--seeds", "1", "--modes", "uniform"]))
        out = capsys.readouterr().out
        assert code == 0
        assert "beats" not in out

    @pytest.mark.parametrize(
        "config_doc,extra",
        [
            ({"train": {"lr0": 1e200, "iterations": 5}}, ["--modes", "uniform"]),
            ({"train": {"iterations": 5}}, ["--modes", "uniform,lmp", "--sigma", "1e200"]),
        ],
        ids=["huge-lr", "huge-sigma"],
    )
    def test_divergence_exits_1(self, tmp_path, capsys, config_doc, extra):
        config = tmp_path / "demo.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            ["train-demo", "--seeds", "1", *extra,
             "--config", str(config), "--output-dir", str(tmp_path)]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("losspool: training failed:")

    @pytest.mark.parametrize(
        "config_doc,fragment",
        [
            ({"train": {"seed": 4}}, "train.seed"),
            ({"train": {"loss_mode": "lmp"}}, "train.loss_mode"),
            ({"dataset": {"seed": 4}}, "dataset.seed"),
            ({"mystery": 1}, "mystery"),
            ({"train": {"lr0": -1.0}}, "lr0"),
            ({"dataset": 5}, "dataset"),
        ],
    )
    def test_bad_config_exits_3_naming_the_key(
        self, tmp_path, capsys, config_doc, fragment
    ):
        config = tmp_path / "demo.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            ["train-demo", "--seeds", "1", "--config", str(config),
             "--output-dir", str(tmp_path)]
        )
        assert code == 3
        assert fragment in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_doc,key",
        [
            ({"train": {"iteratoins": 3}}, "iteratoins"),
            ({"dataset": {"imagse": 4}}, "imagse"),
            ({"train": {"pooling": {"pp": 2}}}, "pp"),
            ({"train": {"sampler": {"blnd": 0.1}}}, "blnd"),
        ],
        ids=["train", "dataset", "train.pooling", "train.sampler"],
    )
    def test_unknown_nested_key_exits_3_and_writes_nothing(
        self, tmp_path, capsys, config_doc, key
    ):
        config = tmp_path / "demo.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            ["train-demo", "--seeds", "1", "--config", str(config),
             "--output-dir", str(tmp_path / "out")]
        )
        assert code == 3
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_output_bytes_are_frozen(self, tmp_path, capsys):
        """Reports but their timing line, the IoU table and the models."""
        config = tmp_path / "demo.json"
        config.write_text(json.dumps({"train": {"sampler": {}}}))
        out = tmp_path / "out"
        code = main(
            ["train-demo", "--seeds", "1", "--modes", "uniform,inverse_median_freq,lmp",
             "--iterations", "6", "--config", str(config), "--output-dir", str(out)]
        )
        assert code == 0
        heads = {
            "uniform": (
                b'{\n'
                b'  "per_class_iou": [0.91245376078914919, 0.15076335877862596, 0],\n'
                b'  "mean_iou": 0.35440570652259168,\n'
                b'  "loss_history": [1.09861228866811, 0.73105891114696531, 0.43971903033280396, 0.2564498157329741, 0.23013223727154661, 0.30035486401646488],\n'
            ),
            "inverse_median_freq": (
                b'{\n'
                b'  "per_class_iou": [0.38718394132406869, 0.34870075440067055, 0.022522522522522521],\n'
                b'  "mean_iou": 0.25280240608242061,\n'
                b'  "loss_history": [0.41004283867793478, 0.39047615831382021, 0.48356917416023987, 0.38115426630960186, 0.29749666974683725, 0.3010232949969367],\n'
            ),
            "lmp": (
                b'{\n'
                b'  "per_class_iou": [0.95640930919837464, 0.6205607476635514, 0.016666666666666666],\n'
                b'  "mean_iou": 0.53121224117619759,\n'
                b'  "loss_history": [1.09861228866811, 0.81847598238290831, 0.72019246223907407, 0.51910048390587449, 0.47756256951666859, 0.51748813609338284],\n'
            ),
        }
        config_echo = (
            b'  "config_echo": {\n'
            b'    "loss_mode": "%b",\n'
            b'    "pooling": {\n'
            b'      "p": 1.3,\n'
            b'      "m": null,\n'
            b'      "m_fraction": 0.25\n'
            b'    },\n'
            b'    "lr0": 0.5,\n'
            b'    "momentum": 0.90000000000000002,\n'
            b'    "poly_power": 0.90000000000000002,\n'
            b'    "iterations": 6,\n'
            b'    "batch_crops": 8,\n'
            b'    "crop_size": [12, 12],\n'
            b'    "sampler": {\n'
            b'      "blend": 0.5,\n'
            b'      "epsilon": 0.01\n'
            b'    },\n'
            b'    "weight_decay": 0.0001,\n'
            b'    "seed": 1\n'
            b'  },\n'
            b'}\n'
        )
        for mode, head in heads.items():
            lines = (out / f"report_{mode}_seed1.json").read_bytes().splitlines(True)
            assert lines[-2].startswith(b'  "wall_time": ')
            del lines[-2]
            assert b"".join(lines) == head + config_echo % mode.encode()
        assert (out / "iou_by_class.csv").read_bytes() == (
            b'seed,mode,iou_class0,iou_class1,iou_class2,mean_iou\n'
            b'1,uniform,0.91245376078914919,0.15076335877862596,0,0.35440570652259168\n'
            b'1,inverse_median_freq,0.38718394132406869,0.34870075440067055,0.022522522522522521,0.25280240608242061\n'
            b'1,lmp,0.95640930919837464,0.6205607476635514,0.016666666666666666,0.53121224117619759\n'
        )
        models = {
            "uniform": "c211ce3ee5476baf19f627381adc01cf754ea7433d7481c8478b6d50dc8c6ee3",
            "inverse_median_freq": "e2036c6d592ec1f67e571c615599ebfdefb4490e0345b747b36c3ff7b154f801",
            "lmp": "f4ccd4b6b0225ed4f3c5c56c608eb101f8def82839d6d683ee181fb90e5307fb",
        }
        for mode, digest in models.items():
            data = (out / f"model_{mode}_seed1.bin").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest

    def clipped_crop_args(self, tmp_path, m, modes="uniform,lmp"):
        # 24x24 images and 12x12 crops: a corner crop keeps 7x7 = 49 pixels.
        config = tmp_path / "demo.json"
        config.write_text(json.dumps(
            {"train": {"iterations": 3, "pooling": {"p": 1.3, "m": m}}}
        ))
        return ["train-demo", "--seeds", "1", "--modes", modes,
                "--config", str(config), "--output-dir", str(tmp_path / "out")]

    def test_absolute_m_beyond_the_smallest_crop_exits_3(self, tmp_path, capsys):
        assert main(self.clipped_crop_args(tmp_path, 60)) == 3
        assert "smallest crop" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_absolute_m_of_the_smallest_crop_runs(self, tmp_path, capsys):
        assert main(self.clipped_crop_args(tmp_path, 49)) == 0

    def test_uniform_mode_ignores_the_pooling_m(self, tmp_path, capsys):
        assert main(self.clipped_crop_args(tmp_path, 60, modes="uniform")) == 0

    def test_unknown_mode_exits_3(self, tmp_path, capsys):
        code = main(
            ["train-demo", "--seeds", "1", "--modes", "focal",
             "--output-dir", str(tmp_path)]
        )
        assert code == 3

    @pytest.mark.parametrize(
        "config_doc,fragment",
        [
            ({"train": {"poly_power": math.inf, "iterations": 3}}, "poly_power"),
            ({"train": {"crop_size": [12]}}, "crop_size"),
            ({"dataset": {"image_size": [24, 24, 24]}}, "image_size"),
            ({"dataset": [["images", 4]]}, "bad dataset value"),
            ({"train": [["iterations", 3]]}, "bad train value"),
            ({"train": {"pooling": [["m", 25]]}}, "train.pooling"),
            ({"train": {"pooling": {"m": 25, "m_fraction": 0.5}}}, "exactly one of m"),
            ({"dataset": {"class_pixel_fractions": [0.999, 0.0005, 0.0005]}}, "class 1"),
            ({"train": {"crop_size": "12"}}, "bad train.crop_size value '12'"),
            ({"train": {"crop_size": {"1": 0, "2": 0}}}, "bad train.crop_size value {"),
            ({"dataset": {"image_size": "99"}}, "bad dataset.image_size value '99'"),
        ],
        ids=["infinite-power", "short-crop", "long-image", "dataset-pairs", "train-pairs",
             "pooling-pairs", "m-and-fraction", "starved-class", "crop-string", "crop-object",
             "image-string"],
    )
    def test_config_faults_exit_3_naming_the_key_and_write_nothing(
        self, tmp_path, capsys, config_doc, fragment
    ):
        config = tmp_path / "demo.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            ["train-demo", "--seeds", "1", "--config", str(config),
             "--output-dir", str(tmp_path / "out")]
        )
        assert code == 3
        assert fragment in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_pooling_values_convert_like_other_floats(self, tmp_path, capsys):
        assert main(self.clipped_crop_args(tmp_path, "25")) == 0
        doc = json.loads((tmp_path / "out" / "report_lmp_seed1.json").read_text())
        assert doc["config_echo"]["pooling"] == {"p": 1.3, "m": 25.0, "m_fraction": None}

    def test_merging_flags_leaves_the_option_defaults_alone(self, tmp_path, capsys):
        argv = ["train-demo", "--seeds", "1", "--modes", "uniform", "--sigma", "0.3",
                "--iterations", "2", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert _DEMO_OPTIONS["dataset"][0] == {} and _DEMO_OPTIONS["train"][0] == {}


class TestOptionTables:
    """Every option is converted once, whether it comes as a flag or a config key."""

    FLAGS = {
        "solve": {"--losses", "--p", "--m", "--output"},
        "weight-curves": {"--n", "--seed", "--p-list", "--m-list", "--output"},
        "oracle-audit": {"--instances", "--seed", "--rel-tol", "--kkt-tol"},
        "train-demo": {"--seeds", "--modes", "--sigma", "--iterations"},
    }

    def test_each_subcommand_has_exactly_its_flags(self):
        parser = _build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == set(self.FLAGS)
        for command, flags in self.FLAGS.items():
            found = {
                flag
                for action in sub.choices[command]._actions
                for flag in action.option_strings
            }
            assert found == flags | {"-h", "--help", "--output-dir", "--config"}, command

    @pytest.mark.parametrize(
        "command,key,text,value",
        [
            ("weight-curves", "n", "2.5", 2.5),
            ("oracle-audit", "instances", "0", 0),
            ("oracle-audit", "seed", "-1", -1),
            ("train-demo", "seeds", "1,x", "1,-2"),
            ("train-demo", "iterations", "2.5", 2.5),
            ("train-demo", "sigma", "noisy", "noisy"),
        ],
    )
    def test_bad_value_exits_3_naming_the_key_as_flag_and_as_config(
        self, tmp_path, capsys, command, key, text, value
    ):
        flag = "--" + key.replace("_", "-")
        out = ["--output-dir", str(tmp_path / "out")]
        assert main([command, flag, text, *out]) == 3
        assert f"bad {key} value {text!r}" in capsys.readouterr().err
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        assert main([command, "--config", str(config), *out]) == 3
        assert f"bad {key} value {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,config_doc,key",
        [
            ("oracle-audit", {"instances": 2.5}, "instances"),
            ("oracle-audit", {"instances": 2, "seed": True}, "seed"),
            ("weight-curves", {"n": True}, "n"),
            ("train-demo", {"train": {"iterations": 2.5}}, "train.iterations"),
            ("train-demo", {"dataset": {"images": 10.9}}, "dataset.images"),
            ("train-demo", {"train": {"batch_crops": True}}, "train.batch_crops"),
        ],
    )
    def test_integer_options_reject_fractions_and_bools(
        self, tmp_path, capsys, command, config_doc, key
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            [command, "--config", str(config), "--output-dir", str(tmp_path / "out")]
            + (["--seeds", "1", "--modes", "uniform"] if command == "train-demo" else [])
        )
        assert code == 3
        assert f"bad {key} value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,config_doc,key",
        [
            ("oracle-audit", {"rel_tol": True}, "rel_tol"),
            ("oracle-audit", {"kkt_tol": False}, "kkt_tol"),
            ("train-demo", {"sigma": True}, "sigma"),
            ("train-demo", {"train": {"lr0": True}}, "train.lr0"),
            ("train-demo", {"train": {"pooling": {"p": True}}}, "train.pooling.p"),
            ("train-demo", {"train": {"pooling": {"m": True}}}, "train.pooling.m"),
            ("train-demo", {"train": {"pooling": {"m_fraction": True}}},
             "train.pooling.m_fraction"),
            ("train-demo", {"train": {"sampler": {"blend": True}}}, "train.sampler.blend"),
            ("train-demo", {"dataset": {"feature_noise": True}}, "dataset.feature_noise"),
        ],
    )
    def test_float_options_reject_bools(self, tmp_path, capsys, command, config_doc, key):
        # float(True) is 1.0: without the check these ran with a tolerance,
        # a learning rate or a pooling parameter of 1.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            [command, "--config", str(config), "--output-dir", str(tmp_path / "out")]
            + (["--seeds", "1", "--modes", "lmp", "--iterations", "1"]
               if command == "train-demo" else ["--instances", "2"])
        )
        assert code == 3
        assert f"bad {key} value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config_doc,key",
        [
            ({"train": {"crop_size": [2.5, 3]}}, "train.crop_size"),
            ({"train": {"crop_size": [True, 3]}}, "train.crop_size"),
            ({"dataset": {"image_size": [24, 24.5]}}, "dataset.image_size"),
        ],
    )
    def test_tuple_items_follow_the_default(self, tmp_path, capsys, config_doc, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            ["train-demo", "--config", str(config), "--output-dir", str(tmp_path / "out"),
             "--seeds", "1", "--modes", "uniform", "--iterations", "1"]
        )
        assert code == 3
        assert f"bad {key} value" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command,argv,config_doc,key",
        [
            ("train-demo", ["--sigma", "nan"], {}, "bad sigma value"),
            ("train-demo", [], {"dataset": {"feature_noise": math.inf}}, "feature_noise"),
            ("train-demo", [], {"dataset": {"class_pixel_fractions": [math.nan, 0.5, 0.5]}},
             "bad dataset.class_pixel_fractions value"),
            ("train-demo", [], {"train": {"sampler": {"epsilon": math.inf}}}, "epsilon"),
            ("train-demo", [], {"train": {"lr0": math.inf}}, "lr0"),
            ("train-demo", [], {"train": {"weight_decay": math.nan}},
             "bad train.weight_decay value"),
            ("oracle-audit", [], {"rel_tol": math.nan}, "bad rel_tol value"),
        ],
        ids=["sigma", "feature-noise", "fractions", "epsilon", "lr0", "weight-decay",
             "rel-tol"],
    )
    def test_non_finite_values_exit_3_naming_the_key(
        self, tmp_path, capsys, command, argv, config_doc, key
    ):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(config_doc))
        code = main(
            [command, *argv, "--config", str(config), "--output-dir", str(tmp_path / "out")]
            + (["--seeds", "1", "--modes", "lmp", "--iterations", "1"]
               if command == "train-demo" else ["--instances", "2"])
        )
        assert code == 3
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_integral_tuple_items_are_integers(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"dataset": {"image_size": [24, 24.0]}}))
        code = main(
            ["train-demo", "--config", str(config), "--output-dir", str(tmp_path / "out"),
             "--seeds", "1", "--modes", "uniform", "--iterations", "1"]
        )
        assert code == 0

    def test_integral_json_numbers_are_integers(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"instances": 2.0, "seed": 4.0}))
        code = main(["oracle-audit", "--config", str(config), "--output-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "audit_report.json").read_text())
        assert (report["instances"], report["seed"]) == (2, 4)


def run_module(*argv, python_flags=(), stdout=subprocess.PIPE):
    """Run ``python -m losspool *argv`` in a child process."""
    # The autouse fixture has changed directory, so a relative PYTHONPATH
    # (such as ``src``) no longer resolves; point the child at the
    # directory that holds the package this process imported.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(losspool.__file__)))
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "losspool", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=60,
    )


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        losses = write_losses(tmp_path / "l.csv", [3.0, 1.0])
        proc = run_module(
            "solve", "--losses", losses, "--p", "2", "--m", "1",
            "--output-dir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2.23606798", proc.stderr

    def test_conjugate_exponent_near_one_solves_silently(self, tmp_path):
        """p = 1.00005 (q about 2e4) takes the threshold scan, silently."""
        losses = write_losses(tmp_path / "l.csv", np.linspace(0.1, 2.0, 20))
        proc = run_module(
            "solve", "--losses", losses, "--p", "1.00005", "--m", "10",
            "--output-dir", str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    @pytest.mark.parametrize("python_flags", [(), ("-u",)], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv,code,written",
        [
            (["solve", "--losses", "{losses}", "--p", "2", "--m", "1"], 0,
             ["losspool_solve.json"]),
            (["oracle-audit", "--instances", "3"], 0, ["audit_report.json"]),
            (["oracle-audit", "--instances", "3", "--rel-tol", "0"], 1,
             ["audit_report.json"]),
            (["weight-curves", "--n", "20"], 0, ["weight_curves.csv"]),
            (["train-demo", "--seeds", "1,2", "--modes", "uniform", "--iterations", "2"],
             0, ["report_uniform_seed2.json", "model_uniform_seed2.bin",
                 "iou_by_class.csv"]),
        ],
        ids=["solve", "audit-pass", "audit-fail", "weight-curves", "train-demo"],
    )
    def test_closed_stdout_keeps_files_and_exit_code(
        self, tmp_path, python_flags, argv, code, written
    ):
        losses = write_losses(tmp_path / "l.csv", [3.0, 1.0])
        argv = [arg.format(losses=losses) for arg in argv]
        # The reader has gone before the command prints its first line.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_module(
                *argv, "--output-dir", str(tmp_path),
                python_flags=python_flags, stdout=write_end,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        for name in written:
            assert (tmp_path / name).is_file(), name

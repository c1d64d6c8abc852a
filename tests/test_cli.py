"""End-to-end tests of the command-line interface.

Everything runs in process through ``main(argv)`` (fast, and coverage sees
it); one final test runs ``python -m losspool`` in a child process against
the same ``losspool`` these tests imported, whether that is installed or on
``src/``.  The exit code contract: 0 success, 1 verification or training
failure, 2 malformed input data, 3 invalid parameters.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import losspool
from losspool.cli import (
    InputDataError,
    _ARRAY_CHUNK,
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

    def test_csv_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("loss\n1.5\n\n\n2.5\nx\n")
        assert main(["solve", "--losses", str(path), "--p", "2", "--m", "1"]) == 2
        assert "line 6" in capsys.readouterr().err


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

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        losses = write_losses(tmp_path / "l.csv", [3.0, 1.0])
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"p": 2, "m": "1"}))
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
            b'    "ascent_rel_err": 5.5369162120994978e-13,\n'
            b'    "scan_rel_err": 3.4551130634036419e-16,\n'
            b'    "kkt_residual": 1.1102230246251565e-16,\n'
            b'    "constraint_violation": 0\n'
            b'  },\n'
            b'  "rows": [{\n'
            b'    "index": 0,\n'
            b'    "n": 43,\n'
            b'    "p": 2,\n'
            b'    "m": 38.391522784201278,\n'
            b'    "solver_value": 0.55856187248097544,\n'
            b'    "ascent_value": 0.55856187248097422,\n'
            b'    "scan_value": 0.55856187248097544,\n'
            b'    "ascent_rel_err": 2.1864101136428133e-15,\n'
            b'    "scan_rel_err": 0,\n'
            b'    "kkt_residual": 5.5511151231257827e-17,\n'
            b'    "constraint_violation": 0,\n'
            b'    "passed": true\n'
            b'  }, {\n'
            b'    "index": 1,\n'
            b'    "n": 14,\n'
            b'    "p": 1.3,\n'
            b'    "m": 2.1797895930485849,\n'
            b'    "solver_value": 3.1239906946507912,\n'
            b'    "ascent_value": 3.1239906946490614,\n'
            b'    "scan_value": 3.1239906946507907,\n'
            b'    "ascent_rel_err": 5.5369162120994978e-13,\n'
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
            b'    "ascent_value": 0.64265510520311109,\n'
            b'    "scan_value": 0.64265510520311175,\n'
            b'    "ascent_rel_err": 6.9102261268072858e-16,\n'
            b'    "scan_rel_err": 3.4551130634036419e-16,\n'
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

    def test_divergence_exits_1(self, tmp_path, capsys):
        config = tmp_path / "demo.json"
        config.write_text(json.dumps({"train": {"lr0": 1e200, "iterations": 5}}))
        code = main(
            ["train-demo", "--seeds", "1", "--modes", "uniform",
             "--config", str(config), "--output-dir", str(tmp_path)]
        )
        assert code == 1
        assert "training failed" in capsys.readouterr().err

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


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        losses = write_losses(tmp_path / "l.csv", [3.0, 1.0])
        # The autouse fixture has changed directory, so a relative PYTHONPATH
        # (such as ``src``) no longer resolves; point the child at the
        # directory that holds the package this process imported.
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(losspool.__file__))
        )
        env = os.environ.copy()
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "losspool", "solve",
             "--losses", losses, "--p", "2", "--m", "1",
             "--output-dir", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "2.23606798", proc.stderr

"""Command-line interface: exit codes, determinism, headers, formats."""

import json
import math

import pytest

from qplancherel import cli
from qplancherel.cli import (
    EXIT_CAPACITY,
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    RunConfig,
    main,
    parse_config_file,
)
from qplancherel.dynamics import limit_moments
from qplancherel.qmeasure import QParam


class TestRunConfig:
    def test_validate_accepts_defaults(self):
        RunConfig(command="verify").validate()

    def test_q_range(self):
        with pytest.raises(ConfigError):
            RunConfig(command="verify", q=1.5).validate()
        with pytest.raises(ConfigError):
            RunConfig(command="verify", q=-0.1).validate()

    def test_other_ranges(self):
        with pytest.raises(ConfigError):
            RunConfig(command="verify", trials=0).validate()
        with pytest.raises(ConfigError):
            RunConfig(command="verify", format="yaml").validate()
        with pytest.raises(ConfigError):
            RunConfig(
                command="verify", tolerances={"tol_hook_identity": -1.0}
            ).validate()


class TestConfigFile:
    def test_parse_plain_and_header_lines(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# schema=qplancherel/1\n"
            "# command=simulate\n"
            "q=0.25\n"
            "# n=50\n"
            "trials = 7\n"
            "tol_pushforward=1e-11\n"
            "## summary p1: mean=1.0 stderr=0.1\n"
            "plain text line without equals\n"
        )
        values = parse_config_file(str(path))
        assert values["q"] == 0.25
        assert values["n"] == 50
        assert values["trials"] == 7
        assert values["tolerances"] == {"tol_pushforward": 1e-11}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("qq=0.5\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(str(path))

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("n=three\n")
        with pytest.raises(ConfigError):
            parse_config_file(str(path))

    def test_missing_file_is_config_error(self):
        assert main(["verify", "--config", "/nonexistent/x.conf"]) == EXIT_CONFIG


class TestExitCodes:
    def test_q_out_of_range_rejected_before_compute(self, capsys):
        assert main(["simulate", "--q", "1.5"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert main(["simulate", "--bogus", "1"]) == EXIT_CONFIG

    def test_pushforward_capacity(self, capsys):
        assert main(["pushforward", "--n", "10"]) == EXIT_CAPACITY
        assert "capacity error" in capsys.readouterr().err

    def test_env_cap_applies(self, monkeypatch, capsys):
        monkeypatch.setenv("QPL_MAX_N", "4")
        assert main(["pushforward", "--n", "6"]) == EXIT_CAPACITY
        capsys.readouterr()

    def test_zero_trials(self, capsys):
        assert main(["simulate", "--trials", "0"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_limit_shape_needs_deformed_parameter(self, capsys):
        assert main(["limit-shape", "--q", "1.0"]) == EXIT_CONFIG
        capsys.readouterr()

    def test_simulate_needs_deformed_parameter(self, capsys):
        assert main(["simulate", "--q", "1.0"]) == EXIT_CONFIG
        assert "simulate needs q in (0, 1)" in capsys.readouterr().err

    def test_unwritable_output_path(self, capsys):
        code = main(["pushforward", "--n", "3", "--out", "/nonexistent/d/f.csv"])
        assert code == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err


class TestVerifyCommand:
    def test_default_run_passes_all_suites(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "suite,max_error,tolerance,passed" in lines
        data = lines[lines.index("suite,max_error,tolerance,passed") + 1 :]
        assert len(data) >= 7
        assert all(row.endswith(",true") for row in data)

    def test_tampered_tolerance_fails_naming_suite(self, tmp_path, capsys):
        conf = tmp_path / "tight.conf"
        conf.write_text("tol_markov_krein=1e-30\n")
        out_file = tmp_path / "report.csv"
        code = main(
            ["verify", "--config", str(conf), "--out", str(out_file)]
        )
        assert code == EXIT_CHECK_FAILED
        assert "verify: FAIL markov_krein" in capsys.readouterr().err
        report = out_file.read_text()
        assert "# tol_markov_krein=" in report
        failing = [
            row
            for row in report.splitlines()
            if row.startswith("markov_krein,")
        ]
        assert failing and failing[0].endswith(",false")

    def test_json_report(self, capsys):
        assert main(["verify", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "qplancherel/1"
        assert payload["passed"] is True
        assert len(payload["suites"]) >= 7
        names = {suite["name"] for suite in payload["suites"]}
        assert {"hook_identity", "kernel_oracle", "pushforward"} <= names


class TestSimulateCommand:
    ARGS = ["simulate", "--n", "60", "--trials", "8", "--seed", "42"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_saved_header_reproduces_run(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == EXIT_OK
        assert main(["simulate", "--config", str(a), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_flags_beat_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("trials=5\nseed=1\n")
        out = tmp_path / "out.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(conf),
                "--n",
                "10",
                "--trials",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert "# trials=2" in text
        assert "# seed=1" in text
        rows = [
            line
            for line in text.splitlines()
            if line and line[0].isdigit()
        ]
        assert len(rows) == 2

    def test_json_schema_and_exact_values(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        summary = payload["summary"]
        assert set(summary) == {
            "n",
            "q",
            "trials",
            "seed",
            "moments",
            "stderr",
            "targets",
        }
        assert summary["n"] == 60 and summary["trials"] == 8
        assert len(payload["trajectories"]) == 8
        # 17 significant digits round-trip the targets exactly
        exact = limit_moments(QParam(0.5), 3).values
        assert tuple(summary["targets"]) == exact

    def test_second_level_marginal_is_binomial(self, tmp_path):
        # two growth steps at the rescaled parameter q^(1/sqrt 2): the
        # chance of the row shape is 1/(1 + q_sim); 3 sigma band
        trials = 20000
        out = tmp_path / "two.csv"
        code = main(
            [
                "simulate",
                "--n",
                "2",
                "--trials",
                str(trials),
                "--seed",
                "12",
                "--moments",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = [
            line.split(",")
            for line in out.read_text().splitlines()
            if line and line[0].isdigit()
        ]
        assert len(rows) == trials
        q_sim = 0.5 ** (1.0 / math.sqrt(2.0))
        p_two = 1.0 / (1.0 + q_sim)
        frac = sum(1 for row in rows if row[1] == "2") / trials
        sigma = math.sqrt(p_two * (1.0 - p_two) / trials)
        assert abs(frac - p_two) < 3.0 * sigma


class TestLimitShapeCommand:
    def test_saved_header_reproduces_run(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["limit-shape", "--q", "0.5", "--moments", "4"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(["limit-shape", "--config", str(a), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_tables_and_equation_residual(self, capsys):
        assert main(["limit-shape", "--q", "0.5", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        table = payload["r_table"]
        assert len(table) == 25
        rs = [row["r"] for row in table]
        assert all(a > b for a, b in zip(rs, rs[1:]))  # decreasing in x
        qp = QParam(0.5)
        c = qp.log_inv / (1.0 - qp.q)
        for row in table[:3]:
            residual = row["r"] * (
                1.0 - qp.q ** (row["x"] - c * row["r"])
            ) - (1.0 - qp.q)
            assert abs(residual) < 1e-9

    def test_moment_table_ties_the_two_routes(self, capsys):
        assert main(["limit-shape", "--q", "0.7", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        moments = payload["moments"]
        # h_1 = p_1 and both columns come from independent computations
        first = moments[0]
        assert first["h"] == pytest.approx(first["p"], rel=1e-8)

    def test_csv_has_both_tables(self, capsys):
        assert main(["limit-shape", "--q", "0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "## table=r" in out
        assert "## table=moments" in out
        assert "x,r" in out and "n,p,h" in out


class TestPushforwardCommand:
    def test_distribution_matches_reference_column(self, capsys):
        assert main(["pushforward", "--n", "5", "--q", "0.4"]) == EXIT_OK
        out = capsys.readouterr().out
        rows = [
            line.split(",")
            for line in out.splitlines()
            if line and not line.startswith(("#", "shape"))
        ]
        assert len(rows) == 7  # partitions of 5
        total = 0.0
        for _, prob, reference in rows:
            assert float(prob) == pytest.approx(float(reference), abs=1e-12)
            total += float(prob)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_json_output(self, capsys):
        assert main(["pushforward", "--n", "3", "--q", "0.5", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        shapes = [tuple(d["shape"]) for d in payload["distribution"]]
        assert set(shapes) == {(3,), (2, 1), (1, 1, 1)}


class TestFormatting:
    def test_seventeen_digit_floats(self):
        assert cli._fmt(1.0 / 3.0) == "0.33333333333333331"
        assert cli._fmt(0.5) == "0.5"

    def test_json_text_matches_contract(self):
        text = cli._json_text({"a": 1.0 / 3.0, "b": [1, 2.5], "c": None})
        parsed = json.loads(text)
        assert parsed["a"] == 1.0 / 3.0
        assert parsed["b"] == [1, 2.5]
        assert parsed["c"] is None

"""Command-line interface: exit codes, determinism, headers, formats."""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import qplancherel
from qplancherel import checks, cli, diagrams, dynamics, growth, kernel, limitshape
from qplancherel import moments, qmeasure
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
from qplancherel.moments import MomentVector
from qplancherel.qmeasure import QParam

from oracles import classical_r, random_partitions_by_level


# SHA-256 of each command's stdout under these flags.  The simulate runs
# without --q 1 were recorded with libm's exp and expm1; the rest keep
# their first recorded bits
FROZEN_STDOUT = {
    "verify": [
        ("", "e8f99ca4c0abd22e40a5fc51725e6013c8d872c2ce32d2712e1d083761ac5cf5"),
        ("--format json", "cdf51ed2fc42928b03abf02e4fe49d1745a52cf1e6f032e3045b236ba0d3c6e6"),
    ],
    "simulate": [
        ("", "eda915df66787e2a7eabe2d44fb1c66e33d44924ef1d4f838cbc58d28b282225"),
        ("--format json", "3775d2cc967cba1ca02caf6c5a17bb7ec2901f6b8aba4c83ed76aabceee5b05a"),
        ("--q 1 --n 50 --trials 4", "41e37009af33b645e4d9b3916aa88ec1d336e6295af621306f3f83e1142ef9fd"),
        (
            "--q 0.5 --n 2000 --trials 3 --seed 12345 --format json",
            "a520c97a28fee7b1de6877f5af5ebb0c5e158fc060d77cef53e487a611ce017a",
        ),
    ],
    "limit-shape": [
        ("--q 0.5 --format json", "7a5e12ce2680d54ebfb9400fd50a0a756ddfb0da76861211c02dd522bfa9cc74"),
        ("--q 0.01 --format json", "205c043d33d3d9a04aade7fc13c4e01c67775b777b479985cee9fcb1c0edc1bf"),
        ("--q 1 --format json", "f8886f7e3de6c74d97ac38e605bf3268c2c390429ef9cfbe0640fe1e7201a7e9"),
    ],
    "pushforward": [
        (
            "--n 9 --q 0.37 --format json",
            "b2e66b139ed863fe2dc19849a7f593448fadc90a0e7463e87bd0de25a5bd75fa",
        ),
    ],
}


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
        for field, value in (("n", -1), ("moments", 0), ("seed", -1)):
            with pytest.raises(ConfigError, match=f"{field} must be"):
                RunConfig(command="verify", **{field: value}).validate()


class TestConfigFile:
    def test_parse_plain_and_header_lines(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# schema=qplancherel/1\n"
            "# command=simulate\n"
            "q=0.25\n"
            "# n=50\n"
            "trials = 7\n"
            "## summary p1: mean=1.0 stderr=0.1\n"
            "plain text line without equals\n"
        )
        values = parse_config_file(str(path))
        assert values["q"] == 0.25
        assert values["n"] == 50
        assert values["trials"] == 7

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("qq=0.5\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_file(str(path))

    def test_misspelt_tolerance_is_config_error(self, tmp_path, capsys):
        # the tolerances are fixed, so a tol_ line is unknown whatever its check
        path = tmp_path / "typo.conf"
        for key, value in [("tol_hook_identiy", "1e-30"), ("tol_pushforward", "1e-11")]:
            path.write_text(f"{key}={value}\n")
            assert main(["verify", "--config", str(path)]) == EXIT_CONFIG
            assert f"unknown config key {key!r}" in capsys.readouterr().err

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
        assert main(["pushforward", "--n", "21"]) == EXIT_CAPACITY
        assert "capacity error" in capsys.readouterr().err

    def test_moment_order_above_cap_is_capacity_error(self, monkeypatch, capsys):
        # refused before any flow polynomial is built, for both commands
        def unbuilt(y0):
            raise AssertionError("built a flow polynomial above the cap")

        monkeypatch.setattr(dynamics, "_flow_coefficients", unbuilt)
        assert main(["limit-shape", "--moments", "41"]) == EXIT_CAPACITY
        assert "order 41" in capsys.readouterr().err
        argv = ["simulate", "--q", "1", "--moments", "60", "--n", "10", "--trials", "2"]
        assert main(argv) == EXIT_CAPACITY
        assert "order 60" in capsys.readouterr().err

    def test_zero_trials(self, capsys):
        assert main(["simulate", "--trials", "0"]) == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["simulate", "pushforward"])
    def test_zero_boxes(self, command, capsys):
        assert main([command, "--n", "0"]) == EXIT_CONFIG
        assert f"{command} needs n >= 1" in capsys.readouterr().err

    def test_limit_shape_classical_parameter(self, capsys):
        argv = ["limit-shape", "--q", "1.0", "--format", "json"]
        assert main(argv) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        # the one R solve: within 2 ulp of the closed form, and exactly 1
        # at the edge x = 2
        assert payload["r_table"][0] == {"x": 2.0, "r": 1.0}
        for row in payload["r_table"]:
            target = classical_r(row["x"])
            assert abs(row["r"] - target) <= 2 * math.ulp(target)
        assert all(row["p"] == row["h"] == 1.0 for row in payload["moments"])

    def test_simulate_classical_parameter(self, capsys):
        argv = ["simulate", "--q", "1.0", "--n", "30", "--trials", "4"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        for trajectory in payload["trajectories"]:
            assert sum(trajectory["shape"]) == 30
            assert trajectory["moments"] == [1.0, 1.0, 1.0]
        assert payload["summary"]["targets"] == [1.0, 1.0, 1.0]

    def test_moment_overflow_is_capacity_error(self, monkeypatch, capsys):
        # the flow target p_3 at q = 1e-8 is beyond the double range, which
        # is found before any trajectory is walked
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before checking the flow targets")

        monkeypatch.setattr(growth, "simulate_rescaled", no_walk)
        argv = ["simulate", "--q", "1e-8", "--n", "10", "--trials", "2"]
        assert main(argv) == EXIT_CAPACITY
        assert "capacity error" in capsys.readouterr().err
        with pytest.raises(moments.MomentOverflowError, match="p_3"):
            growth.mc_limit_experiment(10, QParam(1e-8), 2, 3, 0)
        assert main(["limit-shape", "--q", "1e-5", "--moments", "6"]) == EXIT_CAPACITY
        assert "p_6" in capsys.readouterr().err
        # a valid q whose first moment overflows, not a bad configuration
        assert main(["limit-shape", "--q", "3e-28"]) == EXIT_CAPACITY
        assert "p_1" in capsys.readouterr().err

    def test_huge_sample_moments_have_finite_stderr(self, capsys):
        # the targets are finite (p_2 ~ 3.7e297), but the sample moments
        # reach ~5e206, whose squares are beyond the double range
        argv = ["simulate", "--q", "1e-8", "--n", "500", "--trials", "3"]
        assert main(argv + ["--moments", "2", "--format", "json"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        for n, stderr in enumerate(payload["summary"]["stderr"]):
            column = [t["moments"][n] for t in payload["trajectories"]]
            assert math.isfinite(stderr)
            assert stderr == pytest.approx(
                statistics.stdev(column) / math.sqrt(3), rel=1e-14
            )

    def test_bad_format_flag(self, capsys):
        assert main(["simulate", "--format", "xml"]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_unwritable_output_path(self, capsys):
        code = main(["pushforward", "--n", "3", "--out", "/nonexistent/d/f.csv"])
        assert code == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err


class TestParserReuse:
    def test_later_calls_build_no_parser(self, monkeypatch, capsys):
        assert main(["limit-shape", "--moments", "2"]) == EXIT_OK
        built = []

        class CountingParser(argparse.ArgumentParser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(argparse, "ArgumentParser", CountingParser)
        assert main(["limit-shape", "--moments", "3"]) == EXIT_OK
        assert main(["pushforward", "--n", "3"]) == EXIT_OK
        capsys.readouterr()
        assert built == []

    def test_errors_and_help_leave_the_parser_unchanged(self, capsys):
        argv = ["limit-shape", "--q", "0.3", "--moments", "4"]
        assert main(argv) == EXIT_OK
        first = capsys.readouterr().out
        errors = []
        for _ in range(2):
            assert main(["simulate", "--n", "x"]) == EXIT_CONFIG
            assert main(["bogus"]) == EXIT_CONFIG
            assert main([]) == EXIT_CONFIG
            errors.append(capsys.readouterr())
        assert errors[0] == errors[1]
        assert "invalid int value: 'x'" in errors[0].err
        assert "invalid choice: 'bogus'" in errors[0].err
        helps = []
        for _ in range(2):
            assert main(["simulate", "--help"]) == EXIT_OK
            helps.append(capsys.readouterr())
        assert helps[0] == helps[1]
        assert helps[0].out.startswith("usage: qplancherel simulate")
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == first


class TestVerifyCommand:
    def test_default_run_passes_all_suites(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert "suite,max_error,tolerance,passed" in lines
        data = lines[lines.index("suite,max_error,tolerance,passed") + 1 :]
        assert len(data) >= 7
        assert all(row.endswith(",true") for row in data)

    def test_runs_as_module(self):
        # python -m qplancherel is the same command line as the console script
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(root / "src"), env.get("PYTHONPATH")))
        )
        proc = subprocess.run(
            [sys.executable, "-m", "qplancherel", "verify", "--format", "json"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
        assert json.loads(proc.stdout)["passed"] is True

    def test_tampered_tolerance_fails_naming_suite(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(checks.CHECKS, "markov_krein", (checks.markov_krein, 1e-30))
        out_file = tmp_path / "report.csv"
        code = main(["verify", "--out", str(out_file)])
        assert code == EXIT_CHECK_FAILED
        assert "verify: FAIL markov_krein" in capsys.readouterr().err
        report = out_file.read_text()
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
        assert [(s["name"], s["tolerance"]) for s in payload["suites"]] == [
            (name, tol) for name, (_, tol) in checks.CHECKS.items()
        ]

    @pytest.mark.parametrize("flags, digest", FROZEN_STDOUT["verify"])
    def test_stdout_is_frozen(self, flags, digest, capsys):
        # every max_error bit as first recorded; a rerun of the same code
        # cannot show a change that moves one
        assert main(["verify", *flags.split()]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_cold_run_matches_warm_rerun(self, capsys):
        # the level caches filled by the first run answer the second
        for cached in (
            diagrams.enumerate_level,
            diagrams.hook_data,
            diagrams._level_parts,
            diagrams._level_table,
        ):
            cached.cache_clear()
        outputs = []
        for _ in range(2):
            assert main(["verify", "--format", "json"]) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "count, max_boxes, seed",
        [
            # verify's inputs
            (40, 20, 2024),
            (30, 12, 515),
            (15, 15, 77),
            # the acceptance criteria's
            (200, 25, 20240),
            (100, 15, 41),
            (25, 15, 7),
            (25, 15, 8),
            (1, 10, 3),
        ],
    )
    def test_random_partitions_list_no_level(self, count, max_boxes, seed, monkeypatch):
        # the draws index the level's parts table; no level is listed
        def refuse(n):
            raise AssertionError(f"level {n} listed")

        for module in (diagrams, checks, qplancherel):
            monkeypatch.setattr(module, "enumerate_level", refuse, raising=False)
        assert checks.random_partitions(count, max_boxes, seed) == (
            random_partitions_by_level(count, max_boxes, seed)
        )

    @pytest.mark.parametrize(
        "suite, module, attr",
        [
            ("kernel_oracle", kernel, "partial_fraction_weights"),
            ("pushforward", qmeasure, "_level_weights"),
            ("markov_krein", moments, "r_measure"),
            ("ode_closed_forms", dynamics, "closed_form"),
            ("limit_moments", limitshape, "series_h_omega"),
            ("pde_residual", growth, "growth_derivative"),
        ],
    )
    def test_corrupted_route_fails_its_suite(
        self, monkeypatch, capsys, suite, module, attr
    ):
        # one route of the suite off by ten times its tolerance, relative;
        # a check that compared a route with itself would still pass
        factor = 1.0 + 10.0 * checks.CHECKS[suite][1]

        def corrupted(*args, route=getattr(module, attr), **kwargs):
            value = route(*args, **kwargs)
            if isinstance(value, MomentVector):
                return MomentVector(value.kind, [v * factor for v in value.values])
            if isinstance(value, tuple):
                return [v * factor for v in value]
            return value * factor

        monkeypatch.setattr(module, attr, corrupted)
        assert main(["verify"]) == EXIT_CHECK_FAILED
        captured = capsys.readouterr()
        assert f"verify: FAIL {suite}" in captured.err
        rows = [row.split(",") for row in captured.out.splitlines()]
        assert [row[0] for row in rows if row[-1] == "false"] == [suite]

    def test_time_scaled_growth_fails_pde_suite(self, monkeypatch, capsys):
        # dR/dt scaled by 1 + 1e-7 leaves a defect near 2e-8, below 1e-5
        # but far above the suite's tolerance: the check sees the equation,
        # not the rounding of its difference step
        def scaled(*args, route=growth.growth_derivative, **kwargs):
            return route(*args, **kwargs) * (1.0 + 1e-7)

        monkeypatch.setattr(growth, "growth_derivative", scaled)
        assert main(["verify"]) == EXIT_CHECK_FAILED
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()]
        assert [row[0] for row in rows if row[-1] == "false"] == ["pde_residual"]
        worst = next(float(row[1]) for row in rows if row[0] == "pde_residual")
        assert checks.CHECKS["pde_residual"][1] < worst < 1e-5

    def test_nan_route_fails_its_suite(self, monkeypatch, capsys):
        # max() keeps its running value against a NaN; the check must not
        nan_route = lambda w, qp: [math.nan] * len(w.minima)  # noqa: E731
        monkeypatch.setattr(kernel, "partial_fraction_weights", nan_route)
        assert main(["verify"]) == EXIT_CHECK_FAILED
        assert "verify: FAIL kernel_oracle" in capsys.readouterr().err
        # the JSON report stays parseable, the NaN written as null
        assert main(["verify", "--format", "json"]) == EXIT_CHECK_FAILED
        suites = {s["name"]: s for s in json.loads(capsys.readouterr().out)["suites"]}
        assert suites["kernel_oracle"]["max_error"] is None
        assert suites["kernel_oracle"]["passed"] is False


class TestSimulateCommand:
    ARGS = ["simulate", "--n", "60", "--trials", "8", "--seed", "42"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(a)]) == EXIT_OK
        assert main(self.ARGS + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flags, digest", FROZEN_STDOUT["simulate"])
    def test_stdout_is_frozen(self, flags, digest, capsys):
        # every byte of the trajectories, summary and header: a change
        # that moves one bit of the report fails here, which a rerun of
        # the same code cannot show
        assert main(["simulate", *flags.split()]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    # the last four put u_+ just below an integer x, or onto it, where the
    # defect at t_+/c rounds to zero or below
    @pytest.mark.parametrize(
        "q",
        [
            0.01,
            0.3,
            0.5,
            0.95,
            1.0,
            0.9999999999999999,
            1 - 1e-15,
            0.200917532502524,
            0.005721813273251841,
        ],
    )
    def test_table_starts_at_the_edge(self, capsys, q):
        assert main(["limit-shape", "--q", str(q), "--format", "json"]) == EXIT_OK
        qp = QParam(q)
        x_lo = json.loads(capsys.readouterr().out)["r_table"][0]["x"]
        assert x_lo == max(1, math.ceil(limitshape.support_edges(qp)[1]))
        if x_lo - 1 >= 1:
            with pytest.raises(limitshape.BracketingError):
                limitshape.solve_r_omega(x_lo - 1.0, qp)

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

    @pytest.mark.parametrize("flags, digest", FROZEN_STDOUT["limit-shape"])
    def test_stdout_is_frozen(self, flags, digest, capsys):
        # every bit of the R and moment tables
        assert main(["limit-shape", *flags.split()]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_classical_parameter(self, capsys):
        # at q = 1 the push-forward is the Plancherel measure dim^2 / n!
        assert main(["pushforward", "--n", "4", "--q", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        rows = [
            line.split(",")
            for line in out.splitlines()
            if line and not line.startswith(("#", "shape"))
        ]
        assert [shape for shape, _, _ in rows] == ["4", "3 1", "2 2", "2 1 1", "1 1 1 1"]
        probs = [float(prob) for _, prob, _ in rows]
        assert probs == pytest.approx([1 / 24, 9 / 24, 4 / 24, 9 / 24, 1 / 24], abs=1e-15)
        for _, prob, reference in rows:
            assert float(prob) == pytest.approx(float(reference), abs=1e-15)

    def test_json_output(self, capsys):
        assert main(["pushforward", "--n", "3", "--q", "0.5", "--format", "json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        shapes = [tuple(d["shape"]) for d in payload["distribution"]]
        assert set(shapes) == {(3,), (2, 1), (1, 1, 1)}

    @pytest.mark.parametrize("flags, digest", FROZEN_STDOUT["pushforward"])
    def test_stdout_is_frozen(self, flags, digest, capsys):
        # every bit of both columns over the 30 shapes of 9
        assert main(["pushforward", *flags.split()]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--q", "0.3", "--seed", "4"],
        ["simulate", "--n", "60", "--trials", "8", "--seed", "42"],
        ["limit-shape", "--q", "0.5", "--moments", "4"],
        ["pushforward", "--n", "5", "--q", "0.4"],
    ],
    ids=lambda args: args[0],
)
def test_saved_header_reproduces_run(tmp_path, args):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main([args[0], "--config", str(a), "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


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

"""Command-line front end: verify, simulate, limit-shape, pushforward.

Configuration is resolved in three layers: built-in defaults, then a
flat key=value config file (``--config``), then explicit flags.  Every
run embeds its full resolved configuration in the output header as
``# key=value`` lines, and those lines are themselves acceptable as a
config file, so a saved CSV header reproduces its run byte for byte.

Exit codes: 0 success, 1 a verification suite failed, 2 configuration
error, 3 capacity exceeded (including moments beyond the floating-point
range).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace

from . import checks, dynamics, growth, limitshape, moments, qmeasure, rsk
from .diagrams import CapacityError
from .qmeasure import QParam

SCHEMA = "qplancherel/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3


class ConfigError(ValueError):
    """A flag or config entry is missing, unknown, or out of range."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings of one CLI run; the output header echoes these."""

    command: str
    q: float = 0.5
    n: int = 100
    trials: int = 100
    moments: int = 3
    seed: int = 0
    format: str = "csv"
    out: str | None = None
    tolerances: dict = field(default_factory=dict)

    def validate(self) -> None:
        try:
            QParam(self.q)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.n < 0:
            raise ConfigError(f"n must be nonnegative, got {self.n}")
        if self.trials < 1:
            raise ConfigError(f"trials must be positive, got {self.trials}")
        if self.moments < 1:
            raise ConfigError(f"moments must be positive, got {self.moments}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f'format must be "csv" or "json", got {self.format!r}')
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for key, value in self.tolerances.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"tolerance {key} must be finite and positive, got {value}")

    def header_items(self) -> list[tuple[str, str]]:
        items = [
            ("schema", SCHEMA),
            ("command", self.command),
            ("q", _fmt(self.q)),
            ("n", str(self.n)),
            ("trials", str(self.trials)),
            ("moments", str(self.moments)),
            ("seed", str(self.seed)),
            ("format", self.format),
        ]
        for key in sorted(self.tolerances):
            items.append((key, _fmt(self.tolerances[key])))
        return items


_INT_KEYS = {"n", "trials", "moments", "seed"}
_FLOAT_KEYS = {"q"}
_STR_KEYS = {"format", "out"}
_IGNORED_KEYS = {"schema", "command"}
_TOLERANCE_KEYS = {f"tol_{name}" for name in checks.CHECKS}


def parse_config_file(path: str) -> dict:
    """Flat key=value lines; '# '-prefixed header lines are accepted too.

    Lines without '=' are ignored, which lets a saved CSV output serve
    as its own config.  Unknown keys are rejected.
    """
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("##"):
            # annotation lines in data files, not part of the config echo
            continue
        if line.startswith("#"):
            line = line.lstrip("#").strip()
        if "=" not in line or not line:
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in _IGNORED_KEYS:
            continue
        if key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError as exc:
                raise ConfigError(f"{key} must be an integer, got {value!r}") from exc
        elif key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"{key} must be a number, got {value!r}") from exc
        elif key in _STR_KEYS:
            values[key] = value
        elif key in _TOLERANCE_KEYS:
            try:
                values.setdefault("tolerances", {})[key] = float(value)
            except ValueError as exc:
                raise ConfigError(f"{key} must be a number, got {value!r}") from exc
        else:
            raise ConfigError(f"unknown config key {key!r}")
    return values


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _json_text(obj, indent: int = 0) -> str:
    # json.dumps would round-trip floats at shortest repr; the contract
    # here is 17 significant digits, so serialization is done by hand.
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ", ".join(_json_text(v, indent + 1) for v in obj)
        return "[" + inner + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        # JSON has no token for nan or inf
        return _fmt(obj) if math.isfinite(obj) else "null"
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _csv_header(config: RunConfig) -> list[str]:
    return [f"# {key}={value}" for key, value in config.header_items()]


def _emit(text: str, config: RunConfig) -> None:
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output to {config.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_error: float
    tolerance: float
    passed: bool


def run_verify(config: RunConfig) -> int:
    results = []
    for name, (check, default_tol) in checks.CHECKS.items():
        tol = config.tolerances.get(f"tol_{name}", default_tol)
        worst = check()
        results.append(SuiteResult(name, worst, tol, worst < tol))
    passed = all(r.passed for r in results)

    if config.format == "json":
        payload = {
            "schema": SCHEMA,
            "config": dict(config.header_items()),
            "suites": [
                {
                    "name": r.name,
                    "max_error": r.max_error,
                    "tolerance": r.tolerance,
                    "passed": r.passed,
                }
                for r in results
            ],
            "passed": passed,
        }
        _emit(_json_text(payload) + "\n", config)
    else:
        lines = _csv_header(config)
        lines.append("suite,max_error,tolerance,passed")
        for r in results:
            lines.append(
                f"{r.name},{_fmt(r.max_error)},{_fmt(r.tolerance)},{str(r.passed).lower()}"
            )
        _emit("\n".join(lines) + "\n", config)

    if not passed:
        first = next(r.name for r in results if not r.passed)
        print(f"verify: FAIL {first}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def run_simulate(config: RunConfig) -> int:
    if config.n < 1:
        raise ConfigError("simulate needs n >= 1")
    qp = QParam(config.q)
    if qp.is_classical:
        raise ConfigError("simulate needs q in (0, 1)")
    samples = growth.simulate_rescaled(
        config.n, qp, config.trials, config.moments, config.seed
    )
    report = growth.report_from_samples(
        samples, config.n, qp, config.moments, config.seed
    )

    if config.format == "json":
        payload = {
            "schema": SCHEMA,
            "config": dict(config.header_items()),
            "trajectories": [
                {
                    "trial": s.trial,
                    "shape": list(s.shape.parts),
                    "moments": list(s.moments),
                }
                for s in samples
            ],
            "summary": {
                "n": report.n_boxes,
                "q": report.q,
                "trials": report.trials,
                "seed": report.seed,
                "moments": list(report.means),
                "stderr": list(report.stderrs),
                "targets": list(report.targets),
            },
        }
        _emit(_json_text(payload) + "\n", config)
    else:
        lines = _csv_header(config)
        columns = ["trial", "shape"] + [
            f"p{n}" for n in range(1, config.moments + 1)
        ]
        lines.append(",".join(columns))
        for s in samples:
            shape_text = " ".join(str(p) for p in s.shape.parts)
            row = [str(s.trial), shape_text] + [_fmt(v) for v in s.moments]
            lines.append(",".join(row))
        for n in range(1, config.moments + 1):
            lines.append(
                f"## summary p{n}: mean={_fmt(report.means[n - 1])} "
                f"stderr={_fmt(report.stderrs[n - 1])} "
                f"target={_fmt(report.targets[n - 1])}"
            )
        _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def run_limit_shape(config: RunConfig) -> int:
    qp = QParam(config.q)
    if qp.is_classical:
        raise ConfigError("limit-shape needs q in (0, 1)")

    x_lo = None
    for candidate in range(1, 64):
        try:
            limitshape.solve_r_omega(float(candidate), qp)
        except limitshape.BracketingError:
            continue
        x_lo = candidate
        break
    if x_lo is None:
        raise ConfigError(f"no admissible integer x found for q = {config.q}")
    xs = [float(x_lo + j) for j in range(25)]
    rs = [limitshape.solve_r_omega(x, qp) for x in xs]

    p_limit = dynamics.limit_moments(qp, config.moments)
    h_limit = limitshape.series_h_omega(qp, config.moments)

    if config.format == "json":
        payload = {
            "schema": SCHEMA,
            "config": dict(config.header_items()),
            "r_table": [{"x": x, "r": r} for x, r in zip(xs, rs)],
            "moments": [
                {
                    "n": n,
                    "p": p_limit.moment(n),
                    "h": h_limit.moment(n),
                }
                for n in range(1, config.moments + 1)
            ],
        }
        _emit(_json_text(payload) + "\n", config)
    else:
        lines = _csv_header(config)
        lines.append("## table=r")
        lines.append("x,r")
        for x, r in zip(xs, rs):
            lines.append(f"{_fmt(x)},{_fmt(r)}")
        lines.append("## table=moments")
        lines.append("n,p,h")
        for n in range(1, config.moments + 1):
            lines.append(
                f"{n},{_fmt(p_limit.moment(n))},{_fmt(h_limit.moment(n))}"
            )
        _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


def run_pushforward(config: RunConfig) -> int:
    if config.n < 1:
        raise ConfigError("pushforward needs n >= 1")
    qp = QParam(config.q)
    probs = rsk.pushforward_exact(config.n, config.q)

    if config.format == "json":
        payload = {
            "schema": SCHEMA,
            "config": dict(config.header_items()),
            "distribution": [
                {
                    "shape": list(shape.parts),
                    "probability": prob,
                    "reference": qmeasure.q_measure(shape, qp),
                }
                for shape, prob in probs.items()
            ],
        }
        _emit(_json_text(payload) + "\n", config)
    else:
        lines = _csv_header(config)
        lines.append("shape,probability,reference")
        for shape, prob in probs.items():
            shape_text = " ".join(str(p) for p in shape.parts)
            lines.append(
                f"{shape_text},{_fmt(prob)},{_fmt(qmeasure.q_measure(shape, qp))}"
            )
        _emit("\n".join(lines) + "\n", config)
    return EXIT_OK


_COMMANDS = {
    "verify": run_verify,
    "simulate": run_simulate,
    "limit-shape": run_limit_shape,
    "pushforward": run_pushforward,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplancherel",
        description="deformed Plancherel growth: exact measures, simulation, limit shape",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--q", type=float, default=None)
        cmd.add_argument("--n", type=int, default=None)
        cmd.add_argument("--trials", type=int, default=None)
        cmd.add_argument("--moments", type=int, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--format", type=str, default=None, choices=("csv", "json"))
        cmd.add_argument("--out", type=str, default=None)
        cmd.add_argument("--config", type=str, default=None)
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.config is not None:
        file_values = parse_config_file(args.config)
        tolerances = file_values.pop("tolerances", {})
        config = replace(config, tolerances=tolerances, **file_values)
    overrides = {}
    for name in ("q", "n", "trials", "moments", "seed", "format", "out"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if overrides:
        config = replace(config, **overrides)
    config.validate()
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching the config-error code
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        config = build_config(args)
        return _COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CapacityError, moments.MomentOverflowError) as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())

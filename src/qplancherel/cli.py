"""Command-line front end: verify, simulate, limit-shape, pushforward.

Configuration is resolved in three layers: built-in defaults, then a
flat key=value config file (``--config``), then explicit flags.  The
ordered table ``_SETTINGS`` is the one list of settings: it makes the
flags, types the config-file values and writes the header.  Every run
embeds its full resolved configuration in the output header as
``# key=value`` lines, and those lines are themselves acceptable as a
config file, so a saved CSV header reproduces its run byte for byte.
Each command builds its JSON payload and its CSV rows and hands both to
``_emit``, the one writer of both formats.

The argument parser is built on the first ``main`` call and reused by
every later call in the process; ``parse_args`` leaves it unchanged and
writes help and errors to ``sys.stdout`` and ``sys.stderr`` as they are
at call time.

Exit codes: 0 success, 1 a verification suite failed, 2 configuration
error, 3 capacity exceeded (including moments beyond the floating-point
range).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, replace

from . import checks, dynamics, growth, limitshape, moments, qmeasure, rsk
from .diagrams import CapacityError
from .qmeasure import QParam

SCHEMA = "qplancherel/1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_CAPACITY = 3

# every setting with its type, in header order; RunConfig holds the defaults
_SETTINGS = {
    "q": float,
    "n": int,
    "trials": int,
    "moments": int,
    "seed": int,
    "format": str,
    "out": str,
}
_IGNORED_KEYS = {"schema", "command"}


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

    def header_items(self) -> list[tuple[str, str]]:
        """The schema, the command and every setting but ``out``."""
        items = [("schema", SCHEMA), ("command", self.command)]
        for key, kind in _SETTINGS.items():
            # the output path does not change the report
            if key != "out":
                value = getattr(self, key)
                items.append((key, _fmt(value) if kind is float else str(value)))
        return items


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
        if key not in _SETTINGS:
            raise ConfigError(f"unknown config key {key!r}")
        kind = _SETTINGS[key]
        try:
            parsed = kind(value)
        except ValueError as exc:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{key} must be {noun}, got {value!r}") from exc
        values[key] = parsed
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


def _emit(config: RunConfig, payload: dict, rows: list[str]) -> None:
    """Write one report to ``--out`` or stdout, under the configuration.

    JSON puts ``schema`` and ``config`` ahead of ``payload``; CSV puts
    the ``# key=value`` header lines ahead of ``rows``.
    """
    if config.format == "json":
        header = {"schema": SCHEMA, "config": dict(config.header_items())}
        text = _json_text({**header, **payload})
    else:
        header = [f"# {key}={value}" for key, value in config.header_items()]
        text = "\n".join(header + rows)
    text += "\n"
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output to {config.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _csv_row(*cells) -> str:
    """One CSV line; a list cell is a shape, written as its space-separated parts."""
    texts = []
    for cell in cells:
        if isinstance(cell, float):
            texts.append(_fmt(cell))
        elif isinstance(cell, bool):
            texts.append(str(cell).lower())
        elif isinstance(cell, list):
            texts.append(" ".join(str(part) for part in cell))
        else:
            texts.append(str(cell))
    return ",".join(texts)


def run_verify(config: RunConfig) -> int:
    suites = []
    for name, (check, tol) in checks.CHECKS.items():
        worst = check()
        suites.append(
            {"name": name, "max_error": worst, "tolerance": tol, "passed": worst < tol}
        )
    passed = all(s["passed"] for s in suites)
    rows = ["suite,max_error,tolerance,passed"]
    rows += [_csv_row(*s.values()) for s in suites]
    _emit(config, {"suites": suites, "passed": passed}, rows)

    if not passed:
        first = next(s["name"] for s in suites if not s["passed"])
        print(f"verify: FAIL {first}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def run_simulate(config: RunConfig) -> int:
    if config.n < 1:
        raise ConfigError("simulate needs n >= 1")
    qp = QParam(config.q)
    report = growth.mc_limit_experiment(
        config.n, qp, config.trials, config.moments, config.seed
    )

    trajectories = [
        {"trial": s.trial, "shape": list(s.shape.parts), "moments": list(s.moments)}
        for s in report.samples
    ]
    payload = {
        "trajectories": trajectories,
        "summary": {
            "n": config.n,
            "q": qp.q,
            "trials": config.trials,
            "seed": config.seed,
            "moments": list(report.means),
            "stderr": list(report.stderrs),
            "targets": list(report.targets),
        },
    }
    columns = ["trial", "shape"] + [f"p{n}" for n in range(1, config.moments + 1)]
    rows = [",".join(columns)]
    rows += [_csv_row(t["trial"], t["shape"], *t["moments"]) for t in trajectories]
    summary = zip(report.means, report.stderrs, report.targets)
    for n, (mean, stderr, target) in enumerate(summary, start=1):
        rows.append(
            f"## summary p{n}: mean={_fmt(mean)} stderr={_fmt(stderr)} "
            f"target={_fmt(target)}"
        )
    _emit(config, payload, rows)
    return EXIT_OK


def run_limit_shape(config: RunConfig) -> int:
    qp = QParam(config.q)
    # the moments overflow first as q -> 0; the R table starts at the edge
    p_limit = dynamics.limit_moments(qp, config.moments)
    h_limit = limitshape.series_h_omega(qp, config.moments)

    x_lo = max(1, math.ceil(limitshape.support_edges(qp)[1]))
    xs = [float(x_lo + j) for j in range(25)]
    r_table = [{"x": x, "r": limitshape.solve_r_omega(x, qp)} for x in xs]
    moment_table = [
        {"n": n, "p": p_limit.moment(n), "h": h_limit.moment(n)}
        for n in range(1, config.moments + 1)
    ]
    rows = ["## table=r", "x,r"]
    rows += [_csv_row(*row.values()) for row in r_table]
    rows += ["## table=moments", "n,p,h"]
    rows += [_csv_row(*row.values()) for row in moment_table]
    _emit(config, {"r_table": r_table, "moments": moment_table}, rows)
    return EXIT_OK


def run_pushforward(config: RunConfig) -> int:
    if config.n < 1:
        raise ConfigError("pushforward needs n >= 1")
    qp = QParam(config.q)
    # both run in enumerate_level's order
    distribution = [
        {"shape": list(shape.parts), "probability": prob, "reference": reference}
        for (shape, prob), reference in zip(
            rsk.pushforward_exact(config.n, config.q).items(),
            qmeasure._level_weights(config.n, qp).tolist(),
        )
    ]
    rows = ["shape,probability,reference"]
    rows += [_csv_row(*d.values()) for d in distribution]
    _emit(config, {"distribution": distribution}, rows)
    return EXIT_OK


_COMMANDS = {
    "verify": run_verify,
    "simulate": run_simulate,
    "limit-shape": run_limit_shape,
    "pushforward": run_pushforward,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplancherel",
        description="deformed Plancherel growth: exact measures, simulation, limit shape",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        for key, kind in _SETTINGS.items():
            cmd.add_argument(f"--{key}", type=kind)
        cmd.add_argument("--config")
    return parser


def build_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig(command=args.command)
    if args.config is not None:
        config = replace(config, **parse_config_file(args.config))
    flags = {key: getattr(args, key) for key in _SETTINGS}
    overrides = {key: value for key, value in flags.items() if value is not None}
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

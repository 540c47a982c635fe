"""Batch experiment runner.

Subcommands
-----------
exp             simulate a driver and emit the developed group paths (CSV)
log             simulate, develop, and emit the compensated logarithm (CSV)
roundtrip       per-replica terminal log(exp(M)) - M errors (CSV + summary)
convergence     round-trip error ladder over several step sizes (CSV)
campbell        Campbell-Hausdorff residual ladders (JSON or CSV report)
martingale-test drift verdict for a driver/scheme combination (JSON + z CSV)
u-table         Levi-Civita U coefficients per basis pair (CSV)
regress         run the whole pinned-seed verification battery

Drivers are one ``paths.brownian_ensemble`` call: ``--driver bm`` is a
Brownian motion of covariance ``--cov``, ``--driver drift`` one of unit
covariance plus the constant ``--drift``.

Every output file gets a ``<name>.manifest.json`` sibling echoing the fully
resolved configuration (schema 1). Same config + seed produces byte
identical output: replica r draws from its own stream, derived from the
seed and r. ``--workers`` must be at least 1 and has no effect on output or
scheduling; it stays accepted so existing configs and manifests still run.

Each subcommand accepts only the flags it reads and exits 2 on any other.
Config files are flat ``key=value`` lines (``#`` comments allowed) and may
set only ``command`` and the keys of the command's own flags, each to a
value its flag accepts; command-line flags override file values. Exit
codes: 0 success, 1 failed verification, 2 usage error, 3 violated
precondition/hypothesis, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import acceptance, campbell, explog, martingale
from .connections import alpha_biinvariant, alpha_levi_civita, metric_for, u_from_metric
from .errors import HypothesisError, LieStochError, PowerError, UnsupportedGroupError
from .groups import get_group
from .linalg import spd_cholesky
from .paths import (
    TimeGrid,
    brownian_ensemble,
    dump_algebra_csv,
    dump_group_csv,
    normal_quantile,
    write_table,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4


class UsageError(Exception):
    pass


@dataclass
class ExperimentConfig:
    """Flat, serializable description of one run."""

    command: str
    group: str = "se3"
    connection: str = "levicivita"
    lam: float = 1.0
    dt: float = 1e-3
    steps: int = 1000
    replicas: int = 64
    seed: int = 0
    dts: str = "4e-3,2e-3,1e-3"
    driver: str = "bm"
    scheme: str = "ito"
    rule: str = ""
    cov: str = ""
    drift: str = ""
    buckets: int = 20
    significance: float = 0.0
    workers: int = 1
    out: str = ""
    fmt: str = "csv"

    @classmethod
    def from_kv(cls, text, command=None):
        """Parse a config file; with ``command`` given, a key that command
        does not read (other than ``command``) is a usage error."""
        data = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            data[key] = value
        config = cls._coerce(data, command)
        if command:
            unread = [key for key in data if key not in ("command",) + _COMMANDS[command][1]]
            if unread:
                raise UsageError(f"{command} does not read config key {unread[0]!r}")
        return config

    @classmethod
    def _coerce(cls, data, command=None):
        kwargs = {}
        valid = {f.name: f.type for f in fields(cls)}
        for key, value in data.items():
            if key not in valid:
                raise UsageError(f"unknown config key {key!r}")
            kind = valid[key]
            try:
                if kind == "int":
                    kwargs[key] = int(value)
                elif kind == "float":
                    kwargs[key] = float(value)
                else:
                    kwargs[key] = str(value)
            except ValueError as exc:
                raise UsageError(f"bad value for {key!r}: {value!r}") from exc
            choices = _FLAGS.get(key, (None, {}))[1].get("choices")
            if choices is not None and kwargs[key] not in choices:
                raise UsageError(f"bad value for {key!r}: {value!r}, choose from {choices}")
        if command is not None and kwargs.setdefault("command", command) != command:
            raise UsageError(f"config key 'command' names {kwargs['command']!r}, "
                             f"not {command!r}")
        if "command" not in kwargs:
            raise UsageError("config does not name a command")
        return cls(**kwargs)

    def dt_ladder(self, horizon):
        """The ``--dts`` rungs, each a positive step that divides ``horizon``,
        so every rung runs to the same terminal time."""
        try:
            ladder = tuple(float(tok) for tok in self.dts.split(",") if tok.strip())
        except ValueError as exc:
            raise UsageError(f"bad --dts list: {self.dts!r}") from exc
        if not ladder:
            raise UsageError(f"--dts needs positive entries, got {self.dts!r}")
        for dt in ladder:
            _positive(dt, "--dts entry")
            if abs(round(horizon / dt) * dt - horizon) > 1e-9 * horizon:
                raise UsageError(f"--dts rung {dt!r} does not divide the horizon {horizon!r}")
        return ladder

    def grid(self):
        _positive(self.dt, "--dt")
        if self.steps <= 0:
            raise UsageError("--steps must be positive")
        if not math.isfinite(self.dt * self.steps):
            raise UsageError(f"the horizon --dt * --steps must be finite, "
                             f"got {self.dt!r} * {self.steps}")
        return TimeGrid(self.dt * self.steps, self.steps)


def _positive(value, flag):
    """Refuse a value that is not a positive finite number (NaN included)."""
    if not (value > 0 and math.isfinite(value)):
        raise UsageError(f"{flag} must be a positive finite number, got {value!r}")


def _connection(config):
    spec = get_group(config.group)
    _positive(config.lam, "--lambda")
    if config.connection == "biinvariant":
        if config.lam != 1.0:
            raise UsageError(f"--lambda weights the levicivita metric; the biinvariant "
                             f"connection has none, got {config.lam!r}")
        return spec, alpha_biinvariant(spec)
    return spec, alpha_levi_civita(metric_for(spec, config.lam))


def _load_covariance(config, spec):
    if not config.cov:
        return None
    try:
        cov = np.loadtxt(config.cov, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read --cov file {config.cov!r}: {exc}") from exc
    if not np.isfinite(cov).all():
        raise UsageError(f"--cov file {config.cov!r} has a non-finite entry")
    n = spec.algebra_dim
    if cov.shape != (n, n):
        raise UsageError(f"--cov matrix must be {n}x{n}, got {cov.shape}")
    spd_cholesky(cov, what="covariance file")
    return cov


def _parse_drift(config, spec):
    """The ``--drift`` vector of the drift driver, zero when unset."""
    if not config.drift:
        return np.zeros(spec.algebra_dim)
    try:
        vec = np.array([float(tok) for tok in config.drift.split(",")])
    except ValueError as exc:
        raise UsageError(f"bad --drift list: {config.drift!r}") from exc
    if vec.shape != (spec.algebra_dim,):
        raise UsageError(f"drift needs {spec.algebra_dim} components")
    if not np.all(np.isfinite(vec)):
        raise UsageError(f"--drift components must be finite, got {config.drift!r}")
    return vec


def _z_band(config):
    if config.significance == 0.0:  # unset
        return martingale.DEFAULT_Z_BAND
    if not 0.0 < config.significance < 1.0:
        raise UsageError("--significance must be a confidence level in (0, 1)")
    return normal_quantile(1.0 - (1.0 - config.significance) / 2.0)


def _build_ensemble(config, spec):
    """The driver ensemble, drawn in one call.

    ``--cov`` shapes the ``bm`` driver and ``--drift`` the ``drift`` driver;
    a flag the chosen driver would ignore is a usage error.
    """
    _check_draw(config)
    if config.workers < 1:
        raise UsageError("--workers must be at least 1")
    if config.drift and config.driver != "drift":
        raise UsageError("--drift needs --driver drift")
    if config.cov and config.driver == "drift":
        raise UsageError("--cov applies to --driver bm; the drift driver has unit diffusion")
    grid = config.grid()
    covariance = _load_covariance(config, spec)
    drift = _parse_drift(config, spec) if config.driver == "drift" else None
    return brownian_ensemble(spec, grid, config.seed, config.replicas,
                             covariance=covariance, drift=drift)


def _check_draw(config, min_replicas=1):
    """The replica count and seed of a seeded driver draw."""
    if config.replicas < min_replicas:
        raise UsageError(f"--replicas must be at least {min_replicas}")
    if config.seed < 0:
        raise UsageError("--seed must be a non-negative integer")


def _solve(config, ensemble, alpha):
    if config.scheme == "ito":
        return explog.ito_exponential(ensemble, alpha)
    return explog.strat_exponential(ensemble)


def _write_manifest(out, config):
    manifest = {"schema": SCHEMA_VERSION, "config": asdict(config)}
    with open(out + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _open_out(config):
    if not config.out:
        raise UsageError("this command requires --out")
    try:
        return open(config.out, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {config.out!r}: {exc}") from exc


def _cmd_exp(config):
    spec, alpha = _connection(config)
    ensemble = _build_ensemble(config, spec)
    solved = _solve(config, ensemble, alpha)
    with _open_out(config) as fh:
        dump_group_csv(solved, fh)
    _write_manifest(config.out, config)
    return EXIT_OK


def _cmd_log(config):
    spec, alpha = _connection(config)
    ensemble = _build_ensemble(config, spec)
    solved = _solve(config, ensemble, alpha)
    logs = explog.ito_logarithm(solved, alpha)
    with _open_out(config) as fh:
        dump_algebra_csv(logs, fh)
    _write_manifest(config.out, config)
    return EXIT_OK


def _cmd_roundtrip(config):
    spec, alpha = _connection(config)
    err = explog.roundtrip_errors(_build_ensemble(config, spec), alpha)
    with _open_out(config) as fh:
        write_table(fh, ["replica", "terminal_error"],
                    [*enumerate(err), ("mean", np.mean(err))])
    _write_manifest(config.out, config)
    return EXIT_OK


def _cmd_convergence(config):
    spec, alpha = _connection(config)
    horizon = config.grid().horizon
    rungs = [replace(config, dt=dt, steps=round(horizon / dt))
             for dt in config.dt_ladder(horizon)]
    rows = []
    for sub in rungs:
        err = explog.roundtrip_errors(_build_ensemble(sub, spec), alpha)
        rows.append((sub.dt, np.mean(err), np.std(err, ddof=1) / np.sqrt(len(err))))
    with _open_out(config) as fh:
        write_table(fh, ["dt", "mean_terminal_error", "stderr"], rows)
    _write_manifest(config.out, config)
    return EXIT_OK


def _report_dict(report):
    d = asdict(report)
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in d.items()}


def _cmd_campbell(config):
    spec, alpha = _connection(config)
    _check_draw(config, min_replicas=2)  # each rung reports a standard error
    dts = config.dt_ladder(campbell.HORIZON)
    rule = config.rule or "midpoint"
    exp_rep = campbell.ch_ladder(
        spec, alpha, dts=dts, replicas=config.replicas, base_seed=config.seed, rule=rule
    )
    log_rep = campbell.log_product_ladder(
        spec, alpha, dts=dts, replicas=config.replicas,
        base_seed=config.seed + 100, rule=config.rule or "ito",
    )
    reports = [exp_rep, log_rep]
    with _open_out(config) as fh:
        if config.fmt == "json":
            json.dump(
                {"schema": SCHEMA_VERSION, "reports": [_report_dict(r) for r in reports]},
                fh, indent=2, sort_keys=True,
            )
            fh.write("\n")
        else:
            write_table(
                fh, ["kind", "rule", "dt", "mean_terminal", "max_terminal", "stderr"],
                [(rep.kind, rep.rule, *row) for rep in reports for row in zip(
                    rep.dt_ladder, rep.mean_terminal, rep.max_terminal, rep.stderr_terminal)],
            )
    _write_manifest(config.out, config)
    return EXIT_OK


def _cmd_martingale_test(config):
    if config.buckets < 1:
        raise UsageError(f"--buckets must be a positive integer, got {config.buckets}")
    if config.steps % config.buckets != 0:
        raise UsageError(f"--buckets {config.buckets} must divide --steps {config.steps}")
    z_band = _z_band(config)
    spec, alpha = _connection(config)
    # the driver ensemble is dropped before the verdict runs
    solved = _solve(config, _build_ensemble(config, spec), alpha)
    report = martingale.martingale_verdict(
        solved, alpha, buckets=config.buckets, z_band=z_band
    )
    payload = {
        "schema": SCHEMA_VERSION,
        "group": report.group,
        "connection": report.connection,
        "replicas": report.replicas,
        "buckets": report.buckets,
        "z_band": report.z_band,
        "min_cell_fraction": report.min_cell_fraction,
        "cells_within": report.cells_within,
        "max_abs_z": report.max_abs_z,
        "passed": report.passed,
    }
    with _open_out(config) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    zpath = config.out + ".zscores.csv"
    with open(zpath, "w", newline="") as fh:
        write_table(fh, ["bucket", "component", "mean", "stderr", "z"], [
            (b, c, report.mean[b, c], report.stderr[b, c], report.z[b, c])
            for b, c in np.ndindex(report.z.shape)
        ])
    _write_manifest(config.out, config)
    print(f"verdict: {'pass' if report.passed else 'fail'} "
          f"(max |z| = {report.max_abs_z:.2f})")
    return EXIT_OK


def _cmd_u_table(config):
    spec = get_group(config.group)
    _positive(config.lam, "--lambda")
    u = u_from_metric(metric_for(spec, config.lam)).coeffs
    n = spec.algebra_dim
    header = ["i", "j"] + [f"c{k+1}" for k in range(n)]
    rows = [(i + 1, j + 1, *u[:, i, j]) for i in range(n) for j in range(n)]
    if config.out:
        with _open_out(config) as fh:
            write_table(fh, header, rows)
        _write_manifest(config.out, config)
    else:
        write_table(sys.stdout, header, rows)
    return EXIT_OK


def _cmd_regress(config):
    results = acceptance.run_all()
    if config.out:
        payload = {
            "schema": SCHEMA_VERSION,
            "criteria": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "details": r.details,
                    "runtime_seconds": round(r.seconds, 2),
                }
                for r in results
            ],
            "all_passed": all(r.passed for r in results),
        }
        with _open_out(config) as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(config.out, config)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_VERIFICATION_FAILED


# Every flag by config field: (flag, argparse keywords).
_FLAGS = {
    "config": ("--config", {"help": "flat key=value config file"}),
    "group": ("--group", {}),
    "connection": ("--connection", {"choices": ["biinvariant", "levicivita"]}),
    "lam": ("--lambda", {"type": float}),
    "dt": ("--dt", {"type": float}),
    "steps": ("--steps", {"type": int}),
    "replicas": ("--replicas", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "dts": ("--dts", {"help": "comma list of step sizes"}),
    "driver": ("--driver", {"choices": ["bm", "drift"]}),
    "scheme": ("--scheme", {"choices": ["ito", "strat"]}),
    "rule": ("--rule", {"choices": ["ito", "midpoint"]}),
    "cov": ("--cov", {"help": "covariance CSV file"}),
    "drift": ("--drift", {"help": "comma list of drift components"}),
    "buckets": ("--buckets", {"type": int}),
    "significance": ("--significance", {"type": float}),
    "workers": ("--workers", {"type": int,
                              "help": "at least 1; no effect on output or scheduling"}),
    "out": ("--out", {}),
    "fmt": ("--format", {"choices": ["csv", "json"]}),
}

# Flags of every command that simulates a driver ensemble (_build_ensemble).
_ENSEMBLE = ("config", "group", "connection", "lam", "dt", "steps", "replicas",
             "seed", "driver", "cov", "drift", "workers", "out")

# Each command and the flags it reads; argparse refuses any other flag
# (exit 2).
_COMMANDS = {
    "exp": (_cmd_exp, _ENSEMBLE + ("scheme",)),
    "log": (_cmd_log, _ENSEMBLE + ("scheme",)),
    "roundtrip": (_cmd_roundtrip, _ENSEMBLE),
    "convergence": (_cmd_convergence, _ENSEMBLE + ("dts",)),
    "campbell": (_cmd_campbell, ("config", "group", "connection", "lam", "dts",
                                 "replicas", "seed", "rule", "out", "fmt")),
    "martingale-test": (_cmd_martingale_test,
                        _ENSEMBLE + ("scheme", "buckets", "significance")),
    "u-table": (_cmd_u_table, ("config", "group", "lam", "out")),
    "regress": (_cmd_regress, ("config", "out")),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liestoch",
        description="Seeded Monte Carlo experiments for stochastic calculus "
                    "on matrix Lie groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for field_name in flags:
            flag, keywords = _FLAGS[field_name]
            p.add_argument(flag, dest=field_name, default=None, **keywords)
    return parser


def _resolve_config(args):
    if args.config:
        try:
            with open(args.config) as fh:
                config = ExperimentConfig.from_kv(fh.read(), command=args.command)
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}") from exc
    else:
        config = ExperimentConfig(command=args.command)
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name, None)
        if value is not None and f.name != "command":
            setattr(config, f.name, value)
    return config


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return _COMMANDS[config.command][0](config)
    except (UsageError, UnsupportedGroupError) as exc:  # an unknown --group too
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HypothesisError, PowerError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except LieStochError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

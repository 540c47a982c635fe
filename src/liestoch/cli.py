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
seed and r. ``--workers`` must be at least 1. On ``martingale-test``, 2 or
more runs the streamed verdict, from ``martingale.PIPELINE_MIN_CHUNKS``
chunks of replicas, as a two-process pipeline (a forked
producer draws each chunk of replicas while this process develops and
reads back the one before; ``martingale.martingale_test``), two processes
at most whatever the number, with the serial run's bytes and errors.
Every other command ignores it, so existing configs and manifests still
run.

Each run builds one argparse parser, holding only the invoked subcommand's
flags, so each subcommand accepts only the flags it reads and exits 2 on
any other, its message naming the subcommand; a parser of the bare command
names serves only ``--help``, no command and an unknown one (exit 2).
Config files are flat ``key=value`` lines (``#`` comments allowed). Each
line becomes its flag's ``--flag=value`` token, placed before the
command-line flags and parsed by the same parser, so a file value meets
its flag's type and choices and a command-line flag overrides it. A file
may set only the keys of the command's own flags and ``command``, which
must name the subcommand; a file value its flag refuses exits 2 naming
the file. Every command but ``u-table`` and ``regress`` refuses a missing
``--out``, and every command an ``--out`` it cannot write or a draw past
``MAX_DRAW_VALUES``, before any work. Exit codes: 0 success, 1 failed
verification, 2 usage error, 3 violated precondition/hypothesis, 4
numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import acceptance, campbell, explog, martingale
from .connections import alpha_biinvariant, alpha_levi_civita, metric_for, u_from_metric
from .errors import (
    HypothesisError,
    LieStochError,
    MetricError,
    PowerError,
    UnsupportedGroupError,
)
from .groups import get_group
from .linalg import spd_cholesky
from .paths import (
    TimeGrid,
    brownian_ensemble,
    dump_algebra_csv,
    dump_group_csv,
    normal_quantile,
    rung_steps,
    write_table,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4

# The most values a command may hold for one draw: replicas x (steps + 1)
# x n driver coordinates for an ensemble or ladder rung, and for
# martingale-test, which streams its draw, the chunks it holds at once
# (one, or four when --workers pipelines it) and the bucket marks of all
# replicas. 2**30 doubles, 8 GiB. A larger draw exits 2 before any work.
MAX_DRAW_VALUES = 2**30
# Replica indices seed the driver's streams, one spawn-key word each.
MAX_REPLICAS = 2**32


class UsageError(Exception):
    pass


def _confidence_level(text):
    """``--significance``'s type: a number in (0, 1). Anything else is a
    UsageError, which argparse lets through (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 < value < 1.0:
        raise UsageError(f"--significance must be a confidence level in (0, 1), got {text!r}")
    return value


def _flag(default, flag, **keywords):
    """A config field of ``default`` declaring its ``flag``, of the field's
    annotation as type; ``keywords`` (choices, help, type) go to argparse."""
    return field(default=default, metadata={"flag": flag, "keywords": keywords})


@dataclass
class ExperimentConfig:
    """Flat, serializable description of one run: the subcommand, and a
    field per flag but ``--config``, each declaring its flag (``_flag``)."""

    command: str
    group: str = _flag("se3", "--group")
    connection: str = _flag("levicivita", "--connection", choices=["biinvariant", "levicivita"])
    lam: float = _flag(1.0, "--lambda")
    dt: float = _flag(1e-3, "--dt")
    steps: int = _flag(1000, "--steps")
    replicas: int = _flag(64, "--replicas")
    seed: int = _flag(0, "--seed")
    dts: str = _flag("4e-3,2e-3,1e-3", "--dts", help="comma list of step sizes")
    driver: str = _flag("bm", "--driver", choices=["bm", "drift"])
    scheme: str = _flag("ito", "--scheme", choices=["ito", "strat"])
    rule: str = _flag("", "--rule", choices=["ito", "midpoint"])
    cov: str = _flag("", "--cov", help="covariance CSV file")
    drift: str = _flag("", "--drift", help="comma list of drift components")
    buckets: int = _flag(20, "--buckets")
    # 0.0 marks the flag unset: the default z band
    significance: float = _flag(0.0, "--significance", type=_confidence_level)
    workers: int = _flag(1, "--workers", help="at least 1; martingale-test with 2 or more "
                         "draws its chunks in a second process from "
                         f"{martingale.PIPELINE_MIN_CHUNKS} chunks of replicas, same "
                         "output; other commands ignore it")
    out: str = _flag("", "--out")
    fmt: str = _flag("csv", "--format", choices=["csv", "json"])

    def dt_ladder(self, horizon, n, ensembles=1):
        """The ``--dts`` rungs, each a positive step that divides ``horizon``
        (``paths.rung_steps``), so every rung runs to the same terminal time,
        and each a draw of ``ensembles`` times ``--replicas`` replicas of
        ``n`` coordinates within ``MAX_DRAW_VALUES``, all checked before any
        rung runs."""
        tokens = self.dts.split(",")
        if not all(tok.strip() for tok in tokens):
            raise UsageError(f"--dts has an empty entry: {self.dts!r}")
        try:
            ladder = tuple(float(tok) for tok in tokens)
        except ValueError as exc:
            raise UsageError(f"bad --dts list: {self.dts!r}") from exc
        for dt in ladder:
            try:
                steps = rung_steps(horizon, dt)
            except ValueError as exc:
                raise UsageError(f"--dts {exc}") from None
            _check_size(ensembles * self.replicas, steps + 1, n,
                        f"--dts rung {dt!r} with --replicas {self.replicas}: the draw "
                        "(replicas x (steps + 1) x coordinates)")
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


def _check_size(replicas, points, n, what):
    """Refuse to hold ``replicas`` x ``points`` x ``n`` values past
    ``MAX_DRAW_VALUES``; ``what`` names the flags that set them and how."""
    if replicas * points * n > MAX_DRAW_VALUES:
        raise UsageError(f"{what} would hold more than {MAX_DRAW_VALUES} values")


def _metric(config, spec):
    """The catalog metric that ``--lambda`` weights; a square past double
    range is a usage error."""
    try:
        return metric_for(spec, config.lam)
    except MetricError as exc:
        raise UsageError(f"--lambda: {exc}") from None


def _connection(config):
    spec = get_group(config.group)
    _positive(config.lam, "--lambda")
    if config.connection == "biinvariant":
        if config.lam != 1.0:
            raise UsageError(f"--lambda weights the levicivita metric; the biinvariant "
                             f"connection has none, got {config.lam!r}")
        return spec, alpha_biinvariant(spec)
    return spec, alpha_levi_civita(_metric(config, spec))


def _load_covariance(config, spec):
    if not config.cov:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # a file with no data
            cov = np.loadtxt(config.cov, delimiter=",", ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
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


def _driver(config, spec):
    """The grid, covariance and drift of the driver, every flag checked.

    ``--cov`` shapes the ``bm`` driver and ``--drift`` the ``drift`` driver;
    a flag the chosen driver would ignore is a usage error. The caller
    checks what its draw holds against ``MAX_DRAW_VALUES``.
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
    return grid, covariance, drift


def _build_ensemble(config, spec):
    """The driver ensemble, drawn in one call."""
    grid, covariance, drift = _driver(config, spec)
    _check_size(config.replicas, grid.steps + 1, spec.algebra_dim,
                f"--replicas {config.replicas} over --steps {config.steps}: the draw "
                "(replicas x (steps + 1) x coordinates)")
    return brownian_ensemble(spec, grid, config.seed, config.replicas,
                             covariance=covariance, drift=drift)


def _check_draw(config, min_replicas=1):
    """The replica count and seed of a seeded driver draw."""
    if config.replicas < min_replicas:
        raise UsageError(f"--replicas must be at least {min_replicas}")
    if config.replicas > MAX_REPLICAS:
        raise UsageError(f"--replicas must be at most 2**32, the driver's seeding range, "
                         f"got {config.replicas}")
    if config.seed < 0:
        raise UsageError("--seed must be a non-negative integer")


def _json(payload):
    """A writer of ``payload`` as indented JSON with sorted keys."""
    def write(fh):
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return write


def _write(config, write, *siblings):
    """Open ``--out`` for ``write``, then ``--out`` + suffix for each
    ``(suffix, writer)`` sibling, and last write the manifest of ``config``."""
    manifest = _json({"schema": SCHEMA_VERSION, "config": asdict(config)})
    for suffix, writer in (("", write), *siblings, (".manifest.json", manifest)):
        path = config.out + suffix
        try:
            fh = open(path, "w", newline="")
        except OSError as exc:
            raise UsageError(f"cannot write {path!r}: {exc}") from exc
        with fh:
            writer(fh)


def _cmd_exp(config):
    spec, alpha = _connection(config)
    ensemble = _build_ensemble(config, spec)
    solved = (explog.ito_exponential(ensemble, alpha) if config.scheme == "ito"
              else explog.strat_exponential(ensemble))
    _write(config, partial(dump_group_csv, solved))
    return EXIT_OK


def _cmd_log(config):
    spec, alpha = _connection(config)
    logs = explog.development_logarithm(_build_ensemble(config, spec), alpha, config.scheme)
    _write(config, partial(dump_algebra_csv, logs))
    return EXIT_OK


def _cmd_roundtrip(config):
    spec, alpha = _connection(config)
    err = explog.roundtrip_errors(_build_ensemble(config, spec), alpha)
    _write(config, partial(write_table, header=["replica", "terminal_error"],
                           rows=[*enumerate(err), ("mean", np.mean(err))]))
    return EXIT_OK


def _cmd_convergence(config):
    spec, alpha = _connection(config)
    _check_draw(config, min_replicas=2)  # each rung reports a standard error
    horizon = config.grid().horizon
    rows = []
    for dt in config.dt_ladder(horizon, spec.algebra_dim):
        sub = replace(config, dt=dt, steps=rung_steps(horizon, dt))
        err = explog.roundtrip_errors(_build_ensemble(sub, spec), alpha)
        rows.append((dt, np.mean(err), np.std(err, ddof=1) / np.sqrt(len(err))))
    _write(config, partial(write_table, header=["dt", "mean_terminal_error", "stderr"],
                           rows=rows))
    return EXIT_OK


def _cmd_campbell(config):
    spec, alpha = _connection(config)
    _check_draw(config, min_replicas=2)  # each rung reports a standard error
    # a rung develops its two ensembles as one of twice the replicas
    dts = config.dt_ladder(campbell.HORIZON, spec.algebra_dim, ensembles=2)
    reports = [
        campbell.ch_ladder(spec, alpha, dts=dts, replicas=config.replicas,
                           base_seed=config.seed, rule=config.rule or "midpoint"),
        campbell.log_product_ladder(spec, alpha, dts=dts, replicas=config.replicas,
                                    base_seed=config.seed + 100, rule=config.rule or "ito"),
    ]
    if config.fmt == "json":
        write = _json({"schema": SCHEMA_VERSION, "reports": [asdict(r) for r in reports]})
    else:
        write = partial(
            write_table, header=["kind", "rule", "dt", "mean_terminal", "max_terminal", "stderr"],
            rows=[(rep.kind, rep.rule, *row) for rep in reports for row in zip(
                rep.dt_ladder, rep.mean_terminal, rep.max_terminal, rep.stderr_terminal)],
        )
    _write(config, write)
    return EXIT_OK


def _cmd_martingale_test(config):
    if config.buckets < 1:
        raise UsageError(f"--buckets must be a positive integer, got {config.buckets}")
    if config.steps % config.buckets != 0:
        raise UsageError(f"--buckets {config.buckets} must divide --steps {config.steps}")
    spec, alpha = _connection(config)
    grid, covariance, drift = _driver(config, spec)
    # the draw is streamed: the chunks of replicas it holds at once (one,
    # or the pipeline's four) and every replica's marks
    rows = martingale.chunk_rows(grid.steps, config.replicas)
    held = martingale.chunks_held(grid.steps, config.replicas, config.workers)
    what = (f"--steps {config.steps}: a chunk of {rows} replicas" if held == 1 else
            f"--steps {config.steps} with --workers {config.workers}: {held} chunks of {rows} "
            "replicas, the pipeline's two ring slots, the chunk drawn and the one read back")
    _check_size(held * rows, grid.steps + 1, spec.algebra_dim,
                f"{what} (replicas x (steps + 1) x coordinates)")
    _check_size(config.replicas, config.buckets + 1, spec.algebra_dim,
                f"--replicas {config.replicas} over --buckets {config.buckets}: the marks "
                "(replicas x (buckets + 1) x coordinates)")
    level = config.significance  # 0.0: unset
    z_band = normal_quantile(1.0 - (1.0 - level) / 2.0) if level else martingale.DEFAULT_Z_BAND
    report = martingale.martingale_test(
        spec, alpha, grid, config.seed, config.replicas, scheme=config.scheme,
        covariance=covariance, drift=drift, buckets=config.buckets, z_band=z_band,
        workers=config.workers)
    summary = {key: value for key, value in vars(report).items()
               if not isinstance(value, np.ndarray)}
    zscores = partial(write_table, header=["bucket", "component", "mean", "stderr", "z"], rows=[
        (b, c, report.mean[b, c], report.stderr[b, c], report.z[b, c])
        for b, c in np.ndindex(report.z.shape)
    ])
    _write(config, _json({"schema": SCHEMA_VERSION, "max_abs_z": report.max_abs_z, **summary}),
           (".zscores.csv", zscores))
    print(f"verdict: {'pass' if report.passed else 'fail'} "
          f"(max |z| = {report.max_abs_z:.2f})")
    return EXIT_OK


def _cmd_u_table(config):
    spec = get_group(config.group)
    _positive(config.lam, "--lambda")
    u = u_from_metric(_metric(config, spec)).coeffs
    n = spec.algebra_dim
    write = partial(write_table, header=["i", "j"] + [f"c{k+1}" for k in range(n)],
                    rows=[(i + 1, j + 1, *u[:, i, j]) for i in range(n) for j in range(n)])
    if config.out:
        _write(config, write)
    else:
        write(sys.stdout)
    return EXIT_OK


def _cmd_regress(config):
    results = acceptance.run_all()
    failed = [r for r in results if not r.passed]
    if config.out:
        criteria = [{"name": r.name, "passed": r.passed, "details": r.details,
                     "runtime_seconds": round(r.seconds, 2)} for r in results]
        _write(config, _json({"schema": SCHEMA_VERSION, "criteria": criteria,
                              "all_passed": not failed}))
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return EXIT_OK if not failed else EXIT_VERIFICATION_FAILED


# Every flag by config field: (flag, argparse keywords), each field's own
# and ``--config``. A config file's ``key=value`` line is the token ``flag=value``.
_TYPES = {"int": int, "float": float, "str": str}
_FLAGS = {
    "config": ("--config", {"help": "flat key=value config file"}),
    **{f.name: (f.metadata["flag"], {"type": _TYPES[f.type], **f.metadata["keywords"]})
       for f in fields(ExperimentConfig) if f.name != "command"},
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


def _command_parser(command):
    """The parser of ``command``'s own flags, for its argv and its config
    file's tokens alike; it refuses any other flag (exit 2)."""
    parser = argparse.ArgumentParser(prog=f"liestoch {command}", exit_on_error=False)
    for field_name in _COMMANDS[command][1]:
        flag, keywords = _FLAGS[field_name]
        parser.add_argument(flag, dest=field_name, default=None, **keywords)
    return parser


def _parse(parser, tokens, source=""):
    """``parser``'s namespace of ``tokens``. A value its flag refuses exits 2
    (argparse's exit, or a UsageError from the flag's own type), the
    message led by ``source``."""
    try:
        return parser.parse_args(tokens)
    except argparse.ArgumentError as exc:
        parser.error(f"{source}{exc}")
    except UsageError as exc:
        raise UsageError(f"{source}{exc}") from None


def _command(argv):
    """The subcommand ``argv`` starts with. Anything else goes to a parser
    that knows only the command names: ``--help`` exits 0, and no command
    or an unknown one exits 2."""
    if argv and argv[0] in _COMMANDS:
        return argv[0]
    parser = argparse.ArgumentParser(
        prog="liestoch",
        description="Seeded Monte Carlo experiments for stochastic calculus "
                    "on matrix Lie groups.",
    )
    parser.add_argument("command", choices=list(_COMMANDS),
                        help="run 'liestoch COMMAND --help' for its flags")
    return parser.parse_args(argv[:1]).command


def _config_tokens(command, path):
    """The ``--flag=value`` token of each ``key=value`` line of the config
    file at ``path``, in file order. A ``command`` line must name ``command``
    and gives no token."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}") from exc
    tokens = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "command":
            if value != command:
                raise UsageError(f"config key 'command' names {value!r}, not {command!r}")
        elif key == "config" or key not in _COMMANDS[command][1]:
            raise UsageError(f"{command} does not read config key {key!r}")
        else:
            tokens.append(f"{_FLAGS[key][0]}={value}")
    return tokens


def _resolve_config(argv):
    """The config of ``argv`` (subcommand first). A ``--config`` file's
    tokens are parsed on their own first, so that a value its flag refuses
    exits 2 naming the file, then ahead of the command-line flags, which
    override them."""
    command, flags = _command(argv), argv[1:]
    parser = _command_parser(command)
    args = _parse(parser, flags)
    if args.config:
        tokens = _config_tokens(command, args.config)
        _parse(parser, tokens, f"config file {args.config!r}: ")
        args = _parse(parser, [*tokens, *flags])
    return ExperimentConfig(command=command, **{key: value for key, value in vars(args).items()
                                                if value is not None and key != "config"})


def _check_out(path):
    """Refuse an ``--out`` that cannot be written, before any work: its
    directory must exist and be writable, and it must not be a directory."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path!r}: it is a directory")
    if not os.access(directory, os.W_OK | os.X_OK):
        raise UsageError(f"cannot write {path!r}: no writable directory {directory!r}")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        config = _resolve_config(argv)
        if config.out:
            _check_out(config.out)
        elif config.command not in ("u-table", "regress"):
            raise UsageError("this command requires --out")
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

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from liestoch import cli, explog
from liestoch.acceptance import NEGATIVE_CONTROL_COV
from liestoch.cli import (
    _COMMANDS,
    _FLAGS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    ExperimentConfig,
    UsageError,
    _resolve_config,
    main,
)
from liestoch.connections import REGRESSION_LAMBDAS, metric_for, u_from_metric
from liestoch.errors import IntegratorDriftError
from liestoch.groups import get_group


def run_cli(*argv):
    return main(list(argv))


def test_config_kv_roundtrip(tmp_path, monkeypatch):
    # no command reads every key, so here convergence reads them all
    monkeypatch.setitem(_COMMANDS, "convergence", (None, tuple(_FLAGS)))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""# every field, none at its default
command=convergence
group=so3
connection=biinvariant
lam=0.75
dt=2.5e-3
steps=400
replicas=12
seed=99
dts=4e-3,2e-3
driver=drift
scheme=strat
rule=midpoint
cov=cov.csv
drift=0.1,0.2,0.3
buckets=8
significance=0.99
workers=2
out=x.csv
fmt=json
""")
    parsed = _resolve_config(["convergence", "--config", str(cfg)])
    assert parsed == ExperimentConfig(
        command="convergence", group="so3", connection="biinvariant", lam=0.75,
        dt=2.5e-3, steps=400, replicas=12, seed=99, dts="4e-3,2e-3", driver="drift",
        scheme="strat", rule="midpoint", cov="cov.csv", drift="0.1,0.2,0.3", buckets=8,
        significance=0.99, workers=2, out="x.csv", fmt="json",
    )
    default = ExperimentConfig(command="exp")
    for f in fields(ExperimentConfig):
        assert getattr(parsed, f.name) != getattr(default, f.name), f.name


def test_config_kv_errors(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    for text in ("not a kv line", "unknown_key=3"):
        cfg.write_text(text)
        with pytest.raises(UsageError):
            _resolve_config(["exp", "--config", str(cfg)])
    cfg.write_text("steps=abc")  # argparse's own type check
    with pytest.raises(SystemExit) as exc:
        _resolve_config(["exp", "--config", str(cfg)])
    assert exc.value.code == EXIT_USAGE
    assert "argument --steps: invalid int value: 'abc'" in capsys.readouterr().err


def test_every_command_flag_is_a_config_field():
    # each field declares its own flag, its annotation the argparse type;
    # a command can only read flags that set a field
    assert _FLAGS["lam"] == ("--lambda", {"type": float})
    assert _FLAGS["significance"][1]["type"] is cli._confidence_level
    names = {f.name for f in fields(ExperimentConfig)} - {"command"}
    for _, flags in _COMMANDS.values():
        assert set(flags) - {"config"} <= names


def test_config_file_with_cli_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=so3\nconnection=biinvariant\nsteps=50\nreplicas=4\n"
                   "dt=0.01\nseed=7\n# comment line\n")
    out = tmp_path / "paths.csv"
    code = run_cli("exp", "--config", str(cfg), "--replicas", "6", "--out", str(out))
    assert code == 0
    manifest = json.loads((tmp_path / "paths.csv.manifest.json").read_text())
    assert manifest["schema"] == 1
    assert manifest["config"]["replicas"] == 6      # CLI wins
    assert manifest["config"]["group"] == "so3"     # file value kept
    rows = list(csv.reader(out.open()))
    assert rows[0][:3] == ["replica", "k", "t"]
    assert len(rows) == 1 + 6 * 51


def test_u_table_matches_cross_product(tmp_path):
    out = tmp_path / "u.csv"
    assert run_cli("u-table", "--group", "se3", "--lambda", "1", "--out", str(out)) == 0
    rows = {(r["i"], r["j"]): r for r in csv.DictReader(out.open())}
    # U(E1, e2) = e3 / 2
    assert float(rows[("1", "5")]["c6"]) == pytest.approx(0.5, abs=1e-12)
    assert float(rows[("2", "4")]["c6"]) == pytest.approx(-0.5, abs=1e-12)


def test_roundtrip_csv_summary(tmp_path):
    out = tmp_path / "rt.csv"
    code = run_cli(
        "roundtrip", "--group", "se3", "--connection", "levicivita", "--lambda", "1",
        "--dt", "4e-3", "--steps", "125", "--replicas", "8", "--seed", "5",
        "--out", str(out),
    )
    assert code == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["replica", "terminal_error"]
    assert rows[-1][0] == "mean"
    errors = [float(r[1]) for r in rows[1:-1]]
    assert len(errors) == 8
    assert float(rows[-1][1]) == pytest.approx(np.mean(errors))


def test_worker_determinism(tmp_path):
    args = ["log", "--group", "so3", "--connection", "biinvariant", "--dt", "0.02",
            "--steps", "25", "--replicas", "9", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--workers", "1", "--out", str(a)) == 0
    assert run_cli(*args, "--workers", "4", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_convergence_command(tmp_path):
    out = tmp_path / "conv.csv"
    code = run_cli(
        "convergence", "--group", "se3", "--connection", "levicivita",
        "--dt", "1e-3", "--steps", "1000", "--dts", "8e-3,4e-3",
        "--replicas", "8", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert [r["dt"] for r in rows] == ["0.008", "0.004"]
    assert float(rows[0]["mean_terminal_error"]) > float(rows[1]["mean_terminal_error"])


def test_convergence_ladder_has_one_row_per_rung(tmp_path):
    # the se3 Levi-Civita round-trip ladder of the former convergence study
    out = tmp_path / "conv.csv"
    assert run_cli("convergence", "--dts", "0.04,0.02", "--replicas", "8",
                   "--seed", "20260810", "--out", str(out)) == 0
    rows = list(csv.reader(out.open()))
    assert rows[0] == ["dt", "mean_terminal_error", "stderr"]
    assert [r[0] for r in rows[1:]] == ["0.04", "0.02"]
    assert all(float(v) > 0 for r in rows[1:] for v in r[1:])


def test_convergence_refuses_a_rung_that_does_not_divide_the_horizon(tmp_path, capsys):
    # 0.03 into a horizon of 1.0 would run 33 steps to t = 0.99
    out = tmp_path / "conv.csv"
    code = run_cli("convergence", "--group", "so3", "--connection", "biinvariant",
                   "--dt", "0.01", "--steps", "100", "--dts", "0.02,0.03",
                   "--replicas", "4", "--seed", "1", "--out", str(out))
    assert code == EXIT_USAGE
    assert "rung 0.03 " in capsys.readouterr().err
    assert not out.exists()


def test_convergence_refuses_a_single_replica(tmp_path, capsys):
    # one replica has no standard error: every stderr cell was nan
    out = tmp_path / "conv.csv"
    code = run_cli("convergence", "--group", "so3", "--connection", "biinvariant",
                   "--replicas", "1", "--steps", "100", "--dt", "0.01", "--dts", "0.02,0.01",
                   "--out", str(out))
    assert code == EXIT_USAGE
    assert "--replicas must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_campbell_refuses_a_rung_that_does_not_divide_the_horizon(tmp_path, capsys):
    # 0.03 would run round(1 / 0.03) = 33 steps, i.e. dt = 1/33, while the
    # report recorded 0.03
    out = tmp_path / "ch.json"
    code = run_cli("campbell", "--group", "so3", "--connection", "biinvariant",
                   "--dts", "0.03", "--replicas", "4", "--seed", "1",
                   "--format", "json", "--out", str(out))
    assert code == EXIT_USAGE
    assert "rung 0.03 " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("replicas, seed, flag", [
    ("0", "1", "--replicas"), ("1", "1", "--replicas"), ("4", "-1", "--seed"),
])
def test_campbell_refuses_too_few_replicas_or_a_negative_seed(replicas, seed, flag,
                                                               tmp_path, capsys):
    # 0 replicas divided by zero, 1 replica wrote a NaN standard error and a
    # negative seed reached SeedSequence
    out = tmp_path / "ch.json"
    code = run_cli("campbell", "--group", "so3", "--connection", "biinvariant",
                   "--dts", "0.02", "--replicas", replicas, "--seed", seed,
                   "--format", "json", "--out", str(out))
    assert code == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_campbell_csv_ladders_by_rule(tmp_path):
    # the so3 bi-invariant Campbell table of the former convergence study:
    # one run per reading of the adjoint-weighted integral
    means = {}
    for rule in ("ito", "midpoint"):
        out = tmp_path / f"ch_{rule}.csv"
        assert run_cli("campbell", "--group", "so3", "--connection", "biinvariant",
                       "--dts", "0.04,0.02", "--replicas", "8", "--seed", "20260810",
                       "--format", "csv", "--rule", rule, "--out", str(out)) == 0
        rows = list(csv.DictReader(out.open()))
        exp_rows = [r for r in rows if r["kind"] == "exponential-identity"]
        log_rows = [r for r in rows if r["kind"] == "logarithm-identity"]
        assert len(rows) == 4 and len(exp_rows) == len(log_rows) == 2
        assert {r["rule"] for r in exp_rows} == {rule}
        assert [r["dt"] for r in exp_rows] == ["0.04", "0.02"]
        means[rule] = [float(r["mean_terminal"]) for r in exp_rows]
    # same driver paths: the midpoint reading leaves the smaller residual
    assert all(m < i for m, i in zip(means["midpoint"], means["ito"]))


def test_campbell_command_csv(tmp_path):
    out = tmp_path / "ch.csv"
    code = run_cli(
        "campbell", "--group", "so3", "--connection", "biinvariant",
        "--dts", "1e-2,5e-3", "--replicas", "16", "--seed", "4", "--out", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4  # two identities x two rungs
    assert {r["kind"] for r in rows} == {"exponential-identity", "logarithm-identity"}


def test_u_table_stdout(capsys):
    assert run_cli("u-table", "--group", "se2", "--lambda", "1") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "i,j,c1,c2,c3"
    assert len(lines) == 1 + 9


def test_martingale_report_invariant_across_workers(tmp_path):
    # drift verdicts must not depend on how replicas were produced
    args = ["martingale-test", "--group", "so3", "--connection", "biinvariant",
            "--dt", "0.01", "--steps", "100", "--replicas", "150", "--seed", "17",
            "--buckets", "10"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(*args, "--workers", "1", "--out", str(a)) == 0
    assert run_cli(*args, "--workers", "3", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    za = (tmp_path / "a.json.zscores.csv").read_bytes()
    zb = (tmp_path / "b.json.zscores.csv").read_bytes()
    assert za == zb


def test_campbell_command_json(tmp_path):
    out = tmp_path / "ch.json"
    code = run_cli(
        "campbell", "--group", "so3", "--connection", "biinvariant",
        "--dts", "1e-2,5e-3", "--replicas", "16", "--seed", "4",
        "--format", "json", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    kinds = {r["kind"] for r in payload["reports"]}
    assert kinds == {"exponential-identity", "logarithm-identity"}
    for rep in payload["reports"]:
        assert len(rep["mean_terminal"]) == 2


def test_martingale_test_command(tmp_path, capsys):
    out = tmp_path / "mt.json"
    code = run_cli(
        "martingale-test", "--group", "so3", "--connection", "biinvariant",
        "--driver", "bm", "--scheme", "ito", "--dt", "0.01", "--steps", "100",
        "--replicas", "200", "--seed", "8", "--buckets", "20", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1 and payload["passed"] is True
    zrows = list(csv.DictReader(open(str(out) + ".zscores.csv")))
    assert len(zrows) == 20 * 3
    assert "pass" in capsys.readouterr().out


def test_martingale_test_drift_driver_fails_verdict(tmp_path):
    out = tmp_path / "drifted.json"
    code = run_cli(
        "martingale-test", "--group", "so3", "--connection", "biinvariant",
        "--driver", "drift", "--drift", "1,0,0", "--scheme", "strat",
        "--dt", "0.01", "--steps", "100", "--replicas", "400", "--seed", "2",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    assert payload["max_abs_z"] > 4.0


def test_martingale_test_controls_on_se3(tmp_path):
    """The se3 martingale controls through the command line: Ito development
    with Levi-Civita passes the verdict; Stratonovich development driven with
    criterion 6's rotation/translation covariance fails it, its largest |z|
    on e3, the direction of the predicted compensator drift."""
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, NEGATIVE_CONTROL_COV, delimiter=",")
    args = ["martingale-test", "--group", "se3", "--connection", "levicivita",
            "--dt", "0.05", "--steps", "20", "--replicas", "1000", "--seed", "16180339"]
    pos, neg = tmp_path / "pos.json", tmp_path / "neg.json"
    assert run_cli(*args, "--out", str(pos)) == EXIT_OK
    assert json.loads(pos.read_text())["passed"] is True
    assert run_cli(*args, "--scheme", "strat", "--cov", str(cov), "--out", str(neg)) == EXIT_OK
    assert json.loads(neg.read_text())["passed"] is False
    zrows = list(csv.DictReader(open(str(neg) + ".zscores.csv")))
    worst = max(zrows, key=lambda row: abs(float(row["z"])))
    u = u_from_metric(metric_for("se3", 1.0)).coeffs
    drift = 0.5 * np.einsum("kij,ij->k", u, NEGATIVE_CONTROL_COV)
    assert int(worst["component"]) == int(np.argmax(np.abs(drift))) == 5


def test_exit_codes(tmp_path):
    # usage: missing --out
    assert run_cli("roundtrip", "--group", "se3") == EXIT_USAGE
    # usage: an unknown group name is a bad flag value, not a numerical failure
    code = run_cli("roundtrip", "--group", "su9", "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_USAGE
    assert run_cli("u-table", "--group", "su9") == EXIT_USAGE
    # precondition: too few replicas for the drift test
    code = run_cli(
        "martingale-test", "--group", "so3", "--connection", "biinvariant",
        "--dt", "0.01", "--steps", "100", "--replicas", "10", "--seed", "1",
        "--out", str(tmp_path / "y.json"),
    )
    assert code == EXIT_PRECONDITION


_SMALL = ["--group", "so3", "--connection", "biinvariant", "--dt", "0.01", "--steps", "10",
          "--replicas", "100", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    ["exp", *_SMALL], ["log", *_SMALL], ["roundtrip", *_SMALL],
    ["convergence", *_SMALL, "--dts", "0.02,0.01"],
    ["campbell", "--group", "so3", "--connection", "biinvariant", "--dts", "0.02,0.01",
     "--replicas", "3", "--seed", "1"],
    ["martingale-test", *_SMALL, "--buckets", "5"],
], ids=lambda argv: argv[0])
def test_a_missing_out_is_refused_before_any_work(argv, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "brownian_ensemble", never)
    monkeypatch.setattr(cli.martingale, "brownian_ensemble", never)
    monkeypatch.setattr(cli.campbell, "ch_ladder", never)
    assert run_cli(*argv) == EXIT_USAGE
    assert "requires --out" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["exp", *_SMALL], ["log", *_SMALL], ["martingale-test", *_SMALL, "--buckets", "5"],
    ["regress"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_out_is_refused_before_any_work(argv, where, tmp_path, monkeypatch,
                                                      capsys):
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "brownian_ensemble", never)
    monkeypatch.setattr(cli.martingale, "brownian_ensemble", never)
    monkeypatch.setattr(cli.acceptance, "run_all", never)
    out = tmp_path / "no" / "such" / "x.csv" if where == "missing directory" else tmp_path
    assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    assert f"cannot write {str(out)!r}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_config_file_value_its_flag_refuses_names_the_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("group=so3\nsteps=abc\n")
    out = tmp_path / "x.csv"
    assert _refused("exp", "--config", str(cfg), "--steps", "10", "--out", str(out))
    err = capsys.readouterr().err
    assert f"config file {str(cfg)!r}: argument --steps: invalid int value: 'abc'" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["exp", "log"])
@pytest.mark.parametrize("dt, expected", [("4", EXIT_NUMERICAL), ("1", EXIT_OK)])
def test_large_dt_is_a_numerical_failure(command, dt, expected, tmp_path):
    # sl2r Levi-Civita steps of size 4 drift off the group
    code = run_cli(
        command, "--group", "sl2r", "--connection", "levicivita", "--lambda", "1",
        "--dt", dt, "--steps", "5", "--replicas", "4", "--seed", "1",
        "--out", str(tmp_path / "out.csv"),
    )
    assert code == expected


@pytest.mark.parametrize("drift, expected", [("690", EXIT_OK), ("720", EXIT_NUMERICAL)])
def test_e11_near_the_positivity_boundary(drift, expected, tmp_path):
    # an H drift drives m22 = e^(-drift t) toward 0: near 1e-300 the path
    # still passes the membership gate; at 720, m11 = e^720 overflows and
    # the gate's NaN defect is a numerical failure
    out = tmp_path / "e11.csv"
    code = run_cli("exp", "--group", "e11", "--connection", "biinvariant",
                   "--driver", "drift", "--drift", f"{drift},0,0", "--dt", "0.01",
                   "--steps", "100", "--replicas", "4", "--seed", "1", "--out", str(out))
    assert code == expected
    if expected == EXIT_OK:
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        p, q = rows[rows[:, 1] == 100][:, [3, 7]].T  # m11, m22 at t = 1
        assert np.all((q > 0.0) & (q < 1e-290))
        assert np.max(np.abs(p * q - 1.0)) <= 1e-10


def test_exp_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the first e11 step exponentiates an H drift of 1e5 * 0.01 = 1000 and
    # overflows inside mat_exp itself, before any membership gate; a numpy
    # warning on the way would fail the test (pyproject's filterwarnings)
    code = run_cli("exp", "--group", "e11", "--connection", "biinvariant",
                   "--driver", "drift", "--drift", "1e5,0,0", "--dt", "0.01",
                   "--steps", "10", "--replicas", "2", "--seed", "1",
                   "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_NUMERICAL
    assert "overflowed" in capsys.readouterr().err


@pytest.mark.parametrize("group", ["e11", "sl2r"])
def test_an_exp_past_double_range_in_one_step_is_a_numerical_failure(group, tmp_path, capsys):
    # an H drift of about 800 in one unit step: e^h (e11) or cosh and sinh
    # (sl2r) overflow in the row's closed-form exp, with no numpy warning
    code = run_cli("exp", "--group", group, "--driver", "drift", "--drift", "800,0,0",
                   "--dt", "1", "--steps", "1", "--seed", "1", "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_NUMERICAL
    assert "overflowed" in capsys.readouterr().err


def test_exp_overflow_prints_only_the_cli_message(tmp_path):
    # numpy's overflow warnings used to precede it: from mat_exp's squaring
    # loop (a step of 1e5 * 0.01) and from the develop product (steps of
    # 7.2 whose running product reaches e^720)
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    for drift, steps, replicas in (("1e5", "10", "2"), ("720", "100", "4")):
        proc = subprocess.run(
            [sys.executable, "-m", "liestoch.cli", "exp", "--group", "e11",
             "--connection", "biinvariant", "--driver", "drift", "--drift", f"{drift},0,0",
             "--dt", "0.01", "--steps", steps, "--replicas", replicas, "--seed", "1",
             "--out", str(tmp_path / "x.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_NUMERICAL
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: "), proc.stderr


def test_ito_correction_overflow_is_a_numerical_failure(tmp_path, capsys):
    # the se3 Levi-Civita correction squares a step of 1e200 * 0.01, which
    # overflows before any exponential; no np.errstate shield, so a numpy
    # warning on the way fails the test (pyproject's filterwarnings)
    out = tmp_path / "y.csv"
    code = run_cli("exp", "--group", "se3", "--driver", "drift",
                   "--drift", "1e200,0,0,0,1e200,0", "--dt", "0.01", "--steps", "2",
                   "--replicas", "1", "--out", str(out))
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert not out.exists()


@pytest.mark.parametrize("buckets, replicas", [
    ("20", "200"), ("20", "50"), ("0", "200"), ("-5", "200"),
])
def test_bad_buckets_are_refused_before_the_driver_is_drawn(buckets, replicas, tmp_path,
                                                            monkeypatch):
    # 20 does not divide 50 steps; 50 replicas would also fail the drift
    # test's power precondition, which must not hide the usage error
    def never(*args, **kwargs):
        raise AssertionError("the driver was drawn")

    monkeypatch.setattr("liestoch.cli.brownian_ensemble", never)
    monkeypatch.setattr("liestoch.martingale.brownian_ensemble", never)
    code = run_cli("martingale-test", "--group", "so3", "--dt", "0.01", "--steps", "50",
                   "--replicas", replicas, "--buckets", buckets, "--seed", "1",
                   "--out", str(tmp_path / "m.json"))
    assert code == EXIT_USAGE
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("extra", [
    ("--driver", "bm", "--drift", "9,9,9"), ("--workers", "0"), ("--seed", "-1"),
    ("--significance", "1.5"), ("--lambda", "0"),
])
def test_martingale_test_flag_refusals_come_before_the_power_check(extra, tmp_path,
                                                                   monkeypatch):
    # 50 replicas fail the power precondition (exit 3), but a bad flag is a
    # usage error first, and neither draws a replica
    def never(*args, **kwargs):
        raise AssertionError("the driver was drawn")

    monkeypatch.setattr("liestoch.martingale.brownian_ensemble", never)
    base = ["martingale-test", "--group", "so3", "--dt", "0.01", "--steps", "50",
            "--replicas", "50", "--buckets", "5", "--seed", "1"]
    out = tmp_path / "m.json"
    assert run_cli(*base, "--out", str(out)) == EXIT_PRECONDITION
    assert run_cli(*base, *extra, "--out", str(out)) == EXIT_USAGE
    assert list(tmp_path.iterdir()) == []


def test_martingale_test_failure_in_a_later_chunk_writes_nothing(tmp_path, monkeypatch,
                                                                  capsys):
    # a chunk of 50 replicas at 100 steps: the second of three chunks fails
    # the membership gate of its develop, after the first was read back
    calls, gate = [], explog._gate_develop

    def second_fails(spec, steps):
        calls.append(len(steps))
        if len(calls) == 2:
            raise IntegratorDriftError("so3: integrator drifted off the group")
        return gate(spec, steps)

    monkeypatch.setattr(cli.martingale, "_CHUNK_STEPS", 5000)
    monkeypatch.setattr(explog, "_gate_develop", second_fails)
    code, out = _so3_run("martingale-test", tmp_path, "m.json", "--replicas", "120",
                         "--steps", "100")
    assert code == EXIT_NUMERICAL and calls == [50, 50]
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert list(tmp_path.iterdir()) == []


def test_missing_output_directory_is_usage_error(tmp_path):
    code = run_cli(
        "roundtrip", "--group", "so3", "--connection", "biinvariant",
        "--dt", "0.01", "--steps", "10", "--replicas", "4", "--seed", "0",
        "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"),
    )
    assert code == EXIT_USAGE


def test_bad_numeric_flags_are_usage_errors(tmp_path):
    base = ["exp", "--group", "so3", "--connection", "biinvariant",
            "--dt", "0.01", "--steps", "10", "--out", str(tmp_path / "x.csv")]
    assert run_cli(*base, "--replicas", "0", "--seed", "1") == EXIT_USAGE
    assert run_cli(*base, "--replicas", "2", "--seed", "-5") == EXIT_USAGE
    assert run_cli(*base, "--replicas", "2", "--seed", "1", "--workers", "0") == EXIT_USAGE
    assert run_cli(*base, "--replicas", "2", "--seed", "1", "--workers", "-3") == EXIT_USAGE
    assert run_cli("campbell", "--group", "so3", "--connection", "biinvariant",
                   "--dts", " , ", "--replicas", "16", "--seed", "1",
                   "--out", str(tmp_path / "c.json")) == EXIT_USAGE


_RUN = ["--group", "so3", "--dt", "0.01", "--steps", "10", "--replicas", "2", "--seed", "1"]
_LADDER = ["--group", "so3", "--connection", "biinvariant", "--replicas", "4", "--seed", "1"]


@pytest.mark.parametrize("argv, flag", [
    (["u-table", "--group", "se3", "--lambda", "0"], "--lambda"),
    (["u-table", "--group", "se3", "--lambda", "-1"], "--lambda"),
    (["u-table", "--group", "se3", "--lambda", "nan"], "--lambda"),
    (["exp", *_RUN, "--lambda", "0"], "--lambda"),
    (["exp", *_RUN, "--lambda", "-1"], "--lambda"),
    (["exp", *_RUN, "--lambda", "nan"], "--lambda"),
    (["exp", "--dt", "nan", "--steps", "10", "--replicas", "2"], "--dt"),
    (["exp", "--dt", "inf", "--steps", "10", "--replicas", "2"], "--dt"),
    (["exp", *_RUN, "--driver", "drift", "--drift", "nan,0,0"], "--drift"),
    (["convergence", *_RUN, "--dts", "0.02,nan"], "--dts"),
    (["campbell", *_LADDER, "--dts", "nan"], "--dts"),
    (["exp", "--group", "so3", "--dt", "1e308", "--steps", "2", "--replicas", "1"], "--dt"),
])
def test_non_positive_or_non_finite_numbers_name_their_flag(argv, flag, tmp_path, capsys):
    # lambda <= 0 used to exit 4 from the metric; NaN and inf passed the
    # "<= 0" checks and ended in a traceback
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and flag in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["exp", *_RUN, "--connection", "biinvariant", "--lambda", "2"],
    ["campbell", *_LADDER, "--dts", "0.02,0.01", "--lambda", "0.5"],
])
def test_biinvariant_connection_refuses_a_lambda(argv, tmp_path, capsys):
    # the bi-invariant connection has no metric to weight: a lambda other
    # than 1 used to exit 0, ignored, while the manifest recorded it
    out = tmp_path / "x.csv"
    assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--lambda" in err
    assert not out.exists()


_CAMPBELL = ["campbell", "--group", "so3", "--replicas", "4", "--seed", "1"]
_HUGE = str(2**64)


# Inputs that ended in a traceback, or ran while skipping part of the
# input, each with the text its refusal names. Every size here is refused
# before anything is allocated.
_REFUSALS = [
    # a lambda whose square overflows, on every command with a metric
    *[([command, *_RUN, "--lambda", "1e300"], "--lambda")
      for command in ("exp", "log", "roundtrip", "convergence")],
    (["martingale-test", *_RUN, "--replicas", "100", "--buckets", "5", "--lambda", "1e300"],
     "--lambda"),
    ([*_CAMPBELL, "--dts", "0.5", "--lambda", "1e300"], "--lambda"),
    (["u-table", "--group", "se3", "--lambda", "1e160"], "--lambda"),
    # replicas past the driver's seeding range
    (["exp", *_RUN, "--replicas", str(2**32 + 1)], "--replicas"),
    (["roundtrip", *_RUN, "--replicas", str(2**32 + 1)], "--replicas"),
    (["martingale-test", *_RUN, "--buckets", "5", "--replicas", _HUGE], "--replicas"),
    # a streamed martingale-test past the ceiling in one chunk or in its marks
    (["martingale-test", *_RUN, "--replicas", "100", "--buckets", "4", "--steps", _HUGE],
     "a chunk of 32 replicas"),
    (["martingale-test", *_RUN, "--buckets", "10", "--replicas", str(2**32)], "the marks"),
    # step counts past any array
    (["exp", *_RUN, "--steps", _HUGE], "--steps"),
    (["log", *_RUN, "--steps", _HUGE], "--steps"),
    (["convergence", *_RUN, "--dts", "1e-300"], "--dts rung 1e-300"),
    (["convergence", *_RUN, "--dts", "1e-320"], "--dts rung 1e-320"),
    (["convergence", *_RUN, "--dt", "1e300", "--dts", "0.5"], "--dts rung 0.5"),
    ([*_CAMPBELL, "--dts", "1e-300"], "--dts rung 1e-300"),
    ([*_CAMPBELL, "--dts", "1e-320"], "--dts rung 1e-320"),
    # a ladder with an empty entry
    (["convergence", *_RUN, "--dts", "0.02,,0.01"], "--dts has an empty entry"),
    ([*_CAMPBELL, "--dts", "0.5,"], "--dts has an empty entry"),
]


@pytest.mark.parametrize("argv, names", _REFUSALS,
                         ids=[f"{argv[0]} {argv[-2]}={argv[-1]}" for argv, _ in _REFUSALS])
def test_inputs_past_the_ranges_are_refused_before_any_draw(argv, names, tmp_path, monkeypatch,
                                                            capsys):
    def never(*args, **kwargs):
        raise AssertionError("the run drew a driver")

    monkeypatch.setattr(cli, "brownian_ensemble", never)
    monkeypatch.setattr(cli.martingale, "brownian_ensemble", never)
    monkeypatch.setattr(cli.campbell, "brownian_ensemble", never)
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning fails the row
        assert run_cli(*argv, "--out", str(out)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and names in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# martingale-test streams its draw: what it holds is one chunk of replicas
# and every replica's bucket marks, each within the ceiling, though the
# whole ensemble is not (se3: 1.2e9 values at 200000 x 1000, so3: 3e9 at
# 10^4 x 10^5).
@pytest.mark.parametrize("group, replicas, steps", [("se3", 200000, 1000),
                                                    ("so3", 10**4, 10**5)])
def test_a_streamable_martingale_test_past_the_ceiling_is_accepted(group, replicas, steps,
                                                                   tmp_path, monkeypatch):
    assert replicas * (steps + 1) * get_group(group).algebra_dim > cli.MAX_DRAW_VALUES
    calls = []

    def stub(spec, alpha, grid, seed, replicas, **kwargs):
        calls.append((grid.steps, replicas))
        zeros = np.zeros((kwargs["buckets"], spec.algebra_dim))
        return SimpleNamespace(mean=zeros, stderr=zeros, z=zeros, max_abs_z=0.0, passed=True)

    monkeypatch.setattr(cli.martingale, "martingale_test", stub)
    assert run_cli("martingale-test", "--group", group, "--dt", "1e-4", "--steps", str(steps),
                   "--replicas", str(replicas), "--buckets", "20",
                   "--out", str(tmp_path / "m.json")) == 0
    assert calls == [(steps, replicas)]


def test_driver_leaving_double_range_is_a_numerical_failure(tmp_path, capsys):
    # the running sum of a 1e308 drift overflows on the second step; no
    # np.errstate shield, so a numpy warning on the way fails the test
    # (pyproject's filterwarnings)
    out = tmp_path / "a.csv"
    code = run_cli("exp", "--group", "so3", "--connection", "biinvariant", "--driver", "drift",
                   "--drift", "1e308,0,0", "--dt", "1", "--steps", "3", "--replicas", "1",
                   "--out", str(out))
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "double range" in err
    assert not out.exists()


# Finite drivers whose develop leaves double range in a translation: the
# rotations carry a 1.5e308 translation past the largest double (se3, se2),
# or the diagonal scales it there (e11, by up to e^10). The solvers build
# their ensembles without a second finiteness scan, so the membership gate
# is what refuses the non-finite value.
@pytest.mark.parametrize("command, group, drift", [
    ("exp", "se3", "0,0,0,1.5e308,1.5e308,1.5e308"),
    ("exp", "se2", "0,1.5e308,1.5e308"),
    ("exp", "e11", "10,1e306,1e306"),
    ("martingale-test", "se3", "0,0,0,1.5e308,1.5e308,1.5e308"),
])
def test_a_non_finite_translation_is_a_numerical_failure(command, group, drift, tmp_path,
                                                          capsys):
    out = tmp_path / "x.out"
    extra = ("--buckets", "5") if command == "martingale-test" else ()
    code = run_cli(command, "--group", group, "--connection", "biinvariant",
                   "--driver", "drift", "--drift", drift, "--dt", "0.01", "--steps", "100",
                   "--replicas", "100", *extra, "--seed", "1", "--out", str(out))
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"numerical failure: {group}: integrator drifted off the group "
        "(membership defect nan > 1.0e-06); use a smaller dt\n")
    assert list(tmp_path.iterdir()) == []


def test_martingale_test_refuses_increments_too_large_to_test(tmp_path, capsys):
    # finite steps that the develop carries and the gate passes, but whose
    # bucket means overflow: the drift test refuses them without numpy's
    # warnings instead of reporting NaN z-scores with exit 0
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = run_cli("martingale-test", "--group", "se3", "--connection", "biinvariant",
                       "--driver", "drift", "--drift", "0,0,0,1.5e308,0,0", "--dt", "0.01",
                       "--steps", "100", "--replicas", "100", "--buckets", "5", "--seed", "1",
                       "--out", str(out))
    assert code == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        "numerical failure: se3: a bucket's mean or standard error overflowed; "
        "the increments are too large to test\n")
    assert list(tmp_path.iterdir()) == []


def test_covariance_file_validation(tmp_path):
    bad = tmp_path / "cov.csv"
    np.savetxt(bad, np.zeros((3, 3)), delimiter=",")
    code = run_cli(
        "exp", "--group", "so3", "--connection", "biinvariant", "--cov", str(bad),
        "--dt", "0.01", "--steps", "10", "--replicas", "2", "--seed", "0",
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == EXIT_NUMERICAL  # not SPD

    good = tmp_path / "cov_ok.csv"
    np.savetxt(good, np.eye(3) * 0.5, delimiter=",")
    code = run_cli(
        "exp", "--group", "so3", "--connection", "biinvariant", "--cov", str(good),
        "--dt", "0.01", "--steps", "10", "--replicas", "2", "--seed", "0",
        "--out", str(tmp_path / "o.csv"),
    )
    assert code == 0


@pytest.mark.parametrize("entry", ["x", "nan", "inf"])
def test_covariance_file_entries_must_be_finite_numbers(entry, tmp_path, capsys):
    # "x" used to escape as np.loadtxt's ValueError, "nan" and "inf" as
    # spd_cholesky's, each a traceback with exit 1
    cov = tmp_path / "cov.csv"
    cov.write_text(f"1,0,0\n0,{entry},0\n0,0,1\n")
    out = tmp_path / "o.csv"
    code = run_cli("exp", "--group", "so3", "--cov", str(cov), "--dt", "0.01",
                   "--steps", "10", "--replicas", "2", "--out", str(out))
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "--cov" in err
    assert not out.exists()


def _so3_run(command, tmp_path, name, *extra):
    out = tmp_path / name
    buckets = ("--buckets", "5") if command == "martingale-test" else ()
    code = run_cli(
        command, "--group", "so3", "--connection", "biinvariant", "--dt", "0.01",
        "--steps", "10", "--replicas", "100", *buckets, "--seed", "3",
        "--out", str(out), *extra,
    )
    return code, out


def test_drift_flag_is_honoured_outside_martingale_test(tmp_path):
    code, plain = _so3_run("exp", tmp_path, "plain.csv", "--driver", "drift")
    assert code == 0
    code, drifted = _so3_run("exp", tmp_path, "drifted.csv", "--driver", "drift",
                             "--drift", "5,0,0")
    assert code == 0
    assert plain.read_bytes() != drifted.read_bytes()
    # bi-invariant logarithm reads the driver back: the drift shows as 5 t in c1
    _, plain = _so3_run("log", tmp_path, "plain_log.csv", "--driver", "drift")
    _, drifted = _so3_run("log", tmp_path, "drifted_log.csv", "--driver", "drift",
                          "--drift", "5,0,0")
    a = np.loadtxt(plain, delimiter=",", skiprows=1)
    b = np.loadtxt(drifted, delimiter=",", skiprows=1)
    assert np.allclose(b[:, 3] - a[:, 3], 5.0 * a[:, 2], atol=1e-12)
    assert np.allclose(b[:, 4:], a[:, 4:], atol=1e-12)


@pytest.mark.parametrize("command", ["exp", "martingale-test"])
def test_drift_without_drift_driver_is_usage_error(command, tmp_path):
    code, out = _so3_run(command, tmp_path, "x.json", "--driver", "bm", "--drift", "9,9,9")
    assert code == EXIT_USAGE
    assert not out.exists()


def test_cov_with_drift_driver_is_usage_error(tmp_path):
    cov = tmp_path / "cov.csv"
    np.savetxt(cov, np.eye(3), delimiter=",")
    code, out = _so3_run("martingale-test", tmp_path, "x.json", "--driver", "drift",
                         "--cov", str(cov))
    assert code == EXIT_USAGE
    assert not out.exists()


def _refused(*argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    return exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv", [(), ("fit",), ("--group", "so3", "exp")])
def test_no_command_or_an_unknown_one_is_refused(argv, capsys):
    assert _refused(*argv)
    assert capsys.readouterr().err.splitlines()[-1].startswith("liestoch: error: ")


def test_top_level_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == EXIT_OK
    assert len(_COMMANDS) == 8
    assert "{" + ",".join(_COMMANDS) + "}" in capsys.readouterr().out


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_command_help_lists_exactly_its_flags(command, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--help")
    assert exc.value.code == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith(f"usage: liestoch {command} ")
    flags = {_FLAGS[name][0] for name in _COMMANDS[command][1]}
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", out)) == flags | {"--help"}


def test_a_flag_the_command_does_not_read_is_refused_by_that_command(tmp_path, capsys):
    out = tmp_path / "ch.csv"
    assert _refused("campbell", "--group", "so3", "--out", str(out), "--significance", "0.9")
    assert capsys.readouterr().err.splitlines()[-1] == (
        "liestoch campbell: error: unrecognized arguments: --significance 0.9")
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ("--driver", "drift", "--drift", "9,9,9", "--scheme", "strat", "--workers", "7",
     "--significance", "0.5"),
    ("--driver", "drift"), ("--drift", "9,9,9"), ("--scheme", "strat"),
    ("--workers", "7"), ("--significance", "0.5"),
])
def test_campbell_refuses_driver_and_scheme_flags(extra, tmp_path):
    out = tmp_path / "ch.json"
    assert _refused("campbell", "--group", "so3", "--connection", "biinvariant",
                    "--dts", "1e-2,5e-3", "--replicas", "16", "--seed", "4",
                    "--out", str(out), *extra)
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ("--rule", "ito", "--buckets", "3", "--dts", "1", "--format", "json"),
    ("--rule", "ito"), ("--buckets", "3"), ("--dts", "1"), ("--format", "json"),
])
def test_exp_refuses_flags_it_does_not_read(extra, tmp_path):
    out = tmp_path / "x.csv"
    assert _refused("exp", "--group", "so3", "--connection", "biinvariant",
                    "--dt", "0.01", "--steps", "10", "--replicas", "2", "--seed", "0",
                    "--out", str(out), *extra)
    assert not out.exists()


@pytest.mark.parametrize("command", ["roundtrip", "convergence"])
def test_ito_only_commands_refuse_scheme(command, tmp_path):
    out = tmp_path / "x.csv"
    assert _refused(command, "--group", "so3", "--connection", "biinvariant",
                    "--dt", "0.01", "--steps", "10", "--replicas", "4", "--seed", "0",
                    "--out", str(out), "--scheme", "strat")
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("exp", "buckets", "3"), ("campbell", "driver", "drift"), ("u-table", "replicas", "9"),
])
def test_config_file_refuses_keys_the_command_does_not_read(command, key, value,
                                                           tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command={command}\ngroup=so3\n{key}={value}\n")
    out = tmp_path / "x.csv"
    assert run_cli(command, "--config", str(cfg), "--out", str(out)) == EXIT_USAGE
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("command, key", [
    ("exp", "connection"), ("exp", "driver"), ("exp", "scheme"),
    ("campbell", "rule"), ("campbell", "fmt"),
])
def test_config_file_values_outside_the_flag_choices_are_refused(command, key, tmp_path,
                                                                 capsys):
    """A config-file value meets its flag's ``choices`` in argparse: exit 2,
    naming the flag, before anything is written."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"group=so3\nreplicas=4\n{key}=xml\n")
    out = tmp_path / "x.out"
    assert _refused(command, "--config", str(cfg), "--out", str(out))
    assert f"argument {_FLAGS[key][0]}: invalid choice: 'xml'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("named, expected", [("campbell", EXIT_USAGE), ("exp", EXIT_OK)])
def test_config_file_command_must_match_the_subcommand(named, expected, tmp_path, capsys):
    # a file naming another subcommand used to run as exp and record "exp"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"command={named}\ngroup=so3\nreplicas=2\nsteps=10\ndt=0.01\n")
    out = tmp_path / "x.csv"
    assert run_cli("exp", "--config", str(cfg), "--out", str(out)) == expected
    if expected == EXIT_USAGE:
        assert repr("command") in capsys.readouterr().err
        assert not out.exists()
    else:
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["config"]["command"] == "exp"


# 0 is the unset marker: given, it ran at the default band, and the
# manifest could not tell it from an unset flag
@pytest.mark.parametrize("significance", ["-0.5", "-1e-300", "1", "nan", "0", "-0.0", "abc"])
def test_significance_outside_the_unit_interval_is_refused(significance, tmp_path):
    code, out = _so3_run("martingale-test", tmp_path, "x.json",
                         f"--significance={significance}")
    assert code == EXIT_USAGE
    assert not out.exists()


def test_unset_significance_is_the_default_band(tmp_path):
    code, out = _so3_run("martingale-test", tmp_path, "x.json")
    assert code == EXIT_OK
    assert json.loads(out.read_text())["z_band"] == 4.0
    manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
    assert manifest["config"]["significance"] == 0.0


def test_a_config_file_significance_refusal_names_the_file(tmp_path, monkeypatch, capsys):
    # refused by the flag's own type, as the file's tokens are parsed
    monkeypatch.setattr("liestoch.martingale.brownian_ensemble",
                        lambda *a, **k: pytest.fail("the driver was drawn"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text("significance=0\n")
    code, out = _so3_run("martingale-test", tmp_path, "x.json", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: config file {str(cfg)!r}: --significance must be a confidence "
        "level in (0, 1), got '0'\n")
    assert list(tmp_path.iterdir()) == [cfg]


def _never_develop(monkeypatch):
    """Make building group values (``explog._develop``) fail the test."""
    def never(spec, steps):
        raise AssertionError("group values were built")

    monkeypatch.setattr(explog, "_develop", never)


def _develop_then_log(m, alpha, scheme="ito"):
    """The logarithm of the developed group values, ``log(exp(M))``."""
    x = explog.ito_exponential(m, alpha) if scheme == "ito" else explog.strat_exponential(m)
    return explog.ito_logarithm(x, alpha)


@pytest.mark.parametrize("scheme", ["ito", "strat"])
@pytest.mark.parametrize("group", ["so3", "se3", "sl2r"])
def test_log_reads_its_steps_without_group_values(group, scheme, tmp_path, monkeypatch):
    argv = ["log", "--group", group, "--dt", "0.01", "--steps", "40", "--replicas", "5",
            "--seed", "11", "--scheme", scheme]
    with monkeypatch.context() as patch:
        patch.setattr(explog, "development_logarithm", _develop_then_log)
        assert run_cli(*argv, "--out", str(tmp_path / "want.csv")) == EXIT_OK
    _never_develop(monkeypatch)
    assert run_cli(*argv, "--out", str(tmp_path / "got.csv")) == EXIT_OK
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_readbacks_keep_their_pinned_bytes_without_group_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _never_develop(monkeypatch)
    for name, argv in _pinned_runs():
        if name.split("-")[0] in ("log", "roundtrip", "convergence"):
            assert main([*argv, "--out", name]) == EXIT_OK, name
            digest = hashlib.sha256(Path(name).read_bytes()).hexdigest()
            assert digest == _PINNED_DIGESTS[name], name


_PIN_GROUPS = {"so3": 3, "se2": 3, "se3": 6, "e11": 3, "n3": 3, "sl2r": 3}


def _pinned_runs():
    """(output name, argv) of every run whose bytes are pinned, on all six
    groups: ``exp`` under each driver, ``log``, ``martingale-test`` under
    both schemes and under each driver, ``roundtrip``, ``convergence``,
    ``campbell`` in both formats and ``u-table`` at each of
    ``REGRESSION_LAMBDAS``; and on se3 a correlated ``--cov`` draw and a seed
    above 2**128."""
    for group, n in _PIN_GROUPS.items():
        base = ["--group", group, "--dt", "0.01", "--steps", "10", "--replicas", "3",
                "--seed", "11"]
        drift = ",".join(repr(0.25 * (i + 1) * (-1) ** i) for i in range(n))
        yield f"exp-bm-{group}", ["exp", *base]
        yield f"exp-drift-{group}", ["exp", *base, "--driver", "drift"]
        yield f"exp-drifted-{group}", ["exp", *base, "--driver", "drift", "--drift", drift]
        yield f"log-{group}", ["log", *base, "--connection", "biinvariant"]
        mt = ["martingale-test", *base, "--replicas", "100", "--buckets", "5"]
        for scheme in ("ito", "strat"):
            yield f"mt-{scheme}-{group}", [*mt, "--scheme", scheme]
        yield f"mt-drift-{group}", [*mt, "--driver", "drift"]
        yield f"mt-drifted-{group}", [*mt, "--driver", "drift", "--drift", drift]
        yield f"roundtrip-{group}", ["roundtrip", *base]
        yield f"convergence-{group}", ["convergence", *base, "--dts", "0.02,0.01"]
        for fmt in ("csv", "json"):
            yield f"campbell-{fmt}-{group}", [
                "campbell", "--group", group, "--connection", "biinvariant",
                "--dts", "0.02,0.01", "--replicas", "3", "--seed", "11", "--format", fmt]
        for lam in REGRESSION_LAMBDAS:
            yield f"u-table-{group}-{lam:g}", ["u-table", "--group", group, "--lambda", repr(lam)]
    se3 = ["exp", "--group", "se3", "--dt", "0.01", "--steps", "10", "--replicas", "3"]
    yield "exp-cov-se3", [*se3, "--seed", "11", "--cov", "cov.csv"]
    yield "exp-bigseed-se3", [*se3, "--seed", str(2**130 + 3)]


def _output_digests(directory):
    """sha256 of every file the pinned runs write in ``directory``, which
    becomes the working directory so that each manifest records a relative
    ``out``."""
    os.chdir(directory)
    np.savetxt("cov.csv", NEGATIVE_CONTROL_COV, delimiter=",")
    digests = {}
    for name, argv in _pinned_runs():
        assert main([*argv, "--out", name]) == EXIT_OK, name
        for path in sorted(Path(".").glob(name + "*")):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


# Taken with numpy 2.4.6 (Python 3.11.7) on scipy-openblas 0.3.31 (its
# Haswell kernel); the CSV and JSON floats are shortest round-trip reprs, so
# another numpy may change a digest. so3, se3 and sl2r develop by a stacked
# matmul per step, whose sums a BLAS build may or may not fuse into
# multiply-adds, so another build may change their digests too; n3, e11 and
# se2 develop by numpy's running sums, which no BLAS build touches.
_PINNED_DIGESTS = {
    "exp-bm-so3":
        "1766ea9dd3e36ebf364ea8c815eba8b2f1275e5ef0d0449079335b4cbd0f7f9c",
    "exp-bm-so3.manifest.json":
        "15bd9b346332f122f1071f1037dd5473670899b03dac6de99eb3c22d1ce3cbc5",
    "exp-drift-so3":
        "1766ea9dd3e36ebf364ea8c815eba8b2f1275e5ef0d0449079335b4cbd0f7f9c",
    "exp-drift-so3.manifest.json":
        "75fcf345a296b94d60f562e2664430fa8156092c415fb6f73dd847672bd3d66d",
    "exp-drifted-so3":
        "0ef2deb2fbcc27306bdb1b06a087725ab4a5b7b90262ec8f5ace175f7bdb96b1",
    "exp-drifted-so3.manifest.json":
        "52545e152faa1a0afebadbbd5d683cbca680f06c81fa68704a9638817fe282f7",
    "log-so3":
        "dc89d75c8288fd71e25a2066594d1b9b17818f03d948311c07e31244e65e4bf5",
    "log-so3.manifest.json":
        "4f90c75bac114648c38a41ef462b516c5b2cea15ed937cc5aa507be9ba8c4ef5",
    "mt-ito-so3":
        "681fa4310fa4f565a19eb2a7bc317947df1a7bb0984cca31b9023c3023aa5158",
    "mt-ito-so3.manifest.json":
        "febc9b6f8c9c57f87a1269fca8d586b89043ac6d55d8e3aed9a9bae695b276d5",
    "mt-ito-so3.zscores.csv":
        "9d9573fa4196c0f9c842ad25c7775e468dcf3de242c4bfcb695e49d7f3a7af9b",
    "mt-strat-so3":
        "681fa4310fa4f565a19eb2a7bc317947df1a7bb0984cca31b9023c3023aa5158",
    "mt-strat-so3.manifest.json":
        "3e7016258808113f7c407c9d42a3717dd8ef9efa98d9c15d33474b0d7880c4a9",
    "mt-strat-so3.zscores.csv":
        "9d9573fa4196c0f9c842ad25c7775e468dcf3de242c4bfcb695e49d7f3a7af9b",
    "mt-drift-so3":
        "681fa4310fa4f565a19eb2a7bc317947df1a7bb0984cca31b9023c3023aa5158",
    "mt-drift-so3.manifest.json":
        "6966073d3280b33d9a6cd1dcdd914573d3e979612a596b67a23c1cc14ab7457d",
    "mt-drift-so3.zscores.csv":
        "9d9573fa4196c0f9c842ad25c7775e468dcf3de242c4bfcb695e49d7f3a7af9b",
    "mt-drifted-so3":
        "4dd19bd493d5d05865397c5937b73cabca88459f0740073c506168091e064281",
    "mt-drifted-so3.manifest.json":
        "75088ea751b2f6702bd2826d639abd2d8c87eb94fd72730643856192da0a0662",
    "mt-drifted-so3.zscores.csv":
        "833636b1f308c3839ea6ffc73b42c2252926cd594021bbe7dcbcb5a842f6fbff",
    "roundtrip-so3":
        "058885c0f5333256f98e6aa7ad6fb5fd2166b744ddd8fe5e01a1ede59a3c5f04",
    "roundtrip-so3.manifest.json":
        "b3052b56a415c0501e00f96e3a1e366f63ee42fb90ed2973a34c9fbda90a21b3",
    "convergence-so3":
        "739d34d6559776689eda4c77a7d8da56102f9351938550b0ff8fd592df8cec3c",
    "convergence-so3.manifest.json":
        "1a20e848d897b3c51e0c15bba2d3e20d64b34178143564841f13fd9182ac6788",
    "campbell-csv-so3":
        "a89b3301e4dc2a26f8b8f7316249d77045e6f106dd586abdbd1687a446a180c5",
    "campbell-csv-so3.manifest.json":
        "a29ec1232c900b58af1a30b90747f1df6bad9c33346d87fdeafb41c1c795417c",
    "campbell-json-so3":
        "0a2dcea519c4e4fb6a335e2fd9f020384c753ebf2de235a2b7f0339ed508ea46",
    "campbell-json-so3.manifest.json":
        "40ff79e3afd113d65fd3493652679b2b6e258e754324ff7059fd511458f4ab0c",
    "exp-bm-se2":
        "54b86dc0344b01f06e45a34529a313534b664da4f9809db00b93fe1989c0f0e7",
    "exp-bm-se2.manifest.json":
        "308f8c8fac7545aed5f4fc5265bbacf912e10b1ebe97b54091b7e2e9f1fb2524",
    "exp-drift-se2":
        "54b86dc0344b01f06e45a34529a313534b664da4f9809db00b93fe1989c0f0e7",
    "exp-drift-se2.manifest.json":
        "15971b4aaeea51493cead39871069aa5b21222aee448895183165bd5c1a5f353",
    "exp-drifted-se2":
        "1440abd6d140c9945fd2fc0280b0ccdaebc8ad6485f64c3555242f1f4e25dbc7",
    "exp-drifted-se2.manifest.json":
        "befb42477ae0ab5ad6ddc6deb529300f0eb42c8d9395e69effd0e91c0d3f4393",
    "log-se2":
        "dc89d75c8288fd71e25a2066594d1b9b17818f03d948311c07e31244e65e4bf5",
    "log-se2.manifest.json":
        "93385f62524788efb4eaf3e67bfa85a3180ebbe666396663303e65241e6a3df6",
    "mt-ito-se2":
        "349da80085cbbb0ffdb08a80d299e3fb024b27ade10cfdda765df282f583a2c1",
    "mt-ito-se2.manifest.json":
        "a8d86f19eda7f13955aeeaeff3fa913f7ca5909c527a8d95fc288360b346f272",
    "mt-ito-se2.zscores.csv":
        "c3916e6dfe50489789b1f5f56b66a6cde867f60d1ac92da5a5637bdcce1ab653",
    "mt-strat-se2":
        "88e2508289e886b62a2945f6a080f66bdbe1b42b52e257354f2ea727828c2946",
    "mt-strat-se2.manifest.json":
        "448b6104bf07fe365e559ff20226f93bedf0530d075ad39139f68d2d837917c1",
    "mt-strat-se2.zscores.csv":
        "5007934b18de4db9d83e5e283a5363c03244aebb6b512aac2da6eff3acecc298",
    "mt-drift-se2":
        "349da80085cbbb0ffdb08a80d299e3fb024b27ade10cfdda765df282f583a2c1",
    "mt-drift-se2.manifest.json":
        "894a54b43c1c8d7456bfa959b1426f6cd8e7e397b2cd217db3f7a859d124b960",
    "mt-drift-se2.zscores.csv":
        "c3916e6dfe50489789b1f5f56b66a6cde867f60d1ac92da5a5637bdcce1ab653",
    "mt-drifted-se2":
        "7cce4ffbd7eb9fe0ef1cadf75a93834394aed239fc4c5599927f3e16d2096a0d",
    "mt-drifted-se2.manifest.json":
        "d117f9acb004ceac838ea3256627b564b6498036ed307b745f9abca364197cdb",
    "mt-drifted-se2.zscores.csv":
        "58f123add0169c1e9cd8b673004b1efee036b6aa295a05b91c6e2d88348290c7",
    "roundtrip-se2":
        "b9ca042f4b203a51a666a02f773ef782522c5515b3a34cda2ec15c6578ead4e1",
    "roundtrip-se2.manifest.json":
        "1abbddab988d9d2d749ad82d2092ae18bec60e76bd56beb587b627533340e05b",
    "convergence-se2":
        "f66718d04a5fcc106713041917a46d5bd609cde2eaf37a46f07ca7e007122fc9",
    "convergence-se2.manifest.json":
        "ac5db7e07118edb4c14ccaf7509f03216945f9078e41606fd934bc0232f3744a",
    "campbell-csv-se2":
        "c741c02a33a9a2b856b537c3d76c2ad40571e2559085d891db52cc549ff7c78b",
    "campbell-csv-se2.manifest.json":
        "252f667a52e70f3e41d4df814a923ad56efcaa52e4c9768c05c1c161eacaca70",
    "campbell-json-se2":
        "ceb91f42cf0fe025c60094ae91a4621e454b46ed9d89bf67540a47c3d9247aad",
    "campbell-json-se2.manifest.json":
        "dba150e734a746e906b0e375e5b0b809dba06feee8c999972f3b3b88a61ec11c",
    "exp-bm-se3":
        "2b1ce06e7e654e4de64f48f6aeb534d5432e8e780188f598e465ec885f08c2a0",
    "exp-bm-se3.manifest.json":
        "42d15eb0687c323a614231df0036e4c34ae1803598008c913d117976ec9e2b7d",
    "exp-drift-se3":
        "2b1ce06e7e654e4de64f48f6aeb534d5432e8e780188f598e465ec885f08c2a0",
    "exp-drift-se3.manifest.json":
        "0e6fe33448a6419b2306eeef4f20d14a256ac18c96a58c2e2aba9e6f90227c4b",
    "exp-drifted-se3":
        "5da993a654e70105f8e2e0358eb3862d0df57aa1ab5fc33276e496ad2f665767",
    "exp-drifted-se3.manifest.json":
        "21b1f05453884bc42d61643043e28a52e610b990bbaab303211ed96678229418",
    "log-se3":
        "5b53a8a52ef1787d9e8c0ed2875d79be53992f4111be54b4ea1997e0fd7c0d3b",
    "log-se3.manifest.json":
        "a9e5f436946b582a24c9fb82b8bda1b201e47389c84498e1bdc6aecb8bacf3cc",
    "mt-ito-se3":
        "606e6f143299152ffc8cea283809c315139bcc4025f01f456f77fcb9198bbfc1",
    "mt-ito-se3.manifest.json":
        "1c56d624853368a441107d28c051b6263e14141524e619d75773b534cad8eb32",
    "mt-ito-se3.zscores.csv":
        "382c1784319b2d70c6b88a5b97e1073a531c71cf525dda77df16bdc61e3b4fd0",
    "mt-strat-se3":
        "606e6f143299152ffc8cea283809c315139bcc4025f01f456f77fcb9198bbfc1",
    "mt-strat-se3.manifest.json":
        "b1cd68ca22414e4f173d9c83415bdd5195765315208f450c108783f6e90720bd",
    "mt-strat-se3.zscores.csv":
        "53ecd53bb3cb2ec6fdd86d60e5499cb25935155f6326b717d6475c869c1f2d50",
    "mt-drift-se3":
        "606e6f143299152ffc8cea283809c315139bcc4025f01f456f77fcb9198bbfc1",
    "mt-drift-se3.manifest.json":
        "306dd9a33b1d4b88398da8d9bba665c6d253536c4a411f35b4cd703d268ff6c8",
    "mt-drift-se3.zscores.csv":
        "382c1784319b2d70c6b88a5b97e1073a531c71cf525dda77df16bdc61e3b4fd0",
    "mt-drifted-se3":
        "4f94a3c5ab20243fa6e6c38dd7e45f8f0b7877a323498b6c24d824793a88be27",
    "mt-drifted-se3.manifest.json":
        "3e779f425e2bc9e3d835521cc7cb341651cba9e14e4dc5f4190ad91bfe4ec929",
    "mt-drifted-se3.zscores.csv":
        "290c558983df4766994368eb025f070f3e131de3f21f839784b29d3f5fddcdee",
    "roundtrip-se3":
        "ad8a82547bb915cd0599495da98b5e233d48589950a1f823319151b4b4f44881",
    "roundtrip-se3.manifest.json":
        "ff274b356dd5cbe34c73cbe15c0c14604c8077f467d5760ebe7b7e1d7b6003ca",
    "convergence-se3":
        "18b4ec7ac79b2c65d5d50ab9ba3f98be4b33086a4f92dec09ae273d1581b8646",
    "convergence-se3.manifest.json":
        "5210aa8bf7a959f41da45a6f96d227a53a5d7810ba812e7bec5f360e4f7c60e3",
    "campbell-csv-se3":
        "f68065f5ee8af3d3b5cead96d5fdafa152c50be0c3caf1bb9f564dd550b7ef3e",
    "campbell-csv-se3.manifest.json":
        "3c8c5c9184b30fde16aa7b0fec850c50a9986edc8ec9bcff5155c19ddbda1daf",
    "campbell-json-se3":
        "538a5f16c795a036046c6015271e0ce817540ed1fbb331ad7ce05c12d55979b2",
    "campbell-json-se3.manifest.json":
        "977a0f3458e6983f5931750bfec230a2aba87e2819702f2ab45f7a9c6ea8c19c",
    "exp-bm-e11":
        "b9e81f19a9c1f29672c61d4da6fbe67be6141cf75391eb64fac9bd69a861d99a",
    "exp-bm-e11.manifest.json":
        "9c68240485285b6b5511727617701d533df2f4433e64f41b04aec4a19dce62bd",
    "exp-drift-e11":
        "b9e81f19a9c1f29672c61d4da6fbe67be6141cf75391eb64fac9bd69a861d99a",
    "exp-drift-e11.manifest.json":
        "789adb459f96821401c6ee8ce109e6846cafc5a37d49515dbee4464b68e133d1",
    "exp-drifted-e11":
        "5ef710f6ef7ad9b54c3836a949ad4a661f36f6369b3e86bd6be62e842f523889",
    "exp-drifted-e11.manifest.json":
        "e8f058c69b12aafad86faee770dd2609e8d654a127aeabe1d0d3386b7bfa4c7f",
    "log-e11":
        "dc89d75c8288fd71e25a2066594d1b9b17818f03d948311c07e31244e65e4bf5",
    "log-e11.manifest.json":
        "2a2a9480003f9f6a94290b90efb9ff7a4e62736fadd42f320c202a29710a0f30",
    "mt-ito-e11":
        "bf77781254a848acf9d7b9ff9322f0c709f95ea5cd64663a1a38e874ccf1e8ea",
    "mt-ito-e11.manifest.json":
        "faa1f1db06b92e1b2e964e38361e32e09b1985d2f876388609a8a8717228decb",
    "mt-ito-e11.zscores.csv":
        "da34218ad151b04e1f1646227ffcd876929441fdb5953e645d54e17103329eb7",
    "mt-strat-e11":
        "d09de9b458dd9c2453645ea3c7f705a7ff6c6c87c0aa7788ffe14182e635e37a",
    "mt-strat-e11.manifest.json":
        "5f1f380ce5f4db0cc88d591ead0a3b9fc604f7e75b5af9683a9e232ae959ab10",
    "mt-strat-e11.zscores.csv":
        "d122d87ad40f5cbb71689f8eeab07e6ad322cf4be0e1a415a07a1abadea6ae50",
    "mt-drift-e11":
        "bf77781254a848acf9d7b9ff9322f0c709f95ea5cd64663a1a38e874ccf1e8ea",
    "mt-drift-e11.manifest.json":
        "44f9b8d084dedb4e8fe36f33bd725a9e53fb29b1eb6d04993fd5acf4cfbdb67e",
    "mt-drift-e11.zscores.csv":
        "da34218ad151b04e1f1646227ffcd876929441fdb5953e645d54e17103329eb7",
    "mt-drifted-e11":
        "159028e1c63e8d66ee1bc2a49c9f859e4f4f93a9d2e2bf6839ba2e4cb252fa80",
    "mt-drifted-e11.manifest.json":
        "e35c6aa8e5873f43ea2a3dc8fde62b448ce2c464e2fa2b1814f12a83851a1f35",
    "mt-drifted-e11.zscores.csv":
        "433cb18903d6444918241f797d2acbab66749c00705207cad4f4c3f853869b57",
    "roundtrip-e11":
        "9bacceae32cadc69da640ded85fea49878c4f935c99b943bacba3a17dba4534a",
    "roundtrip-e11.manifest.json":
        "0bc6acf6df81e3e902f75803ed674197f760b76fdda09591d832dd3a2b20d186",
    "convergence-e11":
        "81b2b42abb73c4795c2e77ecef113931d051aeb4bbf7efbe1fda5ee9dc3b6f84",
    "convergence-e11.manifest.json":
        "a76c1abbe10c4e47dc54e3e97dc3a41ef2318aca796c09651997ce6031cc9e26",
    "campbell-csv-e11":
        "fcfe0d7450659364385d8cce98827ff21e7cfd82a0198277fe3e27cfffbb0f7f",
    "campbell-csv-e11.manifest.json":
        "7e5fd009c6ed56cd992720e7766b35538c70f54310c717678cc59b3028b6138c",
    "campbell-json-e11":
        "fed65c8bc3533f1f453a7e5f6cab73a345348aed30f31667731b258eeecdf014",
    "campbell-json-e11.manifest.json":
        "b956bf07d118a961b30823c69afece631d6ba45d123dee9821d39cb20dee4bb9",
    "exp-bm-n3":
        "a092a629f562c081c3b980313ffc189185f3d2e6191ea8de6cf5dda9b56fcd4b",
    "exp-bm-n3.manifest.json":
        "b369a9b2fe8f8b3d00ffae94d5026055ea8e1ddff9941b6ce85ec07ad82d991e",
    "exp-drift-n3":
        "a092a629f562c081c3b980313ffc189185f3d2e6191ea8de6cf5dda9b56fcd4b",
    "exp-drift-n3.manifest.json":
        "0ed8972da17cd2cdf6c54aa6839fb8a312c5dd0e5e7f0456ed7281a9b0b2179f",
    "exp-drifted-n3":
        "5543a908dcd8e33ed5a2a0e26441a427a704489b7c04d27c66e5bf464961876c",
    "exp-drifted-n3.manifest.json":
        "b29dc25e21d907931e9fe7f994cef700d07a24f5347511e2a8a9197049437647",
    "log-n3":
        "dc89d75c8288fd71e25a2066594d1b9b17818f03d948311c07e31244e65e4bf5",
    "log-n3.manifest.json":
        "da5252bf86ab3d11049d8aa6ae8c4c6565b6297e8004e6e0feba313d8f26fa72",
    "mt-ito-n3":
        "0cc5658af64754913fb2bf464e8b634fc8eb4ff8327c2e28d65a6480280a4ac5",
    "mt-ito-n3.manifest.json":
        "4c9a5c4ea882b86c9786e712ae5be6c003818ad7f5550fc87ac95bce900cc0c8",
    "mt-ito-n3.zscores.csv":
        "9e742b7d3dcdf4eea88310745da21a7d5dd9c2cb55f496edd9ffd39738c0de86",
    "mt-strat-n3":
        "0cc5658af64754913fb2bf464e8b634fc8eb4ff8327c2e28d65a6480280a4ac5",
    "mt-strat-n3.manifest.json":
        "66c2b135c92a1ef709ba6d22a4d3dde6ae967da3ab1c8f8f5c018568589e38ba",
    "mt-strat-n3.zscores.csv":
        "0705879e19421d70bebaa0d5ee8e1109fde5ffd08aead1c737ffb6bde9b81d2a",
    "mt-drift-n3":
        "0cc5658af64754913fb2bf464e8b634fc8eb4ff8327c2e28d65a6480280a4ac5",
    "mt-drift-n3.manifest.json":
        "35c4eeecc7a1e2205158bd06215723ac734d54262465dfcc4713318a36daf53c",
    "mt-drift-n3.zscores.csv":
        "9e742b7d3dcdf4eea88310745da21a7d5dd9c2cb55f496edd9ffd39738c0de86",
    "mt-drifted-n3":
        "f4cb74e8b5bf2b0656b1930f889802c57b25baaf7c1229aa11fa8555126968b3",
    "mt-drifted-n3.manifest.json":
        "517e3fe34a1b920dd5d259c7f120e1aa974288441c1befc9a4f4a163f098d4c1",
    "mt-drifted-n3.zscores.csv":
        "9381aa6bd544008ae7fb5a7c739fb82d13cf6e0587991b4147ccc7614cb57137",
    "roundtrip-n3":
        "003472fec4114baf57fbfdeee8ef6aa2fbdaecb4bbcc5b510abba992aa98300b",
    "roundtrip-n3.manifest.json":
        "42dcb872e92c35e7639ed8f8853ad6fe76458f9828d4574dcd68c13905a02743",
    "convergence-n3":
        "da620e99de905d9a996a9110af83d8fb6c66b1d5e98b219b727e22f7aafe90a9",
    "convergence-n3.manifest.json":
        "a06c15ca1a2a47ad738f3b9114bb14f5c3a5c40c9e8f4713bf2ddc105e28e0ae",
    "campbell-csv-n3":
        "08efacecf40f00e67d1c75fad8e22fbf8d95f7a9686cd02115378c679399d50f",
    "campbell-csv-n3.manifest.json":
        "89ad2ad47c5966dbf4b2fdf611207c525909f8b0f2ff084f9f4394d751552218",
    "campbell-json-n3":
        "bba484bcfec28248f4b4cb11d97be4e93876cb98c5dd5840f8e826872b37dd12",
    "campbell-json-n3.manifest.json":
        "c96298b3d95477c49b493be56de095048e5e381b6d33222b71134caab7300ebb",
    "exp-bm-sl2r":
        "2802ffb44f77e804f578c9a0b5904ba916bde8b6de862f9d5584c7dba4bbd7d9",
    "exp-bm-sl2r.manifest.json":
        "5ab5d65a383d82d3299c5c84626e614f8b77629dffd6a22dfc4d2f57ba350de0",
    "exp-drift-sl2r":
        "2802ffb44f77e804f578c9a0b5904ba916bde8b6de862f9d5584c7dba4bbd7d9",
    "exp-drift-sl2r.manifest.json":
        "a48e3f68559b987ead8239532aa5e44184eeb075e88854602de1c0b32a579c9b",
    "exp-drifted-sl2r":
        "5f78224d8ede8404d7cc25c7d9ad99a2de3e3f0490bc7c1bf35f54e3113ff28b",
    "exp-drifted-sl2r.manifest.json":
        "55d20832dc36e3b169569a3b18a5cb22594106f27e1a5633888deb8c75da9d51",
    "log-sl2r":
        "dc89d75c8288fd71e25a2066594d1b9b17818f03d948311c07e31244e65e4bf5",
    "log-sl2r.manifest.json":
        "901879d3c2d2715f8edca29b839eea718bf9cefe4ff1ca0b5d447cd17ffe5ef8",
    "mt-ito-sl2r":
        "85f9df82e9e39d2577b0d7c4e016b8c8048f4141a580ac8b262df1ad2518e3ff",
    "mt-ito-sl2r.manifest.json":
        "aefbe3224e8948bc32bc08930903ac68be077c602e3309f0067246e3b6de929f",
    "mt-ito-sl2r.zscores.csv":
        "e83db58a4533dfa99924649a2002140dea8e13e17ab7b42ccc76ad17319039a1",
    "mt-strat-sl2r":
        "6904a030f74ac1e865c1a5bba27f9be1e5726b5e26a26b5e818b473569bd1f26",
    "mt-strat-sl2r.manifest.json":
        "d9306f590cccba2378f5f35423dab99be773a5f35db7a071dcbe5c305638dca3",
    "mt-strat-sl2r.zscores.csv":
        "ec6e927802fc8743b0a53fb5fda75fa337dce958a3c386ecbbca2e9511ebf24d",
    "mt-drift-sl2r":
        "85f9df82e9e39d2577b0d7c4e016b8c8048f4141a580ac8b262df1ad2518e3ff",
    "mt-drift-sl2r.manifest.json":
        "974112da34e0100d01de11fbed0cc39d838a67cf66affde5a0b546cc6a472471",
    "mt-drift-sl2r.zscores.csv":
        "e83db58a4533dfa99924649a2002140dea8e13e17ab7b42ccc76ad17319039a1",
    "mt-drifted-sl2r":
        "9629c6fd9871315ab306c8a05e3c8b38d6ad30c1daa07ede946cfc9b4600154a",
    "mt-drifted-sl2r.manifest.json":
        "e0414f40129cca7e1b6fedc075b8652ff840039972a198e87c1559be7b4ad0a2",
    "mt-drifted-sl2r.zscores.csv":
        "04cdee2e74c304cadf279276434a0a1445e236e95c5850dc2476fcdb4c1bb816",
    "roundtrip-sl2r":
        "c9fdfb3e94a22041d30f9f96dd5c8e040e0978fa3752ad67362afe88336f353f",
    "roundtrip-sl2r.manifest.json":
        "e1f29601e78dad8ab2744d5e4ede76e6c409dd2f7d5a41046e52b28e1bb33705",
    "convergence-sl2r":
        "2e8b94064298177b1ed5cad0efc325835df90391d62fd3f8dec71bc1545c6e6d",
    "convergence-sl2r.manifest.json":
        "588bdcbad7b1215916e0570aed3ebb6cfd33cb440fbd3879bbeb7ca124829596",
    "campbell-csv-sl2r":
        "96360cae64b9d68354b2d181ab93d8cb37dd16be63c5aecabda3407b9abc3c8d",
    "campbell-csv-sl2r.manifest.json":
        "d1818c76df3373dbb15dcfec1e2c4179f5264efa2d9d0a7e5e6a03081bd3e047",
    "campbell-json-sl2r":
        "43347302b78631785475ff8f16a819b3ea4794f6349a528813bbbf64f2b4566f",
    "campbell-json-sl2r.manifest.json":
        "7b811ddb4dae1e54e50da35e6c45d8ba4153620ac9cc14425943981b432e4e05",
    "exp-cov-se3":
        "59beea01122125dfa835370a439a291638969f506ca9a88892531a39523cc46b",
    "exp-cov-se3.manifest.json":
        "e0f75c0c129a39a25297b939f0d5e45407d1544da7ee30fd47466133fe44dc05",
    "exp-bigseed-se3":
        "d446073ec82c3b9676311af57b2ba944ccc80be773d9db896677c25274296e9b",
    "exp-bigseed-se3.manifest.json":
        "91fe2fcd60db7f2b0b21edcf6741c780b6c65c58c78edb23e4d0b0e031290121",
    "u-table-so3-0.5":
        "542c8585a9349cf544c191d92093841f0b92c29e224096ca7710ca19ec39bb0b",
    "u-table-so3-0.5.manifest.json":
        "5c06194445db6445d86ab731c6e05fe0a58a80bb156ff4849ea90894297f732c",
    "u-table-so3-1":
        "542c8585a9349cf544c191d92093841f0b92c29e224096ca7710ca19ec39bb0b",
    "u-table-so3-1.manifest.json":
        "f4ee7eea46459f11d852bd38128c359c2f9d855ba4165941c53cdf5d9b5166fb",
    "u-table-so3-2":
        "542c8585a9349cf544c191d92093841f0b92c29e224096ca7710ca19ec39bb0b",
    "u-table-so3-2.manifest.json":
        "52dd03a7a180014fcb36f7b99aad728b021fe18fc13af7a6eadd17a464727827",
    "u-table-se2-0.5":
        "6d823c0d6e6b17dfb1a742b82e988d0a9da6026de74c57892b09acec10b7bfe5",
    "u-table-se2-0.5.manifest.json":
        "6d4b63ea10179be0ea57f7886cc2443e8dc0716a48b149f6a39fb479c4af6fa6",
    "u-table-se2-1":
        "6d823c0d6e6b17dfb1a742b82e988d0a9da6026de74c57892b09acec10b7bfe5",
    "u-table-se2-1.manifest.json":
        "8bf5747dc0a7bc63605114ce894b2a3abf5956def52393476fed4e87cba3bdd4",
    "u-table-se2-2":
        "6d823c0d6e6b17dfb1a742b82e988d0a9da6026de74c57892b09acec10b7bfe5",
    "u-table-se2-2.manifest.json":
        "f1cd4b82d52457d9a4b3b4c8ac53d1edbaba2220c61cb7dd36988b5730683500",
    "u-table-se3-0.5":
        "13fea9577da6678edb0ea0647e776e071d68656d61c2b1449e7b0630e691cdaf",
    "u-table-se3-0.5.manifest.json":
        "ce640b3ff9608cb9ad10f6742924fc699542de45834b74a7bd8801b6a3f667df",
    "u-table-se3-1":
        "13fea9577da6678edb0ea0647e776e071d68656d61c2b1449e7b0630e691cdaf",
    "u-table-se3-1.manifest.json":
        "4136843dff85fb3b1b26c42c1624e3bbef553f5d5155facb7e8fceaca1a550ce",
    "u-table-se3-2":
        "13fea9577da6678edb0ea0647e776e071d68656d61c2b1449e7b0630e691cdaf",
    "u-table-se3-2.manifest.json":
        "e7bd5718a3ae927d70024833fd2df8dcb2826953ffe82ed5b1ff68c56355470c",
    "u-table-e11-0.5":
        "27614eef56dfba4585888010badd7f52bc827b8aaeefad45eeb57d97f734fd41",
    "u-table-e11-0.5.manifest.json":
        "a5f35431eba83511106f5b764e66eca48660c1c4c85969d0512c1cceb8b77b21",
    "u-table-e11-1":
        "48efd9c6aff23ff6a69a94d2dce6bb1f5b250afdac9e43a7ad57344ebd98f00d",
    "u-table-e11-1.manifest.json":
        "a4d75500f48ecfef45a09663084d3a90d33219638de7db296f73d77d4c449c75",
    "u-table-e11-2":
        "4b4f354c5834c858ca285429c00bc21f16ff553551675735628e75e2bd610f6e",
    "u-table-e11-2.manifest.json":
        "82c7caac6e85378f411640e4da3e4471569f230dd59959839f25426a57cc7665",
    "u-table-n3-0.5":
        "54c9413bfa76a11698f506400c2185eff106e58eca8dc0fc8185e440eba53431",
    "u-table-n3-0.5.manifest.json":
        "18d838e74dd22046a07ae13b7f30a6b23705ddfe05a97b2eabc6d3a7eb62679b",
    "u-table-n3-1":
        "8d0b4543d4c75a549960f8344096b3eceb9818ca1f09c8807c3be2d9c152fea8",
    "u-table-n3-1.manifest.json":
        "92da7306afeae50d69100cabe59a666c8c509c2aedf39e3df5d1f90a9a5a1024",
    "u-table-n3-2":
        "ee792987a902d14e718b5b5a6ea5ef7f6d60ec5e4e294d6026867ec29504dbd3",
    "u-table-n3-2.manifest.json":
        "465f90b13f3f0ba161d4f38c9fd0ca49167480a767f293af459a5744ac93faa0",
    "u-table-sl2r-0.5":
        "f894537a9ed8bec773351d2c4470db81b13937854eb1198d4710581b03489db3",
    "u-table-sl2r-0.5.manifest.json":
        "25633391ae2081ea0498f1ba9f6dbf8202efc925a5daca124603ea45ff3ddc18",
    "u-table-sl2r-1":
        "d257ae1e8a6c20b99bc4d4f931c8dbf89164d990adcb340e2a2236ec080de81f",
    "u-table-sl2r-1.manifest.json":
        "24d26afedafba2481abfa8494ed4eb437ea725cf19b440cdc00caaf053eb85b3",
    "u-table-sl2r-2":
        "9db7472e0e88b92a63444a9565223872580eede06ac7545ced794a6275a68850",
    "u-table-sl2r-2.manifest.json":
        "cbf580b9a43f07255cd82cac98b6d0e8117512001fd2d5680665700263a5b4c3",
}


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    """Every output file and manifest of the pinned runs keeps its bytes: the
    byte contract that a refactor of the driver, the solvers or the writers
    must not break."""
    monkeypatch.chdir(tmp_path)
    assert _output_digests(tmp_path) == _PINNED_DIGESTS

import csv
import json

import numpy as np
import pytest

from liestoch.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    ExperimentConfig,
    UsageError,
    main,
)


def run_cli(*argv):
    return main(list(argv))


def test_config_kv_roundtrip():
    config = ExperimentConfig(
        command="roundtrip", group="se3", lam=0.75, dt=2.5e-3, steps=400,
        replicas=12, seed=99, out="x.csv",
    )
    parsed = ExperimentConfig.from_kv(config.to_kv())
    assert parsed == config


def test_config_kv_errors():
    with pytest.raises(UsageError):
        ExperimentConfig.from_kv("not a kv line")
    with pytest.raises(UsageError):
        ExperimentConfig.from_kv("unknown_key=3", command="exp")
    with pytest.raises(UsageError):
        ExperimentConfig.from_kv("steps=abc", command="exp")
    with pytest.raises(UsageError):
        ExperimentConfig.from_kv("group=so3")  # no command anywhere


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
    with np.errstate(over="ignore", invalid="ignore"):
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
    # overflows inside mat_exp itself, before any membership gate
    with np.errstate(over="ignore", invalid="ignore"):
        code = run_cli("exp", "--group", "e11", "--connection", "biinvariant",
                       "--driver", "drift", "--drift", "1e5,0,0", "--dt", "0.01",
                       "--steps", "10", "--replicas", "2", "--seed", "1",
                       "--out", str(tmp_path / "x.csv"))
    assert code == EXIT_NUMERICAL
    assert "overflowed" in capsys.readouterr().err


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
    code = run_cli("martingale-test", "--group", "so3", "--dt", "0.01", "--steps", "50",
                   "--replicas", replicas, "--buckets", buckets, "--seed", "1",
                   "--out", str(tmp_path / "m.json"))
    assert code == EXIT_USAGE
    assert not (tmp_path / "m.json").exists()


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

"""Smoke test: the study scripts run end to end at tiny shapes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_convergence_study_writes_both_ladders(tmp_path):
    proc = run_script("convergence_study.py", "--replicas", "8", "--dts", "0.04,0.02",
                      "--outdir", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "out" / "roundtrip_ladder.csv").read_text().splitlines()) == 3
    # two exponential-identity rules and one logarithm ladder, two rungs each
    assert len((tmp_path / "out" / "campbell_ladder.csv").read_text().splitlines()) == 7


def test_martingale_controls_pass_at_a_tiny_shape(tmp_path):
    proc = run_script("martingale_controls.py", "--replicas", "1000", "--steps", "20",
                      cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "positive control: pass" in proc.stdout
    assert "negative control: fail (expected)" in proc.stdout


def test_martingale_controls_exit_1_on_a_wrong_verdict(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        "martingale_controls", ROOT / "scripts" / "martingale_controls.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    # identity covariance has no rotation/translation coupling, hence no
    # compensator drift: the negative control then passes, which is wrong
    monkeypatch.setattr(script, "NEGATIVE_CONTROL_COV", np.eye(6))
    monkeypatch.setattr(sys, "argv", ["martingale_controls.py", "--replicas", "1000",
                                      "--steps", "20"])
    assert script.main() == 1
    assert "PASSED (unexpected!)" in capsys.readouterr().out

"""Tests of the benchmark itself, at tiny workload shapes.

Run with ``python -m pytest benchmark`` from the repository root.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from liestoch import calculus, campbell, explog, groups, linalg  # noqa: E402

TINY = {
    "martingale-se3": lambda: workloads.MartingaleSE3(replicas=100, steps=20),
    "product-so3": lambda: workloads.ProductSO3(replicas=100, steps=20),
    "campbell-so3": lambda: workloads.CampbellSO3(replicas=16, dts=(0.04, 0.02, 0.01)),
    "export-sixgroups": lambda: workloads.ExportSixGroups(replicas=2, steps=10),
}


def test_tiny_shapes_cover_every_workload():
    assert set(TINY) == set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, info = run.measure(TINY[name](), seed=3, seconds=0, trace=trace,
                               workdir=str(tmp_path), setup_repeats=1)
    assert result["correct"], info["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in json.loads(run.SPEC.read_text())[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert info["fingerprint"]["seed"] == 3
    assert all(info["contracts"].values())
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for key, want in TINY[name]().expected_counts().items():
            assert metrics[key] == want


def test_seed_is_a_required_argument():
    with pytest.raises(SystemExit):
        run.parse_args(["--workload", "product-so3", "--seconds", "1"])
    args = run.parse_args(["--workload", "product-so3", "--seed", "9", "--seconds", "1"])
    assert args.seed == 9 and args.trace == 0


def test_seed_alone_determines_the_inputs(tmp_path):
    digests = []
    for seed in (5, 5, 6):
        w = TINY["martingale-se3"]()
        w.prepare(seed, str(tmp_path))
        digests.append(w.digest(w.run_pass()))
    assert digests[0] == digests[1] != digests[2]


def test_wrappers_reach_every_binding_site():
    mat_exp, mat_log = linalg.mat_exp, linalg.mat_log
    defect, adjoint = groups.membership_defect, groups.adjoint_matrices
    named_sites = [
        (explog, "mat_exp", mat_exp), (campbell, "mat_exp", mat_exp),
        (calculus, "mat_log", mat_log), (explog, "membership_defect", defect),
        (groups, "membership_defect", defect), (campbell, "adjoint_matrices", adjoint),
    ]
    with spans.Tracer() as tracer:
        for module, attr, original in named_sites:
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr}"
        assert all(tracer.sites.values()), tracer.sites
        # no liestoch module keeps an unwrapped reference to a layer function
        for name, module in list(sys.modules.items()):
            if name.startswith("liestoch"):
                for key, value in vars(module).items():
                    assert not any(value is fn for fn in (mat_exp, mat_log, defect, adjoint)), \
                        f"{name}.{key}"
    for module, attr, original in named_sites:
        assert getattr(module, attr) is original


def test_missed_binding_site_fails_the_count_check(tmp_path, monkeypatch):
    """A wrapper that misses a call site must fail the run, not read as zero."""
    install, original = spans.Tracer.install, linalg.mat_exp

    def install_missing_campbell(self):
        install(self)
        campbell.mat_exp = original     # uninstall puts the original back too
        return self

    monkeypatch.setattr(spans.Tracer, "install", install_missing_campbell)
    result, info = run.measure(TINY["campbell-so3"](), seed=3, seconds=0, trace=1,
                               workdir=str(tmp_path))
    assert not result["correct"]
    assert any("linalg.mat_exp.matrices" in p for p in info["problems"])


def test_expected_counts_at_battery_shapes():
    assert workloads.MartingaleSE3(replicas=10_000).expected_counts() == {
        "linalg.mat_exp.matrices": 1_000_000, "linalg.mat_log.matrices": 0}
    assert workloads.ProductSO3(replicas=10_000).expected_counts() == {
        "linalg.mat_exp.matrices": 4_000_000, "linalg.mat_log.matrices": 2_000_000}
    assert workloads.CampbellSO3(replicas=256).expected_counts() == {
        "linalg.mat_exp.matrices": 2_688_000, "linalg.mat_log.matrices": 448_000,
        "paths.null_qv_check.calls": 1536}


def test_self_time_subtracts_covered_children():
    spans_ = [
        ["pass", 0.0, 10.0, None],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["c", 4.0, 6.0, 0],   # overlaps a: covered once
    ]
    got = spans.self_times(spans_)
    assert got["pass"] == pytest.approx(10.0 - 5.0)
    assert got["a"] == pytest.approx(3.0)
    assert got["b"] == pytest.approx(1.0)
    assert got["c"] == pytest.approx(2.0)

"""The four benchmark workloads, each built only from liestoch's public calls.

A workload is prepared once from the workload seed (group specs and
connection tables are set-up, not pass work), then runs identical passes:
every pass of one run sees the same inputs and must produce the same
output. Checks, contracts and the membership defect run outside the timed
pass.

Shapes keep each criterion's group, steps and layer mix; replica counts
are lowered from the battery's so that one pass takes about a second and a
run holds about ten passes. ``expected_counts`` gives the exact matrix and
call counts a traced pass must record at the workload's shape; at the
battery shapes they are the counts quoted in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os

import numpy as np

from liestoch import campbell, cli, explog, groups, martingale, paths
from liestoch.connections import alpha_biinvariant, alpha_levi_civita, metric_for

# Worst membership defect accepted in a developed output. Roundoff sits
# near 1e-14 at these shapes; the solvers' own gate (groups.MEMBERSHIP_GATE)
# is 1e-6.
DEFECT_LIMIT = 1e-10


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _quiet(fn, *args):
    """Call ``fn`` with the CLI's stdout verdict line swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _bitwise_ito_equals_strat(spec, alpha, grid, seed, replicas):
    """Ito and Stratonovich exponentials agree bit for bit (bi-invariant)."""
    ens = paths.brownian_ensemble(spec, grid, seed, replicas)
    ito = explog.ito_exponential(ens, alpha).values
    strat = explog.strat_exponential(ens).values
    return ito.tobytes() == strat.tobytes()


class Workload:
    name = ""

    def prepare(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir

    def run_pass(self):
        """The timed work; returns what ``check`` and ``digest`` read."""
        raise NotImplementedError

    def check(self, result):
        """Problems with one pass's output (empty when correct)."""
        raise NotImplementedError

    def digest(self, result):
        raise NotImplementedError

    def max_defect(self, result):
        raise NotImplementedError

    def contracts(self):
        """Run-level speed contracts: {name: held}."""
        return {}

    @property
    def replica_steps(self):
        """Driver replica-steps consumed by one pass."""
        raise NotImplementedError

    def expected_counts(self):
        raise NotImplementedError


class MartingaleSE3(Workload):
    """``liestoch martingale-test`` on se3 (criterion 5 shape), in process."""

    name = "martingale-se3"

    def __init__(self, replicas=2000, steps=100, buckets=20):
        self.replicas, self.steps, self.buckets = replicas, steps, buckets

    def prepare(self, seed, workdir):
        super().prepare(seed, workdir)
        self.spec = groups.get_group("se3")
        self.alpha = alpha_levi_civita(metric_for(self.spec, 1.0))

    def _argv(self, workers, out):
        return [
            "martingale-test", "--group", "se3", "--connection", "levicivita",
            "--lambda", "1", "--scheme", "ito", "--driver", "bm",
            "--dt", repr(1.0 / self.steps), "--steps", str(self.steps),
            "--replicas", str(self.replicas), "--buckets", str(self.buckets),
            "--seed", str(self.seed), "--workers", str(workers), "--out", out,
        ]

    def _run(self, workers, tag):
        out = os.path.join(self.workdir, f"martingale-{tag}.json")
        code = _quiet(cli.main, self._argv(workers, out))
        return code, out

    def run_pass(self):
        return self._run(2, "w2")

    def check(self, result):
        code, out = result
        if code != 0:
            return [f"martingale-test exited {code}"]
        with open(out) as fh:
            verdict = json.load(fh)
        problems = [] if verdict["passed"] else [f"verdict failed: {verdict}"]
        rows = _read(out + ".zscores.csv").count(b"\n") - 1
        if rows != self.buckets * self.spec.algebra_dim:
            problems.append(f"z-score CSV has {rows} rows")
        return problems

    def digest(self, result):
        _, out = result
        return _digest(_read(out), _read(out + ".zscores.csv"))

    def max_defect(self, result):
        grid = paths.TimeGrid(1.0, self.steps)
        ens = paths.brownian_ensemble(self.spec, grid, self.seed, self.replicas)
        developed = explog.ito_exponential(ens, self.alpha)
        return float(np.max(groups.membership_defect(self.spec, developed.values)))

    def contracts(self):
        # against the last timed pass, which ran with --workers 2
        two = os.path.join(self.workdir, "martingale-w2.json.zscores.csv")
        code, one = self._run(1, "w1")
        same = code == 0 and os.path.exists(two) and _read(one + ".zscores.csv") == _read(two)
        return {"zscores_workers_1_eq_2": same}

    @property
    def replica_steps(self):
        return self.replicas * self.steps

    def expected_counts(self):
        return {
            "linalg.mat_exp.matrices": self.replicas * self.steps,
            "linalg.mat_log.matrices": 0,
        }


class ProductSO3(Workload):
    """Product of two so3 martingale ensembles (criterion 7 shape)."""

    name = "product-so3"

    def __init__(self, replicas=500, steps=200):
        self.replicas, self.steps = replicas, steps

    def prepare(self, seed, workdir):
        super().prepare(seed, workdir)
        self.spec = groups.get_group("so3")
        self.alpha = alpha_biinvariant(self.spec)
        self.grid = paths.TimeGrid(1.0, self.steps)

    def run_pass(self):
        x = explog.ito_exponential(
            paths.brownian_ensemble(self.spec, self.grid, self.seed, self.replicas),
            self.alpha)
        y = explog.ito_exponential(
            paths.brownian_ensemble(self.spec, self.grid, self.seed + 1, self.replicas),
            self.alpha)
        prod = campbell.product_path(x, y)
        return prod, martingale.martingale_verdict(prod, self.alpha)

    def check(self, result):
        report = result[1]
        return [] if report.passed else [f"product verdict failed (max |z| {report.max_abs_z:.2f})"]

    def digest(self, result):
        report = result[1]
        return _digest(report.mean.tobytes(), report.z.tobytes())

    def max_defect(self, result):
        return float(np.max(groups.membership_defect(self.spec, result[0].values)))

    def contracts(self):
        same = _bitwise_ito_equals_strat(
            self.spec, self.alpha, self.grid, self.seed, self.replicas)
        return {"ito_eq_strat_bitwise": same}

    @property
    def replica_steps(self):
        return 2 * self.replicas * self.steps

    def expected_counts(self):
        return {
            "linalg.mat_exp.matrices": 2 * self.replicas * self.steps,
            "linalg.mat_log.matrices": self.replicas * self.steps,
        }


class CampbellSO3(Workload):
    """Campbell-Hausdorff exponential and logarithm ladders (criterion 4)."""

    name = "campbell-so3"
    # Each ladder gates every rung on a per-replica null quadratic variation
    # test. At the battery's 0.99 it rejects about 1% of independent driver
    # pairs by design, so 3 of 40 workload seeds failed; at 1 - 1e-6 the
    # same 6 * replicas checks run and a correlated pair still fails.
    SIGNIFICANCE = 1.0 - 1e-6

    def __init__(self, replicas=32, dts=(4e-3, 2e-3, 1e-3)):
        self.replicas, self.dts = replicas, tuple(dts)

    def prepare(self, seed, workdir):
        super().prepare(seed, workdir)
        self.spec = groups.get_group("so3")
        self.alpha = alpha_biinvariant(self.spec)

    @property
    def _steps(self):
        return [int(round(1.0 / dt)) for dt in self.dts]

    def run_pass(self):
        exp_rep = campbell.ch_ladder(
            self.spec, self.alpha, dts=self.dts, replicas=self.replicas,
            base_seed=self.seed, significance=self.SIGNIFICANCE)
        log_rep = campbell.log_product_ladder(
            self.spec, self.alpha, dts=self.dts, replicas=self.replicas,
            base_seed=self.seed + 100, significance=self.SIGNIFICANCE)
        return exp_rep, log_rep

    def check(self, result):
        exp_rep, log_rep = result
        problems = []
        if not exp_rep.mean_terminal[-1] < 0.05:
            problems.append(f"exp identity residual {exp_rep.mean_terminal[-1]:.3g} >= 0.05")
        if not exp_rep.monotone_within_se():
            problems.append("exp identity ladder not monotone")
        if not log_rep.monotone_within_se():
            problems.append("log identity ladder not monotone")
        return problems

    def digest(self, result):
        return _digest(repr(result).encode())

    def max_defect(self, result):
        # the finest rung's N-side ensemble, as the exponential ladder develops it
        steps = self._steps[-1]
        seed = self.seed + 2 * (len(self.dts) - 1) + 1
        grid = paths.TimeGrid(1.0, steps)
        developed = explog.ito_exponential(
            paths.brownian_ensemble(self.spec, grid, seed, self.replicas), self.alpha)
        return float(np.max(groups.membership_defect(self.spec, developed.values)))

    def contracts(self):
        grid = paths.TimeGrid(1.0, self._steps[-1])
        same = _bitwise_ito_equals_strat(
            self.spec, self.alpha, grid, self.seed, self.replicas)
        return {"ito_eq_strat_bitwise": same}

    @property
    def replica_steps(self):
        # two ladders, two driver ensembles per rung
        return 4 * self.replicas * sum(self._steps)

    def expected_counts(self):
        total = self.replicas * sum(self._steps)
        return {
            "linalg.mat_exp.matrices": 6 * total,
            "linalg.mat_log.matrices": total,
            "paths.null_qv_check.calls": 2 * len(self.dts) * self.replicas,
        }


class ExportSixGroups(Workload):
    """``liestoch exp`` at the README shape for all six groups (write path)."""

    name = "export-sixgroups"
    GROUPS = groups.GROUP_NAMES

    def __init__(self, replicas=8, steps=1000):
        self.replicas, self.steps = replicas, steps

    def _argv(self, group, workers, out):
        return [
            "exp", "--group", group, "--connection", "levicivita", "--lambda", "1",
            "--dt", "1e-3", "--steps", str(self.steps),
            "--replicas", str(self.replicas), "--seed", str(self.seed),
            "--workers", str(workers), "--out", out,
        ]

    def _run(self, workers, tag):
        results = []
        for group in self.GROUPS:
            out = os.path.join(self.workdir, f"{group}-{tag}.csv")
            results.append((group, _quiet(cli.main, self._argv(group, workers, out)), out))
        return results

    def run_pass(self):
        # README-shape exports (64 replicas) gain little from replica chunks,
        # so the timed pass runs one worker
        return self._run(1, "w1")

    def check(self, result):
        problems = []
        for group, code, out in result:
            if code != 0:
                problems.append(f"exp --group {group} exited {code}")
                continue
            rows = _read(out).count(b"\n") - 1
            if rows != self.replicas * (self.steps + 1):
                problems.append(f"{group}: {rows} rows")
        return problems

    def digest(self, result):
        return _digest(*(_read(out) for _, _, out in result))

    def max_defect(self, result):
        worst = 0.0
        for group, _, out in result:
            spec = groups.get_group(group)
            with open(out, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            d = spec.matrix_dim
            mats = np.array([[float(v) for v in row[3:]] for row in rows]).reshape(-1, d, d)
            worst = max(worst, float(np.max(groups.membership_defect(spec, mats))))
        return worst

    def contracts(self):
        # against the last timed pass, which ran with --workers 1
        same = all(
            code == 0 and os.path.exists(out.replace("-w2.csv", "-w1.csv"))
            and _read(out) == _read(out.replace("-w2.csv", "-w1.csv"))
            for _, code, out in self._run(2, "w2")
        )
        return {"csv_workers_1_eq_2": same}

    @property
    def replica_steps(self):
        return len(self.GROUPS) * self.replicas * self.steps

    def expected_counts(self):
        return {
            "linalg.mat_exp.matrices": len(self.GROUPS) * self.replicas * self.steps,
            "linalg.mat_log.matrices": 0,
        }


WORKLOADS = {w.name: w for w in (MartingaleSE3, ProductSO3, CampbellSO3, ExportSixGroups)}

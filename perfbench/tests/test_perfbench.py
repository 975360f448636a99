"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import frozen_counts  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", 3, "--seconds", 0,
                     "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_host_speed_scales_by_the_samples_around_an_op():
    host = HostSpeed()
    host.starts = [0.0, 1.0, 3.0]
    host.seconds = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert host.scale(0.0, 0.5) == pytest.approx(2 / 3)  # mean of 1x and 2x
    assert host.scale(1.5, 2.5) == pytest.approx(1 / 3)  # mean of 2x and 4x
    assert host.scale(3.5, 4.0) == pytest.approx(1 / 4)  # only the last
    host.sample()
    assert len(host.seconds) == 4 and host.seconds[-1] > 0


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "cli_session", "--seed", 1, "--seconds", 1,
                     "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_example1_traced_counts():
    """The kernel-call counts of example1 that the ROADMAP records.

    23 of the 39 evaluate calls repeat a (poly, x, bits) of the same solve:
    the ROADMAP's 18, where step re-evaluates the residual the previous trace
    entry holds, and 5 where a trace entry re-evaluates a coordinate that the
    noise freeze left where it was.
    """
    from multiroots.report_io import load_problem
    from multiroots import solver

    problem = load_problem(ROOT / "src/multiroots/problems/example1.json")
    poly = problem.polynomial()
    tracer = Tracer()
    tracer.install()
    try:
        report = solver.solve(poly, problem.multiplicities, problem.initial,
                              problem.settings, true_roots=problem.truth())
    finally:
        tracer.uninstall()
    assert report.termination == "converged"
    assert tracer.calls["polynomials.evaluate"] == 39
    assert tracer.calls["polynomials.evaluate_derivative"] == 13
    assert tracer.calls["polynomials.log_derivative_sum"] == 13
    assert tracer.calls["polynomials.evaluation_noise"] == 18
    frozen, attempted = frozen_counts(
        [{"residuals": e.residuals, "corrections": e.corrections}
         for e in report.trace])
    assert (frozen, attempted) == (5, 18)
    assert tracer.evaluate_in_solve == 39
    assert tracer.evaluate_repeats == 18 + frozen
    assert not hasattr(solver.evaluate, "__wrapped__")

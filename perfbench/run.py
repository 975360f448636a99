"""multiroots benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.

Each run starts fresh single-threaded worker processes one after another
(perfbench/worker.py), never two at once.  A worker imports multiroots and
drives a closed loop with one client against its public API: the next
operation starts when the previous one has returned.  The seed only draws the
inputs (see workloads.py); the program receives nothing but those inputs.

``--trace 0`` runs one whole pass over the workload's operations, then
repeats them in the same order until ``--seconds`` have passed, and reports
the end-to-end metrics.  ``attempted`` and ``failed`` count each operation of
the pass once, so they depend on the seed alone; every repeat must give the
same outcome as the first run.  ``--trace 1`` runs one untraced pass and two
traced passes, each in its own worker, and reports the per-layer metrics; the
two traced passes must agree exactly on every call count and every outcome,
and the untraced pass on every outcome.  Both modes also set up in PROBES
extra workers and report the median set-up.  Times are scaled to the
reference speed of hostspeed.py.

The last line of standard output is the result; the line before it records
the environment.  Both are also written, with the span file of a traced run,
under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
WORKER = BENCH / "worker.py"
PROBES = 8
BUDGET_S = 170.0

SELF_MS = ("polynomials.expand_from_roots", "solver.step", "solver.solve",
           "convergence.estimate_order", "convergence.check_conditions",
           "verification.verify_roots", "report_io.load_problem",
           "report_io.save_problem", "report_io.load_report",
           "report_io.save_report", "cli.main")
CALLS_AND_SELF_MS = ("polynomials.evaluate_derivative",
                     "polynomials.log_derivative_sum", "polynomials.evaluate",
                     "polynomials.evaluation_noise", "precision.format_real",
                     "precision.parse_real")
TERMINATIONS = ("converged", "max_iterations", "collision", "diverged",
                "nonfinite")


class BenchmarkError(Exception):
    pass


def run_worker(config, deadline):
    """Start one worker, wait for it to end, return its summary."""
    config = dict(config, launched=time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(config)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{config['mode']} worker ran out of time")
    if proc.returncode != 0:
        raise BenchmarkError(f"{config['mode']} worker exited "
                             f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Linear-interpolation quantile q in [0, 1] of a nonempty list."""
    values = sorted(values)
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def median_setup(setups):
    return {key: statistics.median(s[key] for s in setups)
            for key in setups[0]}


def ops_per_s(summary, key="durations"):
    """Ops in a pass over the sum of each op's median duration.

    The worker repeats the ops round-robin, so op i ran at positions i,
    i + n, i + 2n, ... of the durations (n ops in a pass).  `key` picks the
    durations scaled to the reference speed or the wall durations.
    """
    ops = summary["counts"]["ops"]
    durations = summary[key]
    return ops / sum(statistics.median(durations[i::ops]) for i in range(ops))


def end_to_end(summary, setups):
    counts = summary["counts"]
    ops = counts["ops"]
    # whole passes only, so that every op weighs the same in the percentiles
    durations = summary["durations"]
    durations = durations[:len(durations) - len(durations) % ops]
    attempted = summary["attempted"]
    digits = counts["digits_min"]
    return {
        "setup_s": (median_setup(setups)["total_s"], "s"),
        "ops_per_s": (ops_per_s(summary), "1/s"),
        "latency_ms_p50": (1000 * percentile(durations, 0.5), "ms"),
        "latency_ms_p90": (1000 * percentile(durations, 0.9), "ms"),
        "success_rate": ((attempted - summary["failed"]) / attempted, "ratio"),
        "digits_min": (digits if digits is not None else 0.0, "digits"),
        "peak_rss_mb": (summary["peak_rss_mb"], "MB"),
    }


def per_layer(untraced, traced, setups):
    trace = traced["trace"]
    counts = traced["counts"]
    ops = counts["ops"]
    calls = trace["calls"]
    self_s = trace["self_s"]
    metrics = {}
    for name in CALLS_AND_SELF_MS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / ops, "count")
        metrics[f"{name}.self_ms"] = (1000 * self_s.get(name, 0.0) / ops, "ms")
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (1000 * self_s.get(name, 0.0) / ops, "ms")
    in_solve = trace["evaluate_in_solve"]
    metrics["polynomials.evaluate.repeat_ratio"] = (
        trace["evaluate_repeats"] / in_solve if in_solve else 0.0, "ratio")
    metrics["solver.sweeps"] = (counts["sweeps"] / ops, "count")
    coordinate_sweeps = counts["coordinate_sweeps"]
    metrics["solver.frozen_ratio"] = (
        counts["frozen"] / coordinate_sweeps if coordinate_sweeps else 0.0,
        "ratio")
    for reason in TERMINATIONS:
        metrics[f"solver.termination.{reason}"] = (
            counts["terminations"].get(reason, 0), "count")
    metrics["report_io.bytes_written"] = (trace["bytes_written"] / ops, "bytes")
    metrics["report_io.bytes_read"] = (trace["bytes_read"] / ops, "bytes")
    setup = median_setup(setups)
    for part in ("interpreter_s", "import_s", "build_s"):
        metrics[f"setup.{part}"] = (setup[part], "s")
    metrics["trace.overhead_ratio"] = (ops_per_s(traced) / ops_per_s(untraced),
                                       "ratio")
    metrics["check.fail_rate"] = (counts["failed"] / ops, "ratio")
    digits = counts["digits_min"]
    metrics["check.digits_min"] = (digits if digits is not None else 0.0,
                                   "digits")
    return metrics


def deterministic_view(summary, with_calls):
    """The parts of a pass that must repeat exactly for the same seed."""
    counts = summary["counts"]
    view = {key: counts[key] for key in
            ("ops", "failed", "digits_min", "sweeps", "terminations",
             "frozen", "coordinate_sweeps", "outcomes")}
    if with_calls:
        view["calls"] = summary["trace"]["calls"]
    return view


def differences(a, b):
    return sorted(key for key in a if a[key] != b.get(key))


def commit():
    """HEAD of the checkout, or None when the checkout is not a git root."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _stop(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the worker, and
    # through the clean-up of the work directory
    raise SystemExit(128 + signum)


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cli_session", "wide_factored", "deep_coeffs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["smoke"], default=None,
                        help="smallest pass of the same kinds of operation")
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + BUDGET_S
    if not (ROOT / "src" / "multiroots" / "__init__.py").is_file():
        print(f"error: no multiroots package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "commit": commit(), "cpu_count": os.cpu_count(),
              "platform": platform.platform(), "loadavg_start": loadavg()}
    config = {"workload": args.workload, "seed": args.seed,
              "workdir": str(workdir), "size": args.size}
    try:
        setups = [run_worker(dict(config, mode="probe"), deadline)["setup"]
                  for _ in range(PROBES)]
        mismatches = []
        if args.trace == 0:
            main_run = run_worker(
                dict(config, mode="timed", seconds=args.seconds), deadline)
            setups.append(main_run["setup"])
            metrics = end_to_end(main_run, setups)
            mismatches = main_run["mismatches"]
        else:
            untraced = run_worker(dict(config, mode="timed", seconds=0),
                                  deadline)
            spans = str(OUT / f"{args.workload}-spans.jsonl")
            traced = [run_worker(dict(config, mode="traced",
                                      spans=spans if i == 0 else None),
                                 deadline) for i in range(2)]
            main_run = traced[0]
            setups += [untraced["setup"]] + [t["setup"] for t in traced]
            metrics = per_layer(untraced, traced[0], setups)
            for key in differences(deterministic_view(traced[0], True),
                                   deterministic_view(traced[1], True)):
                mismatches.append(f"traced passes differ in {key}")
            for key in differences(deterministic_view(untraced, False),
                                   deterministic_view(traced[0], False)):
                mismatches.append(f"untraced and traced passes differ in {key}")
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in mismatches:
        print(f"determinism: {line}", file=sys.stderr)
    if main_run["wrong"]:
        print(f"{main_run['wrong']} ops claimed success with wrong roots",
              file=sys.stderr)
    record.update(main_run["environment"])
    record["loadavg_end"] = loadavg()
    record["setups"] = setups
    record["samples"] = len(main_run["durations"])
    record["wall_ops_per_s"] = ops_per_s(main_run, "wall_durations")
    record["reference_ms"] = 1000 * statistics.median(main_run["reference_s"])
    record["counts"] = {k: v for k, v in main_run["counts"].items()
                        if k != "outcomes"}
    record["mismatches"] = mismatches
    record["failures"] = main_run["failures"]
    result = {
        "correct": not mismatches and main_run["wrong"] == 0,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    (OUT / f"{name}.json").write_text(
        json.dumps({"environment": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"environment": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark worker process: set up, run one workload, print a summary.

Started by run.py with a single JSON argument: workload, seed, workdir, size,
mode, seconds, spans, and ``launched``, the parent's ``time.perf_counter()``
just before the start (CLOCK_MONOTONIC on Linux, so it compares across
processes).  The worker stamps the end of interpreter start, of ``import
multiroots`` and of building the operations, so set-up time splits into those
three parts.  The last line of its standard output is a JSON summary.

Every time it reports (set-up, op durations) is scaled to the reference speed
of hostspeed.py, from reference samples taken between ops; the summary keeps
the wall times beside them.

Modes: ``probe`` sets up and exits; ``timed`` runs one whole pass, then
repeats the ops in the same round-robin order until ``seconds`` have passed;
``traced`` runs one pass with spans around every traced function.
"""

import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_op(op, summary, host, first=None):
    """Run one op, record its wall interval and return its outcome fingerprint.

    An op's first run counts as attempted (and failed, if it did not pass its
    checks).  A repeat is timed like any run, and an outcome different from
    `first`, the op's first fingerprint, is recorded as a mismatch.
    """
    host.sample_if_due()
    start = time.perf_counter()
    result = op.run()
    end = time.perf_counter()
    outcome = op.check(result)
    summary["intervals"].append((start, end))
    fingerprint = outcome.fingerprint()
    summary["wrong"] += outcome.wrong
    if first is None:
        summary["attempted"] += 1
        summary["failed"] += not outcome.ok
        if not outcome.ok:
            summary["failures"].append(f"{op.label}: {fingerprint}")
    elif first != fingerprint:
        summary["mismatches"].append(f"{op.label}: {first} then {fingerprint}")
    return fingerprint


def run_pass(ops, summary, host, tracer=None):
    """Run every op once, in order; return their outcome fingerprints."""
    outcomes = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        outcomes.append(run_op(op, summary, host))
    return outcomes


def pass_counts(outcomes):
    """Machine-independent results of one pass, from the outcome fingerprints."""
    terminations = Counter()
    sweeps = frozen = coordinate_sweeps = failed = 0
    digits = []
    for ok, _, termination, n, d, f, c in outcomes:
        failed += not ok
        if termination is not None:
            terminations[termination] += 1
        sweeps += n
        frozen += f
        coordinate_sweeps += c
        if d is not None:
            digits.append(float(d))
    return {
        "ops": len(outcomes),
        "failed": failed,
        "digits_min": min(digits) if digits else None,
        "sweeps": sweeps,
        "terminations": dict(terminations),
        "frozen": frozen,
        "coordinate_sweeps": coordinate_sweeps,
        "outcomes": [list(o) for o in outcomes],
    }


def main(config):
    launched = config["launched"]
    if not (SRC / "multiroots" / "__init__.py").is_file():
        print(f"no multiroots package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_start = time.perf_counter()
    import multiroots
    import multiroots.cli  # noqa: F401
    build_start = time.perf_counter()
    if Path(multiroots.__file__).resolve().parent != (SRC / "multiroots").resolve():
        print(f"imported multiroots from {multiroots.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import mpmath

    import workloads
    from hostspeed import REFERENCE_S, HostSpeed
    ops = workloads.build_pass(config["workload"], config["seed"],
                               config["workdir"], config.get("size"))
    ready = time.perf_counter()
    host = HostSpeed()
    scale = host.scale_now()
    summary = {
        "setup": {"interpreter_s": scale * (import_start - launched),
                  "import_s": scale * (build_start - import_start),
                  "build_s": scale * (ready - build_start),
                  "total_s": scale * (ready - launched),
                  "wall_total_s": ready - launched},
        "environment": {"python": sys.version.split()[0],
                        "mpmath": mpmath.__version__,
                        "mpmath_backend": mpmath.libmp.BACKEND},
        "intervals": [], "attempted": 0, "failed": 0,
        "wrong": 0, "mismatches": [], "failures": [],
    }
    mode = config["mode"]
    if mode == "timed":
        start = time.perf_counter()
        first = run_pass(ops, summary, host)
        repeat = 0
        while time.perf_counter() - start < config["seconds"]:
            index = repeat % len(ops)
            run_op(ops[index], summary, host, first[index])
            repeat += 1
        host.sample()
        summary["counts"] = pass_counts(first)
    elif mode == "traced":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        try:
            outcomes = run_pass(ops, summary, host, tracer=tracer)
        finally:
            tracer.uninstall()
        summary["counts"] = pass_counts(outcomes)
        host.sample()
        scale = REFERENCE_S / statistics.median(host.seconds)
        summary["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": {name: scale * t for name, t in tracer.self_s.items()},
            "evaluate_in_solve": tracer.evaluate_in_solve,
            "evaluate_repeats": tracer.evaluate_repeats,
            "bytes_written": tracer.bytes_written,
            "bytes_read": tracer.bytes_read,
        }
        if config.get("spans"):
            tracer.write_spans(config["spans"])
    intervals = summary.pop("intervals")
    summary["wall_durations"] = [end - start for start, end in intervals]
    summary["durations"] = [(end - start) * host.scale(start, end)
                            for start, end in intervals]
    summary["reference_s"] = host.seconds
    summary["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))

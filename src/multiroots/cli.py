"""Command-line interface: solve, generate, verify, order.

Exit codes: 0 success, 1 non-convergence (max_iterations / diverged or a
failed verification), 2 input or schema error, 3 internal numeric error
(a collision, or an expansion that fails its round trip: `generate`
expands its roots, and `verify` of a factored problem expands the form
its oracle differentiates).
"""

import argparse
import functools
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

from mpmath import mp

from .convergence import ConvergenceParams, check_conditions
from .errors import (
    InsufficientDataError,
    InvalidConfigurationError,
    MultirootsError,
    SchemaError,
)
from .polynomials import (
    FAMILIES,
    FactoredForm,
    RootConfiguration,
    degree_of,
    expand_from_roots,
    gaps,
    require_distinct,
)
from .precision import format_digits, format_real, require_bits, working
from .report_io import (
    Problem,
    checked_real,
    located,
    load_problem,
    load_report,
    save_problem,
    save_report,
)
from .solver import (
    COLLISION,
    CONVERGED,
    DIVERGED,
    MAX_ITERATIONS,
    SolveSettings,
    solve,
    trace_order,
)
from .verification import verify_roots

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_TERMINATION_EXIT = {
    CONVERGED: EXIT_OK,
    MAX_ITERATIONS: EXIT_NOT_CONVERGED,
    DIVERGED: EXIT_NOT_CONVERGED,
    COLLISION: EXIT_NUMERIC,
}


def _bundled_names():
    return sorted(
        p.name[:-5] for p in resources.files("multiroots.problems").iterdir()
        if p.name.endswith(".json")
    )


def _resolve_problem_path(spec_arg):
    path = Path(spec_arg)
    if path.exists():
        return path
    candidate = resources.files("multiroots.problems") / f"{spec_arg}.json"
    if candidate.is_file():
        return candidate
    raise SchemaError(
        f"no such file, and no bundled problem named {spec_arg!r} "
        f"(bundled: {', '.join(_bundled_names())})"
    )


def _apply_overrides(problem, args):
    tolerance = args.tolerance
    if tolerance is not None:
        tolerance = checked_real(tolerance, problem.precision_bits,
                                 "--tolerance")
    for flag, field, value in (
            ("--max-iterations", "max_iterations", args.max_iterations),
            ("--tolerance", "correction_tolerance", tolerance),
            ("--sweep", "sweep_mode", args.sweep)):
        if value is not None:
            problem.settings = located(flag, replace, problem.settings,
                                       **{field: value})


def _condition_params(problem, args):
    truth = problem.truth()
    if truth is None:
        raise SchemaError(
            "--theorems needs the true root configuration; the problem file "
            "carries neither roots nor true_roots"
        )
    if args.c is None or args.q is None:
        raise SchemaError("--theorems requires --c and --q")
    bits = problem.precision_bits
    kappa = (None if args.kappa is None
             else checked_real(args.kappa, bits, "--kappa"))
    return located(
        "--theorems", ConvergenceParams, family=problem.family,
        c=checked_real(args.c, bits, "--c"),
        q=checked_real(args.q, bits, "--q"), roots=truth,
        multiplicities=problem.multiplicities, kappa=kappa,
        precision_bits=bits,
    )


def _write(save, *args, **kwargs):
    """`save(*args, **kwargs)`, with an unwritable path an input error:
    exit 1 would claim non-convergence."""
    try:
        save(*args, **kwargs)
    except OSError as exc:
        raise SchemaError(f"cannot write {exc.filename}: {exc.strerror}", "-o")


def _cmd_solve(args):
    if args.precision_bits is not None:
        located("--precision-bits", require_bits, args.precision_bits)
    problem = load_problem(_resolve_problem_path(args.problem),
                           precision_override=args.precision_bits)
    _apply_overrides(problem, args)
    verdict = None
    if args.theorems:
        verdict = check_conditions(_condition_params(problem, args))

    report = solve(problem.poly, problem.multiplicities, problem.initial,
                   settings=problem.settings, true_roots=problem.truth())

    bits = problem.precision_bits
    print(f"problem: {problem.label or args.problem}  family: {problem.family}  "
          f"precision: {bits} bits  sweep: {problem.settings.sweep_mode}")
    for entry in report.trace:
        parts = [f"k={entry.k}", f"bits={entry.precision_bits}"]
        if entry.corrections is not None:
            parts.append("max correction="
                         + format_digits(max(entry.corrections), 6))
        if entry.errors is not None:
            parts.append(f"max error={format_digits(max(entry.errors), 6)}")
        print("  " + "  ".join(parts))
    print(f"termination: {report.termination} "
          f"after {report.iterations_used} iterations")
    for i, v in enumerate(report.final):
        print(f"  x_{i} = {format_real(v, bits)}")
    if report.estimated_order is not None:
        print(f"estimated order: {format_digits(report.estimated_order, 6)}")
    if verdict is not None:
        print(str(verdict))

    output = args.output
    if output is None:
        stem = Path(args.problem).stem or "problem"
        output = Path.cwd() / f"{stem}.report.json"
    _write(save_report, report, problem, output, verdict=verdict)
    print(f"report written to {output}")
    return _TERMINATION_EXIT[report.termination]


def _parse_roots_arg(text, bits):
    roots, mults = [], []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            root_text, mult_text = chunk.rsplit(":", 1)
            try:
                mult = int(mult_text)
            except ValueError:
                raise SchemaError(f"multiplicity {mult_text!r} is not an "
                                  f"integer", "--roots")
        else:
            root_text, mult = chunk, 1
        roots.append(checked_real(root_text, bits, "--roots"))
        mults.append(mult)
    if not roots:
        raise SchemaError("--roots must list at least one root[:multiplicity]")
    return roots, mults


def _default_initial(roots, bits):
    # deterministic off-root guesses: alternate sides at 0.25 * min gap
    with working(bits):
        gap = gaps(roots)[0] if len(roots) > 1 else mp.mpf(1)
        return [r + gap / 4 * (1 if i % 2 == 0 else -1)
                for i, r in enumerate(roots)]


def _cmd_generate(args):
    bits = located("--precision-bits", require_bits,
                   192 if args.precision_bits is None else args.precision_bits)
    roots, mults = _parse_roots_arg(args.roots, bits)
    cfg = located("--roots", RootConfiguration, roots, mults,
                  precision_bits=bits)
    # before the expansion, which would blame an odd total on --scale
    located("--roots", degree_of, args.family, mults)
    form = located("--scale", FactoredForm, args.family, cfg,
                   precision_bits=bits,
                   scale=checked_real(args.scale, bits, "--scale"))
    poly = located("--scale", expand_from_roots, form)

    if args.initial:
        initial = [checked_real(v, bits, "--initial")
                   for v in args.initial.split(",")]
        if len(initial) != len(mults):
            raise SchemaError(
                f"{len(initial)} initial values vs {len(mults)} roots",
                "--initial")
        located("--initial", require_distinct, initial,
                "initial approximations")
    else:
        initial = _default_initial(cfg.roots, bits)

    problem = Problem(
        poly=poly,
        multiplicities=tuple(mults),
        initial=tuple(initial),
        label=args.label,
        true_roots=cfg.roots,
        settings=SolveSettings(precision_bits=bits),
    )
    _write(save_problem, problem, args.output)
    print(f"problem written to {args.output}")
    return EXIT_OK


def _cmd_verify(args):
    problem = load_problem(_resolve_problem_path(args.problem))
    report = load_report(args.report)
    bits = problem.precision_bits
    claimed = located(f"{args.report}.final", RootConfiguration,
                      report.final, problem.multiplicities, precision_bits=bits)
    tolerance = checked_real(args.tolerance, bits, "--tolerance")
    # verify_roots rejects only a tolerance that is not finite and > 0
    outcome = located("--tolerance", verify_roots, problem.poly, claimed,
                      tolerance, bits=bits)
    print(str(outcome))
    return EXIT_OK if outcome.passed else EXIT_NOT_CONVERGED


def _cmd_order(args):
    report = load_report(args.report)
    if report.termination != CONVERGED:
        print(f"warning: report terminated {report.termination}; the order "
              f"below is not a convergence order", file=sys.stderr)
    try:
        estimate, kind = trace_order(report.trace)
    except InsufficientDataError as exc:
        print(f"order: insufficient data ({exc})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    print(f"sequence: {kind}, window entries "
          f"{estimate.window[0]}..{estimate.window[1]}")
    print("per-step orders: "
          + ", ".join(format_digits(p, 6) for p in estimate.per_step_orders))
    print(f"estimated order: {format_digits(estimate.order, 6)}")
    return EXIT_OK


@functools.cache
def build_parser():
    """The CLI's argument parser, built on the first call and returned by
    every later one.  It holds no per-call state: `parse_args` puts each
    command's values and defaults into a new Namespace.  Reuse saves only
    in-process callers of `main` (tests, benchmarks, library code); a
    one-command ``multiroots`` process still builds one parser."""
    parser = argparse.ArgumentParser(
        prog="multiroots",
        description="Simultaneous refinement of all roots (with known "
                    "multiplicities) of algebraic, trigonometric and "
                    "exponential polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("problem",
                         help="problem file path or bundled name "
                              "(example1, example2, example3)")
    p_solve.add_argument("-o", "--output", default=None,
                         help="report file path (default: <stem>.report.json)")
    p_solve.add_argument("--precision-bits", type=int, default=None)
    p_solve.add_argument("--max-iterations", type=int, default=None)
    p_solve.add_argument("--tolerance", default=None,
                         help="correction tolerance (decimal string)")
    p_solve.add_argument("--sweep", choices=["simultaneous", "sequential"],
                         default=None)
    p_solve.add_argument("--theorems", action="store_true",
                         help="also check the family's convergence condition "
                              "at --c/--q (and --kappa for trigonometric)")
    p_solve.add_argument("--c", default=None)
    p_solve.add_argument("--q", default=None)
    p_solve.add_argument("--kappa", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("generate",
                           help="expand roots into a coefficient-form problem")
    p_gen.add_argument("--family", choices=list(FAMILIES), required=True)
    p_gen.add_argument("--roots", required=True,
                       help="comma-separated root:multiplicity pairs, "
                            "e.g. '2:2,3:3,5:1'")
    p_gen.add_argument("--initial", default=None,
                       help="comma-separated initial guesses "
                            "(default: deterministic off-root offsets)")
    p_gen.add_argument("--scale", default="1")
    p_gen.add_argument("--precision-bits", type=int, default=None)
    p_gen.add_argument("--label", default="")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_verify = sub.add_parser("verify",
                              help="check a report's roots against the problem")
    p_verify.add_argument("problem")
    p_verify.add_argument("report")
    p_verify.add_argument("--tolerance", default="1e-12")
    p_verify.set_defaults(func=_cmd_verify)

    p_order = sub.add_parser("order",
                             help="re-estimate convergence order from a report")
    p_order.add_argument("report")
    p_order.set_defaults(func=_cmd_order)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, InvalidConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MultirootsError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

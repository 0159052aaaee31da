"""Command-line interface: solve, generate, check, bench, profile.

Exit codes: 0 success, 2 no solution (consistency failure), 3 invalid
input, 1 internal error.

Dispatch: the argument parser is built once per process and shared by
every ``main`` call, since ``parse_args`` returns a fresh namespace and
leaves the parser unchanged; rebuilding it cost more than a small solve.
``main`` looks each subcommand's handler up by name (``cmd_<command>``)
when it dispatches, so a function put in its place on this module (a
tracer's wrapper, a test's spy) is the one called.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import bench, generate, io, model, rankdef
from .errors import (
    DimensionError,
    NoSolutionError,
    NotPositiveDefiniteError,
    PdtlsError,
    RankDeficiencyError,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_NO_SOLUTION = 2
EXIT_INVALID = 3

# `pdtls --help` prints the first two paragraphs of the module docstring.
_DESCRIPTION = __doc__ and "\n\n".join(__doc__.split("\n\n")[:2])


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_float(text: str) -> float:
    """argparse type of a tolerance: a positive, finite float."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return value


def _emit_report(report: dict, path: str | None) -> None:
    # Strict JSON: a non-finite float (the library's inf markers for a
    # singular B_rr) is written as null.
    report = {k: None if isinstance(v, float) and not math.isfinite(v) else v
              for k, v in report.items()}
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _read_instance(data, target, fmt) -> model.ProblemInstance:
    return model.ProblemInstance(d=io.read_matrix(data, fmt), t=io.read_matrix(target, fmt))


def _load_instance(args) -> model.ProblemInstance:
    return _read_instance(args.data, args.target, args.format)


def _generate(args, seed: int):
    """(p, x0): the instance the generator flags and seed give, and its X0
    at full rank (--rank equal to --n), None below."""
    spec = generate.GeneratorSpec(m=args.m, n=args.n, r=args.rank, seed=seed, noise_level=args.noise)
    if spec.r == spec.n:
        return generate.gen_full_rank(spec)
    return generate.gen_consistent_rankdef(spec), None


def _cli_name(method: str) -> str:
    """A method's name on the command line: each "_" of its library name as "-"."""
    return method.replace("_", "-")


def _solver_registry(delta, rank_tol):
    registry = {
        method: lambda p, method=method: rankdef.solve(p, method, rank_tol=rank_tol, delta=delta)
        for method in rankdef.METHODS
        if method != "auto"
    }
    registry["baseline"] = bench.baseline_ols_projection
    return registry


def _report(check: rankdef.ConsistencyReport, **fields) -> dict:
    """The JSON report of ``solve`` or ``check``: the consistency test's
    fields, then the command's own."""
    return {
        "rank_r": check.rank,
        "consistent": check.consistent,
        "f_norm": check.f_norm,
        "delta": check.delta,
        **fields,
    }


def cmd_solve(args) -> int:
    p = _load_instance(args)
    try:
        sol = rankdef.solve(p, args.method, rank_tol=args.rank_tol, delta=args.delta)
    except NoSolutionError as exc:
        sol, check, tag = None, exc.report, exc.method_tag
    else:
        check, tag = sol.consistency, sol.method_tag
        if args.out:
            io.write_matrix(args.out, sol.x, args.format)
    report = _report(
        check,
        method=_cli_name(tag),
        E=None if sol is None else sol.error_value,
        kkt_residual=None if sol is None else sol.kkt_residual,
        min_eigenvalue=None if sol is None else sol.min_eigenvalue,
    )
    _emit_report(report, args.report)
    if sol is None:
        print("no SPD solution: consistency test failed", file=sys.stderr)
        return EXIT_NO_SOLUTION
    return EXIT_OK


def cmd_generate(args) -> int:
    p, x0 = _generate(args, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ext = args.format or "mtx"
    if x0 is not None:
        io.write_matrix(out / f"X0.{ext}", x0, ext)
    io.write_matrix(out / f"D.{ext}", p.d, ext)
    io.write_matrix(out / f"T.{ext}", p.t, ext)
    return EXIT_OK


def cmd_check(args) -> int:
    p = _load_instance(args)
    check = rankdef.check_consistency(rankdef.partition_spectral(p, args.rank_tol), args.delta)
    _emit_report(_report(check, b_rr_condition=check.b_rr_condition), args.report)
    return EXIT_OK if check.consistent else EXIT_NO_SOLUTION


def _suite_from_dir(suite_dir: str, fmt: str | None):
    root = Path(suite_dir)
    if not root.is_dir():
        raise _UsageError(f"suite directory {suite_dir!r} does not exist")
    problems = []
    for d_path in sorted(root.glob("*_D.*")):
        pid = d_path.name.rsplit("_D.", 1)[0]
        t_path = d_path.with_name(d_path.name.replace("_D.", "_T."))
        if not t_path.exists():
            raise _UsageError(f"missing target file for problem {pid!r}")
        problems.append((pid, _read_instance(d_path, t_path, fmt)))
    return problems


def _suite_from_spec(args):
    missing = [f"--{name}" for name in ("m", "n", "rank") if getattr(args, name) is None]
    if missing:
        raise _UsageError(f"--problems needs {', '.join(missing)}")
    problems = []
    for i in range(args.problems):
        seed = int(generate.derive_rng(args.seed, i).integers(0, 2**63 - 1))
        problems.append((f"gen-{i:04d}", _generate(args, seed)[0]))
    return problems


def cmd_bench(args) -> int:
    if args.suite_dir:
        problems = _suite_from_dir(args.suite_dir, args.format)
    elif args.problems:
        problems = _suite_from_spec(args)
    else:
        raise _UsageError("provide either --suite-dir or --problems with generator flags")
    if not problems:
        raise _UsageError("suite is empty")
    registry = _solver_registry(args.delta, args.rank_tol)
    # A "-" stands for each "_", as rankdef.solve reads --method; each
    # solver runs once, in the order first named.
    names = (s.strip().replace("-", "_") for s in args.solvers.split(","))
    solver_ids = list(dict.fromkeys(s for s in names if s))
    unknown = [s for s in solver_ids if s not in registry]
    if unknown:
        raise _UsageError(f"unknown solvers {unknown}; available: {sorted(registry)}")
    solvers = {s: registry[s] for s in solver_ids}
    records = bench.run_suite(problems, solvers, repetitions=args.repetitions)
    bench.write_records_csv(records, args.records)
    report = {
        "problems": len(problems),
        "solvers": solver_ids,
        "repetitions": args.repetitions,
        "failures": sum(1 for r in records if r.status != "ok"),
    }
    if "baseline" in solver_ids:
        comparisons = []
        for sid in solver_ids:
            if sid == "baseline":
                continue
            for metric in ("error_entry_std", "effective_rank"):
                comparisons.append(bench.compare_records(records, sid, "baseline", metric))
        report["baseline_comparisons"] = comparisons
    _emit_report(report, args.report)
    return EXIT_OK


def cmd_profile(args) -> int:
    records = bench.read_records_csv(args.records)
    profile = bench.dolan_more_profile(records, metric=args.metric)
    bench.write_profile_csv(profile, args.out)
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The ``pdtls`` parser, built on the first call; callers share it.

    The parser binds no handler: the subcommand's name is ``command`` in
    the parsed namespace, and ``main`` looks its handler up at call time.
    """
    parser = _Parser(prog="pdtls", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=io.FORMATS, default=None,
                        help="matrix file format (default: inferred from extension)")
        sp.add_argument("--rank-tol", type=_positive_float, default=None, dest="rank_tol",
                        help="relative rank tolerance (default: 1e-10 * max(m, n))")
        sp.add_argument("--delta", type=_positive_float, default=None,
                        help="consistency threshold (default: 1e-8 * ||B||_F)")
        sp.add_argument("--report", default=None,
                        help="write the JSON report here instead of stdout")

    def add_generator(sp, required):
        # The flags _generate reads; bench takes --m, --n and --rank only with --problems.
        for name in ("m", "n", "rank"):
            sp.add_argument(f"--{name}", type=int, required=required)
        sp.add_argument("--seed", type=int, required=required, default=0)
        sp.add_argument("--noise", type=float, default=0.0)

    sp = sub.add_parser("solve", help="solve D X ~= T for an SPD X")
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", default=None, help="file for the computed X")
    sp.add_argument("--method", default="auto",
                    choices=[_cli_name(method) for method in rankdef.METHODS])
    add_common(sp)

    sp = sub.add_parser("generate", help="generate a seeded test instance")
    add_generator(sp, required=True)
    sp.add_argument("--out-dir", default=".", dest="out_dir")
    sp.add_argument("--format", choices=io.FORMATS, default=None)

    sp = sub.add_parser("check", help="run the consistency test only")
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", required=True)
    add_common(sp)

    sp = sub.add_parser("bench", help="run a solver suite and record metrics")
    sp.add_argument("--suite-dir", default=None, dest="suite_dir",
                    help="directory of <id>_D.<ext> / <id>_T.<ext> pairs")
    sp.add_argument("--problems", type=int, default=0,
                    help="number of generated problems (with --m/--n/--rank/--seed)")
    add_generator(sp, required=False)
    sp.add_argument("--solvers", default="qr,spectral,baseline")
    sp.add_argument("--repetitions", type=int, default=3)
    sp.add_argument("--records", required=True, help="output CSV of run records")
    add_common(sp)

    sp = sub.add_parser("profile", help="Dolan-More profile from a records CSV")
    sp.add_argument("--records", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--metric", choices=["time", "error"], default="time")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return globals()[f"cmd_{args.command}"](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except NotPositiveDefiniteError as exc:
        print(f"no SPD solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (DimensionError, RankDeficiencyError, OSError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PdtlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

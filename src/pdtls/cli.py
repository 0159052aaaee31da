"""Command-line interface: solve, generate, check, bench, profile.

Exit codes: 0 success, 2 no solution (consistency failure), 3 invalid
input, 1 internal error.
"""

import argparse
import json
import sys
from pathlib import Path

from . import bench, fullrank, generate, io, linalg, model, rankdef
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit_report(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n")
    else:
        print(text)


def _load_instance(args) -> model.ProblemInstance:
    d = io.read_matrix(args.data, args.format)
    t = io.read_matrix(args.target, args.format)
    return model.ProblemInstance(d=d, t=t)


def _solver_registry(delta, rank_tol):
    return {
        "qr": lambda p: fullrank.solve_qr(p, rank_tol),
        "spectral": lambda p: fullrank.solve_spectral(p, rank_tol),
        "rankdef_spectral": lambda p: rankdef.solve_rankdef(
            p, route="spectral", delta=delta, rank_tol=rank_tol
        ),
        "rankdef_cod": lambda p: rankdef.solve_rankdef(
            p, route="cod", delta=delta, rank_tol=rank_tol
        ),
        "baseline": bench.baseline_ols_projection,
    }


def _consistency_fields(check) -> dict:
    """Report fields of a ConsistencyReport; None means a full-rank route."""
    if check is None:
        return {"consistent": True, "f_norm": 0.0, "delta": None}
    return {"consistent": check.consistent, "f_norm": check.f_norm, "delta": check.delta}


def cmd_solve(args) -> int:
    p = _load_instance(args)
    rank_r = linalg.numeric_rank(p.d, args.rank_tol)
    method = args.method
    if method == "auto":
        method = "qr" if rank_r == p.n else "rankdef-spectral"
    solve = _solver_registry(args.delta, args.rank_tol)[method.replace("-", "_")]
    report = {"method": method, "rank_r": rank_r}
    try:
        sol = solve(p)
    except NoSolutionError as exc:
        report.update(_consistency_fields(exc.report), E=None, kkt_residual=None, min_eigenvalue=None)
        _emit_report(report, args.report)
        print("no SPD solution: consistency test failed", file=sys.stderr)
        return EXIT_NO_SOLUTION
    report.update(
        _consistency_fields(sol.consistency),
        E=sol.error_value,
        kkt_residual=sol.kkt_residual,
        min_eigenvalue=sol.min_eigenvalue,
    )
    if args.out:
        io.write_matrix(args.out, sol.x, args.format)
    _emit_report(report, args.report)
    return EXIT_OK


def cmd_generate(args) -> int:
    spec = generate.GeneratorSpec(
        m=args.m, n=args.n, r=args.rank, seed=args.seed, noise_level=args.noise
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ext = args.format or "mtx"
    if spec.r == spec.n:
        p, x0 = generate.gen_full_rank(spec)
        io.write_matrix(out / f"X0.{ext}", x0, ext)
    else:
        p = generate.gen_consistent_rankdef(spec)
    io.write_matrix(out / f"D.{ext}", p.d, ext)
    io.write_matrix(out / f"T.{ext}", p.t, ext)
    return EXIT_OK


def cmd_check(args) -> int:
    p = _load_instance(args)
    bp = rankdef.partition_spectral(p, args.rank_tol)
    b = linalg.symmetrize(p.t.T @ p.t)
    delta = args.delta if args.delta is not None else rankdef.default_delta(b)
    check = rankdef.check_consistency(bp, b, delta)
    _emit_report(
        {
            "rank_r": bp.r,
            "f_norm": check.f_norm,
            "delta": check.delta,
            "consistent": check.consistent,
            "b_rr_condition": check.b_rr_condition,
        },
        args.report,
    )
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
        p = model.ProblemInstance(
            d=io.read_matrix(d_path, fmt), t=io.read_matrix(t_path, fmt)
        )
        problems.append((pid, p))
    return problems


def _suite_from_spec(args):
    problems = []
    for i in range(args.problems):
        seed = int(generate.derive_rng(args.seed, i).integers(0, 2**63 - 1))
        spec = generate.GeneratorSpec(
            m=args.m, n=args.n, r=args.rank, seed=seed, noise_level=args.noise
        )
        if spec.r == spec.n:
            p, _ = generate.gen_full_rank(spec)
        else:
            p = generate.gen_consistent_rankdef(spec)
        problems.append((f"gen-{i:04d}", p))
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
    solver_ids = [s.strip() for s in args.solvers.split(",") if s.strip()]
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


def build_parser() -> _Parser:
    parser = _Parser(prog="pdtls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--format", choices=io.FORMATS, default=None,
                        help="matrix file format (default: inferred from extension)")
        sp.add_argument("--rank-tol", type=float, default=None, dest="rank_tol",
                        help="relative rank tolerance (default: 1e-10 * max(m, n))")
        sp.add_argument("--delta", type=float, default=None,
                        help="consistency threshold (default: 1e-8 * max(1, ||B||_F))")
        sp.add_argument("--report", default=None,
                        help="write the JSON report here instead of stdout")

    sp = sub.add_parser("solve", help="solve D X ~= T for an SPD X")
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", required=True)
    sp.add_argument("--out", default=None, help="file for the computed X")
    sp.add_argument("--method", default="auto",
                    choices=["auto", "qr", "spectral", "rankdef-spectral", "rankdef-cod"])
    add_common(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("generate", help="generate a seeded test instance")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--out-dir", default=".", dest="out_dir")
    sp.add_argument("--format", choices=io.FORMATS, default=None)
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("check", help="run the consistency test only")
    sp.add_argument("--data", required=True)
    sp.add_argument("--target", required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("bench", help="run a solver suite and record metrics")
    sp.add_argument("--suite-dir", default=None, dest="suite_dir",
                    help="directory of <id>_D.<ext> / <id>_T.<ext> pairs")
    sp.add_argument("--problems", type=int, default=0,
                    help="number of generated problems (with --m/--n/--rank/--seed)")
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--noise", type=float, default=0.0)
    sp.add_argument("--solvers", default="qr,spectral,baseline")
    sp.add_argument("--repetitions", type=int, default=3)
    sp.add_argument("--records", required=True, help="output CSV of run records")
    add_common(sp)
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("profile", help="Dolan-More profile from a records CSV")
    sp.add_argument("--records", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--metric", choices=["time", "error"], default="time")
    sp.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NoSolutionError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except NotPositiveDefiniteError as exc:
        print(f"no SPD solution: {exc}", file=sys.stderr)
        return EXIT_NO_SOLUTION
    except (DimensionError, RankDeficiencyError, FileNotFoundError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PdtlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()

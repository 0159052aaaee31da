"""Batch experiment runner and Dolan-More performance profiles.

A suite run produces one RunRecord per (problem, solver) pair; failures are
data (status "failed"), not exceptions.  Profiles follow the standard
definition: per-problem performance ratios r_{p,s} = v_{p,s} / min_s v_{p,s}
and rho_s(tau) = (fraction of problems with r_{p,s} <= tau).  Failed runs
enter with an infinite ratio.

The comparison solver ("baseline") solves the unconstrained normal
equations A X = D^T T, symmetrizes, and clips eigenvalues at
1e-8 * lambda_max to land in the SPD cone.
"""

import csv
import time
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from . import linalg, model
from .errors import PdtlsError

__all__ = [
    "RunRecord",
    "PerformanceProfile",
    "run_suite",
    "dolan_more_profile",
    "baseline_ols_projection",
    "compare_records",
    "effective_rank",
    "write_records_csv",
    "read_records_csv",
    "write_profile_csv",
]

EFFECTIVE_RANK_TOL = 1e-8


@dataclass(frozen=True)
class RunRecord:
    problem_id: str
    solver_id: str
    status: str  # "ok" or "failed"
    wall_time: float
    error_value: float | None = None
    kkt_residual: float | None = None
    min_eigenvalue: float | None = None
    effective_rank: int | None = None
    error_entry_std: float | None = None


@dataclass(frozen=True)
class PerformanceProfile:
    solver_ids: list[str]
    taus: np.ndarray
    rho: dict[str, np.ndarray]


def effective_rank(x) -> int:
    """Number of eigenvalues above EFFECTIVE_RANK_TOL times the largest."""
    w = np.linalg.eigvalsh(linalg.symmetrize(linalg.as_matrix(x)))
    top = w.max()
    if top <= 0.0:
        return 0
    return int(np.count_nonzero(w > EFFECTIVE_RANK_TOL * top))


def error_entry_std(p: model.ProblemInstance, x) -> float:
    """Standard deviation of the entries of D X - T."""
    return float(np.std(p.d @ x - p.t))


def baseline_ols_projection(p: model.ProblemInstance) -> model.SpdSolution:
    """Unconstrained least squares followed by SPD-cone projection.

    Solves A X = D^T T with A = D^T D formed, symmetrizes, clips
    eigenvalues at 1e-8 * lambda_max.  The diagnostics take A's Cholesky
    factor.  Raises numpy.linalg.LinAlgError when A is singular and
    NotPositiveDefiniteError when A has no Cholesky factor or the clipped
    matrix is still not SPD (lambda_max <= 0).
    """
    a = linalg.gram(p.d)
    x = np.linalg.solve(a, p.d.T @ p.t)
    x = linalg.symmetrize(x)
    w, u = np.linalg.eigh(x)
    clip = 1e-8 * w.max()
    x = (u * np.maximum(w, clip)) @ u.T
    return model.make_solution(p, linalg.cholesky(a).T, linalg.gram(p.t), x, "baseline")


def run_suite(problems, solvers, repetitions: int = 3) -> list[RunRecord]:
    """Run every solver on every problem, timing with a monotonic clock.

    Parameters
    ----------
    problems : sequence of (problem_id, ProblemInstance)
    solvers : mapping solver_id -> callable(ProblemInstance) -> SpdSolution
    repetitions : wall_time is the minimum over this many repeats.

    Returns records sorted by (problem_id, solver_id); solver failures are
    recorded with status "failed" and carry only the wall time.  A failure
    is a package error or a ValueError (numpy.linalg.LinAlgError among
    them), such as a solve whose finite data overflows to Inf.
    """
    if not problems or not solvers:
        raise ValueError("need at least one problem and one solver")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    records = []
    for problem_id, p in problems:
        for solver_id, solve in solvers.items():
            best = float("inf")
            sol = None
            failed = False
            for _ in range(repetitions):
                t0 = time.perf_counter()
                try:
                    sol = solve(p)
                except (PdtlsError, ValueError):
                    failed = True
                best = min(best, time.perf_counter() - t0)
                if failed:
                    break
            if failed or sol is None:
                records.append(RunRecord(problem_id, solver_id, "failed", best))
            else:
                records.append(
                    RunRecord(
                        problem_id,
                        solver_id,
                        "ok",
                        best,
                        error_value=sol.error_value,
                        kkt_residual=sol.kkt_residual,
                        min_eigenvalue=sol.min_eigenvalue,
                        effective_rank=effective_rank(sol.x),
                        error_entry_std=error_entry_std(p, sol.x),
                    )
                )
    records.sort(key=lambda r: (r.problem_id, r.solver_id))
    return records


def _metric_value(rec: RunRecord, metric: str) -> float:
    if rec.status != "ok":
        return float("inf")
    if metric == "time":
        return rec.wall_time
    if metric == "error":
        # error values are >= -1e-10 by construction; clamp rounding noise
        return max(float(rec.error_value), 0.0)
    raise ValueError(f"unknown metric {metric!r}; expected 'time' or 'error'")


def dolan_more_profile(records, metric: str = "time") -> PerformanceProfile:
    """Performance profile over a set of run records.

    Every problem must have at least one successful record.  Ratios with a
    zero best value are defined as 1 for values at the best and infinity
    otherwise.
    """
    records = list(records)
    if not records:
        raise ValueError("empty records")
    problem_ids = sorted({r.problem_id for r in records})
    solver_ids = sorted({r.solver_id for r in records})
    values = {(r.problem_id, r.solver_id): _metric_value(r, metric) for r in records}
    ratios = np.full((len(problem_ids), len(solver_ids)), np.inf)
    for i, pid in enumerate(problem_ids):
        row = [values.get((pid, sid), float("inf")) for sid in solver_ids]
        best = min(row)
        if not np.isfinite(best):
            raise ValueError(f"problem {pid!r} has no successful record")
        for j, v in enumerate(row):
            if v <= best:
                ratios[i, j] = 1.0
            elif best > 0.0:
                ratios[i, j] = v / best
    finite = ratios[np.isfinite(ratios)]
    taus = np.unique(np.concatenate([[1.0], finite]))
    rho = {
        sid: np.array([np.mean(ratios[:, j] <= tau) for tau in taus])
        for j, sid in enumerate(solver_ids)
    }
    return PerformanceProfile(solver_ids=solver_ids, taus=taus, rho=rho)


def compare_records(records, solver_id: str, baseline_id: str, metric_field: str) -> dict:
    """Per-problem comparison of one solver against a baseline.

    A problem counts as a win when the solver succeeded and its metric is
    <= the baseline's (a failed baseline is always beaten).  Returns the win
    rate over all problems appearing for both solvers.
    """
    by_problem = {}
    for r in records:
        if r.solver_id in (solver_id, baseline_id):
            by_problem.setdefault(r.problem_id, {})[r.solver_id] = r
    wins = 0
    total = 0
    for pid, pair in sorted(by_problem.items()):
        if solver_id not in pair or baseline_id not in pair:
            continue
        total += 1
        ours, base = pair[solver_id], pair[baseline_id]
        if ours.status != "ok":
            continue
        if base.status != "ok" or getattr(ours, metric_field) <= getattr(base, metric_field):
            wins += 1
    return {
        "solver": solver_id,
        "baseline": baseline_id,
        "metric": metric_field,
        "wins": wins,
        "total": total,
        "win_rate": wins / total if total else float("nan"),
    }


def _column_type(f) -> type:
    """The type a RunRecord field holds when set: str, float or int."""
    return (get_args(f.type) or (f.type,))[0]


def write_records_csv(records, path) -> None:
    """One column per RunRecord field; a float has 17 significant digits and
    None is an empty cell."""
    columns = [(f.name, _column_type(f)) for f in fields(RunRecord)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([name for name, _ in columns])
        for r in records:
            row = []
            for name, kind in columns:
                v = getattr(r, name)
                if v is None:
                    row.append("")
                elif kind is float:
                    row.append(format(v, ".17g"))
                else:
                    row.append(str(v))
            w.writerow(row)


def read_records_csv(path) -> list[RunRecord]:
    """The records of write_records_csv's file; an empty cell of a field
    that defaults to None reads as None."""
    columns = [(f.name, _column_type(f), f.default is None) for f in fields(RunRecord)]
    records = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            values = {
                name: None if optional and not row[name] else kind(row[name])
                for name, kind, optional in columns
            }
            records.append(RunRecord(**values))
    return records


def write_profile_csv(profile: PerformanceProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tau"] + profile.solver_ids)
        for i, tau in enumerate(profile.taus):
            w.writerow(
                [format(tau, ".17g")]
                + [format(profile.rho[s][i], ".17g") for s in profile.solver_ids]
            )

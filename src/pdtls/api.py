"""One solve entry point over every route, factoring D once.

Every route but one runs one pipeline: the R-only QR of D and the SVD of
its triangle (linalg.qr_svd_decompose), the partition of B = T^T T in
that basis (rankdef.partition_spectral), the consistency test, and the
solve from the partition (rankdef.solve_partition), with full rank the
case r = n.  The methods differ in the rank they accept and in the tag
they give the solution.  The complete-orthogonal route builds its basis
its own way, from a pivoted QR of the triangle of the same R-only QR of
D, so under "rankdef_cod" too D is read once.
"""

import dataclasses

from . import fullrank, model, rankdef

__all__ = ["METHODS", "route_tag", "solve"]

METHODS = ("auto", "qr", "spectral", "rankdef_spectral", "rankdef_cod")


def route_tag(method: str, rank: int, n: int) -> str:
    """The solution's tag along ``method`` (a "-" may stand for "_") at D's
    rank ``rank`` of n: "auto" names its route, "qr" or "rankdef_spectral"."""
    method = method.replace("-", "_")
    if method == "auto":
        return "qr" if rank == n else "rankdef_spectral"
    return method


def solve(
    p: model.ProblemInstance,
    method: str = "auto",
    *,
    rank_tol: float | None = None,
    delta: float | None = None,
) -> model.SpdSolution:
    """Solve p along ``method``, one of METHODS (a "-" may stand for "_").

    "qr" and "spectral" name one computation: they refuse rank-deficient D
    with RankDeficiencyError, and otherwise solve at r = n.
    "rankdef_spectral" solves at D's numeric rank r, whatever it is.
    "auto" runs "rankdef_spectral" and tags the solution by route_tag:
    "qr" when r = n.
    rank_tol is the relative rank tolerance of D; delta is the consistency
    threshold, on every route.  The solution's ``rank`` is the rank the
    route used, and its ``consistency`` the report that admitted it; a
    NoSolutionError carries that report, rank included, in ``exc.report``.
    """
    method = method.replace("-", "_")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    # Each partition is passed on, not kept here: a caller that keeps a
    # refusal keeps this frame.
    if method == "rankdef_cod":
        return rankdef.solve_rankdef(p, route="cod", delta=delta, rank_tol=rank_tol)
    if method in ("qr", "spectral"):
        return rankdef.solve_partition(p, fullrank.partition(p, rank_tol), method, delta=delta)
    sol = rankdef.solve_partition(
        p, rankdef.partition_spectral(p, rank_tol), "rankdef_spectral", delta=delta
    )
    tag = route_tag(method, sol.rank, p.n)
    return sol if tag == sol.method_tag else dataclasses.replace(sol, method_tag=tag)

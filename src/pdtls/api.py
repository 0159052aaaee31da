"""One solve entry point over every route, factoring D once.

``solve`` takes the R-only QR of D and the SVD of its triangle
(linalg.qr_svd_decompose) once.  That factor picks the route under
"auto" and is handed to the route, which forms B = T^T T once and reads
its diagnostics from the same factor.  The complete-orthogonal route
factors D its own way, so under "rankdef_cod" its pivoted QR is the one
factor of D.
"""

from . import fullrank, linalg, model, rankdef

__all__ = ["METHODS", "solve"]

METHODS = ("auto", "qr", "spectral", "rankdef_spectral", "rankdef_cod")


def solve(
    p: model.ProblemInstance,
    method: str = "auto",
    *,
    rank_tol: float | None = None,
    delta: float | None = None,
) -> model.SpdSolution:
    """Solve p along ``method``, one of METHODS (a "-" may stand for "_").

    "auto" takes the QR route when D has full numeric rank and the
    rank-deficient spectral route otherwise.  rank_tol is the relative rank
    tolerance of D (and of T on the full-rank routes); delta is the
    consistency threshold of the rank-deficient routes, unused by the
    full-rank ones.  The solution's ``rank`` is the rank the route used; a
    NoSolutionError carries it in ``exc.report.rank``.  Refusals are those
    of the chosen route.
    """
    method = method.replace("-", "_")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "rankdef_cod":
        return rankdef.solve_rankdef(p, route="cod", delta=delta, rank_tol=rank_tol)
    f = linalg.qr_svd_decompose(p.d, rank_tol)
    if method == "auto":
        method = "qr" if f.rank == p.n else "rankdef_spectral"
    if method == "rankdef_spectral":
        return rankdef.solve_partition(
            p, rankdef.partition_spectral(p, rank_tol, f), "spectral", delta=delta
        )
    return fullrank.solve_factored(p, f, method, rank_tol)

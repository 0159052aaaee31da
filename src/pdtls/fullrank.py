"""Full-rank names over the one solve pipeline, rank(D) = n.

Full-rank data is the r = n case of the reduction in rankdef: the R-only
QR of D and the SVD of its triangle, R = W S V^T (linalg.qr_svd_decompose),
give A = V S^2 V^T without A being formed; the partition of B = T^T T in
the basis V is B itself; the consistency test refuses a numerically
singular B (a rank-deficient T) with NoSolutionError; and the root is

    X* = V S^{-1} (S V^T B V S)^{1/2} S^{-1} V^T    (rankdef.solve_partition).

solve_qr and solve_spectral name that one computation, and return the
same X bit for bit; they differ only in the solution's method tag.  Each
refuses rank-deficient D with RankDeficiencyError before forming B.
"""

from . import linalg, model, rankdef
from .errors import RankDeficiencyError

__all__ = ["partition", "solve_qr", "solve_spectral"]


def partition(p: model.ProblemInstance, rank_tol: float | None = None) -> rankdef.BlockPartition:
    """The r = n partition of p, from one factor of D.

    Raises RankDeficiencyError when D is numerically rank deficient at
    rank_tol, before B is formed.
    """
    f = linalg.qr_svd_decompose(p.d, rank_tol)
    if f.rank < p.n:
        # A caller that keeps the refusal keeps this frame; drop the factor so
        # that kept refusals do not hold its arrays.
        del f
        raise RankDeficiencyError(
            "data matrix is numerically rank deficient; use the rank-deficient solver"
        )
    return rankdef.partition_spectral(p, factor=f)


def solve_qr(p: model.ProblemInstance, rank_tol: float | None = None) -> model.SpdSolution:
    """Solve full-rank p, tagged "qr" (the default method)."""
    return rankdef.solve_partition(p, partition(p, rank_tol), "qr")


def solve_spectral(p: model.ProblemInstance, rank_tol: float | None = None) -> model.SpdSolution:
    """Solve full-rank p, tagged "spectral"; the same X as solve_qr."""
    return rankdef.solve_partition(p, partition(p, rank_tol), "spectral")

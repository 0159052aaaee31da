"""Full-rank names over the one solve pipeline, rank(D) = n.

Full-rank data is the r = n case of the reduction in rankdef: with the
SVD R = W S V^T of D's triangle, A = V S^2 V^T is never formed, and the
root is

    X* = V S^{-1} (S V^T B V S)^{1/2} S^{-1} V^T.

solve_qr and solve_spectral return the same X bit for bit; they differ
only in the solution's method tag (see rankdef.solve).
"""

from . import model, rankdef

__all__ = ["solve_qr", "solve_spectral"]


def solve_qr(p: model.ProblemInstance, rank_tol: float | None = None) -> model.SpdSolution:
    """rankdef.solve(p, "qr"): solve full-rank p, tagged "qr"."""
    return rankdef.solve(p, "qr", rank_tol=rank_tol)


def solve_spectral(p: model.ProblemInstance, rank_tol: float | None = None) -> model.SpdSolution:
    """rankdef.solve(p, "spectral"): the same X as solve_qr, tagged "spectral"."""
    return rankdef.solve(p, "spectral", rank_tol=rank_tol)

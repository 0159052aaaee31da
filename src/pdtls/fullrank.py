"""Direct solvers for min tr(A X + X^{-1} B) over SPD X, full-rank data.

Both routes compute the unique SPD root of X A X = B:

* QR route: factor D = Q R, form R B R^T = U S~^2 U^T, then
  X* = R^{-1} U S~ U^T R^{-T}.
* Spectral route: factor A = U S^2 U^T, form S U^T B U S = U~ S~^2 U~^T,
  then X* = U S^{-1} U~ S~ U~^T S^{-1} U^T.

The QR route is the default; its solve step never uses A = D^T D.  Inverses
of R and S are applied via triangular/diagonal solves, never formed.  The
QR-route closed form, spd_root, also solves the r-by-r core of the
rank-deficient pipeline.
"""

import numpy as np

from . import linalg, model
from .errors import NotPositiveDefiniteError, RankDeficiencyError

__all__ = ["spd_root", "solve_qr", "solve_spectral"]


def spd_root(r_upper: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SPD root of X (R^T R) X = B given a nonsingular upper triangular R.

    Raises NotPositiveDefiniteError when R B R^T is not positive definite.
    """
    q_tilde = linalg.symmetrize(r_upper @ b @ r_upper.T)
    sf = linalg.spectral_decompose(q_tilde)
    if sf.eigenvalues[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            "R B R^T is not positive definite (target matrix is rank deficient)"
        )
    g = (sf.u * np.sqrt(sf.eigenvalues)) @ sf.u.T
    # X = R^{-1} G R^{-T}
    y = linalg.solve_triangular(r_upper, g, lower=False)
    x = linalg.solve_triangular(r_upper, y.T, lower=False).T
    return linalg.symmetrize(x)


def _check_ranks(p: model.ProblemInstance, rank_tol: float | None):
    n = p.n
    if linalg.numeric_rank(p.d, rank_tol) < n:
        raise RankDeficiencyError(
            "data matrix is numerically rank deficient; use the rank-deficient solver"
        )
    if linalg.numeric_rank(p.t, rank_tol) < n:
        raise NotPositiveDefiniteError(
            "target matrix is numerically rank deficient, so T^T T is singular "
            "and no SPD solution of X A X = B exists"
        )


def solve_qr(p: model.ProblemInstance, rank_tol: float | None = None) -> model.SpdSolution:
    """Solve via the QR factorization of the data matrix (default method)."""
    _check_ranks(p, rank_tol)
    qr = linalg.qr_decompose(p.d)
    g = model.gram_pair(p)
    x = spd_root(qr.leading_block, g.b)
    return model.make_solution(p, g, x, "qr")


def solve_spectral(p: model.ProblemInstance, rank_tol: float | None = None) -> model.SpdSolution:
    """Solve via the spectral decomposition of A = D^T D."""
    _check_ranks(p, rank_tol)
    g = model.gram_pair(p)
    sf = linalg.spectral_decompose(g.a)
    if sf.eigenvalues[-1] <= 0.0:
        raise RankDeficiencyError("A = D^T D is numerically singular")
    s = np.sqrt(sf.eigenvalues)
    # S U^T B U S with diagonal S applied by broadcasting
    q_tilde = linalg.symmetrize(s[:, None] * (sf.u.T @ g.b @ sf.u) * s[None, :])
    inner = linalg.spectral_decompose(q_tilde)
    if inner.eigenvalues[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            "S U^T B U S is not positive definite (target matrix is rank deficient)"
        )
    core = (inner.u * np.sqrt(inner.eigenvalues)) @ inner.u.T
    x = sf.u @ (core / s[:, None] / s[None, :]) @ sf.u.T
    return model.make_solution(p, g, x, "spectral")

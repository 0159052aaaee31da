"""Direct solvers for min tr(A X + X^{-1} B) over SPD X, full-rank data.

Both routes compute the unique SPD root of X A X = B from one factor of
D: an R-only QR, D = Q R with Q not formed, and the SVD R = W S V^T, so
that A = D^T D = V S^2 V^T without A being formed (linalg.qr_svd_decompose).
That factor also decides the rank of D; one SVD of T decides T's rank.

* QR route: form R B R^T = U S~^2 U^T, then X* = R^{-1} U S~ U^T R^{-T}
  (spd_root).
* Spectral route: form S V^T B V S = U~ S~^2 U~^T, then
  X* = V S^{-1} U~ S~ U~^T S^{-1} V^T (spd_root_diag, conjugated by V).

The QR route is the default.  Inverses of R and S are applied via
triangular/diagonal solves, never formed.  B = T^T T is formed once per
solve, and the diagnostics take it and R as the factor of A.  The spectral
route's closed form, spd_root_diag, also solves the r-by-r core of the
rank-deficient pipeline.
"""

import numpy as np

from . import linalg, model
from .errors import NotPositiveDefiniteError, RankDeficiencyError

__all__ = ["spd_root", "spd_root_diag", "solve_qr", "solve_spectral", "solve_factored"]


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


def spd_root_diag(s: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SPD root S^{-1} (S B S)^{1/2} S^{-1} of X S^2 X = B, S = diag(s), s > 0.

    Raises NotPositiveDefiniteError when S B S is not positive definite.
    """
    q_tilde = linalg.symmetrize(s[:, None] * b * s[None, :])
    inner = linalg.spectral_decompose(q_tilde)
    if inner.eigenvalues[-1] <= 0.0:
        raise NotPositiveDefiniteError(
            "S B S is not positive definite (target matrix is rank deficient)"
        )
    core = (inner.u * np.sqrt(inner.eigenvalues)) @ inner.u.T
    return core / s[:, None] / s[None, :]


def solve_qr(p: model.ProblemInstance, rank_tol: float | None = None) -> model.SpdSolution:
    """Solve via the triangular factor R of D = Q R (default method)."""
    return solve_factored(p, linalg.qr_svd_decompose(p.d, rank_tol), "qr", rank_tol)


def solve_spectral(p: model.ProblemInstance, rank_tol: float | None = None) -> model.SpdSolution:
    """Solve via the eigenpairs of A = D^T D, read from the SVD of D's R."""
    return solve_factored(p, linalg.qr_svd_decompose(p.d, rank_tol), "spectral", rank_tol)


def solve_factored(
    p: model.ProblemInstance,
    f: linalg.QrSvdFactors,
    route: str,
    rank_tol: float | None = None,
) -> model.SpdSolution:
    """Solve along ``route`` ("qr" or "spectral") from D's factor f.

    f is ``linalg.qr_svd_decompose(p.d, rank_tol)``, computed by the caller;
    rank_tol also decides T's rank.  B = T^T T is formed once and serves
    the root and the diagnostics, whose factor of A is f.r.

    Raises RankDeficiencyError when D, and NotPositiveDefiniteError when T,
    is numerically rank deficient.
    """
    if route not in ("qr", "spectral"):
        raise ValueError(f"unknown route {route!r}; expected 'qr' or 'spectral'")
    d_full = f.rank == p.n
    if not (d_full and linalg.numeric_rank(p.t, rank_tol) == p.n):
        # A caller that keeps the refusal keeps this frame; drop the factor so
        # that kept refusals do not hold its arrays.
        del f
        if not d_full:
            raise RankDeficiencyError(
                "data matrix is numerically rank deficient; use the rank-deficient solver"
            )
        raise NotPositiveDefiniteError(
            "target matrix is numerically rank deficient, so T^T T is singular "
            "and no SPD solution of X A X = B exists"
        )
    b = linalg.gram(p.t)
    if route == "qr":
        x = spd_root(f.r, b)
    else:
        x = f.v @ spd_root_diag(f.s, f.v.T @ b @ f.v) @ f.v.T
    return model.make_solution(p, f.r, b, x, route)

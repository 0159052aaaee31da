"""Reference computations the tests check the package against.

Neither is on the package's solve path: numeric_rank takes numpy's SVD of
the matrix itself, where the package decides ranks from the SVD of a
triangle, and block_residuals measures the block equations (I) and (II)
of rankdef's module docstring for a computed solution.
"""

import numpy as np

from pdtls import linalg


def numeric_rank(a, rank_tol: float | None = None) -> int:
    """Count singular values above ``rank_tol * sigma_max``, by numpy's SVD.

    ``rank_tol`` defaults to :func:`pdtls.linalg.default_rank_tol`.
    """
    a = linalg.as_matrix(a)
    if rank_tol is None:
        rank_tol = linalg.default_rank_tol(a)
    s = np.linalg.svd(a, compute_uv=False) if min(a.shape) else np.zeros(0)
    return int(np.count_nonzero(s > rank_tol * s.max(initial=0.0)))


def block_residuals(bp, x) -> tuple[float, float]:
    """Relative residuals of block equations (I) and (II) for a solution x,
    in the basis of the rankdef.BlockPartition bp.

    x is in the caller's units and is taken to those of bp's scaled pair,
    (beta / alpha) x, exactly.  (I) is measured against ||B_rr||_F, (II)
    against ||B||_F.
    """
    x = (bp.beta / bp.alpha) * linalg.as_matrix(x)
    r = bp.r
    if r == 0:
        return 0.0, 0.0
    xt = bp.basis_u.T @ x @ bp.basis_u
    x_rr = xt[:r, :r]
    x_rn = xt[:r, r:]
    s2 = bp.s**2
    norm_b = float(
        np.sqrt(
            np.linalg.norm(bp.b_rr) ** 2
            + 2.0 * np.linalg.norm(bp.b_rn) ** 2
            + np.linalg.norm(bp.b_nn) ** 2
        )
    )
    res1 = np.linalg.norm(x_rr @ (s2[:, None] * x_rr) - bp.b_rr)
    res1 = float(res1 / max(np.linalg.norm(bp.b_rr), np.finfo(float).tiny))
    if x_rn.shape[1] == 0:
        return res1, 0.0
    res2 = np.linalg.norm(x_rr @ (s2[:, None] * x_rn) - bp.b_rn)
    res2 = float(res2 / max(norm_b, np.finfo(float).tiny))
    return res1, res2

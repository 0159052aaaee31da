"""Dense real-matrix decomposition kernels.

All higher-level solvers consume these wrappers instead of calling
numpy/scipy directly, so conventions (sign of R's diagonal, eigenvalue
ordering, rank tolerances) are fixed in one place.  Every function is pure
and safe to call concurrently.

The factorizations of a solve call LAPACK directly through
scipy.linalg.lapack: dgeqrt for the triangle of a tall matrix, the drivers
numpy.linalg calls (dsyevd, dgesdd, dpotrf), dgeqp3 for a QR with column
pivoting and dtrtri for a triangular inverse, without numpy's per-call
dispatch, which costs more than the work itself at the sizes of small
fits.  The Frobenius norms of a solve call BLAS's dnrm2 through
scipy.linalg.blas, which scales as it sums: the norm is finite whenever
||a||_F itself is at most the largest float, where numpy's sqrt(a . a)
overflows once the squares pass it.  A nonzero LAPACK ``info`` raises
numpy.linalg.LinAlgError, unless the wrapper names a typed error for it.
The kernels trust their callers to pass finite float64 matrices of the
shapes they name: outside input is checked once, where it enters, by
model.ProblemInstance (m-by-n, m >= n >= 1), rankdef.CompletionChoice,
io.read_matrix, rankdef.solve (method; rank_tol in _rank_of, delta in
check_consistency) and model's error_trace, error_frobenius and
kkt_residual, and make_solution checks a solve's X.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas, lapack

from .errors import DimensionError, NotPositiveDefiniteError, SingularTriangularError

__all__ = [
    "QrSvdFactors",
    "as_matrix",
    "default_rank_tol",
    "frobenius",
    "gram",
    "qr_svd_decompose",
    "rank_revealing_qr",
    "right_singular_vectors",
    "symmetric_eigenpairs",
    "symmetric_eigenvalues",
    "singular_values",
    "cholesky",
    "symmetrize",
    "triangular_inverse",
]

_EPS = np.finfo(np.float64).eps
_HALF_MAX = 0.5 * np.finfo(np.float64).max


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.isfinite(m).all():
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return (a + a^T) / 2, finite wherever a is.

    The sum is halved, rounding once, unless an entry passes half the
    largest float, where a + a^T could overflow; there the halves are
    summed instead.  Halving first always would move subnormal entries by
    an ulp.
    """
    flat = a.ravel(order="K")
    if flat.size and abs(flat[blas.idamax(flat)]) > _HALF_MAX:
        h = 0.5 * a
        return h + h.T
    return 0.5 * (a + a.T)


def gram(a: np.ndarray) -> np.ndarray:
    """Return the Gram matrix a^T a of a tall matrix (~mn^2 flops), not
    symmetrized: no caller needs it exact (numpy's dsyrk makes it so for
    a contiguous a)."""
    return a.T @ a


def frobenius(a: np.ndarray) -> float:
    """||a||_F by BLAS's dnrm2, finite whenever ||a||_F is at most the largest float."""
    # dnrm2 rejects an empty vector.
    return float(blas.dnrm2(a.ravel(order="K"))) if a.size else 0.0


def default_rank_tol(a: np.ndarray) -> float:
    """Default relative rank tolerance: 1e-10 * max(m, n).

    The rank rule multiplies this by the largest singular value, so the
    effective absolute threshold is 1e-10 * sigma_max * max(m, n).
    """
    return 1e-10 * max(a.shape)


@dataclass(frozen=True)
class QrSvdFactors:
    """The triangle of a = Q r (Q not formed) and the SVD r = W diag(s) v^T.

    r is n-by-n upper triangular, with the diagonal signs LAPACK's dgeqrt
    leaves (a^T a = r^T r does not depend on them); s is descending and
    v (n, n) orthonormal, so a^T a = v diag(s**2) v^T without a^T a being
    formed.  rank counts s above rank_tol * s[0].
    """

    r: np.ndarray
    s: np.ndarray
    v: np.ndarray
    rank: int


def qr_svd_decompose(a: np.ndarray, rank_tol: float | None = None) -> QrSvdFactors:
    """R-only Householder QR of a (m >= n >= 1), then the SVD of its triangle.

    One factorization of a serves its rank, its singular values and the
    eigenbasis of a^T a.  The rank counts the singular values above
    ``rank_tol * s[0]`` (:func:`_rank_of`), with ``rank_tol`` defaulting to
    :func:`default_rank_tol` of a's own shape.
    """
    r = _qr_triangle(a)
    _, s, vt, info = lapack.dgesdd(r, compute_uv=1, full_matrices=0)
    _check_lapack("dgesdd", info)
    tol = default_rank_tol(a) if rank_tol is None else rank_tol
    return QrSvdFactors(r=r, s=s, v=vt.T, rank=_rank_of(s, tol))


# Column block of the recursive-panel QR, fixed as LAPACK's own NB is.
_QR_BLOCK = 32


def _qr_triangle(a: np.ndarray) -> np.ndarray:
    """The n-by-n upper triangle r of a = Q r (m >= n >= 1), Q not formed.

    LAPACK's dgeqrt: Householder QR in panels of _QR_BLOCK columns, each
    factored recursively (Elmroth & Gustavson, IBM J. Res. Dev. 44(4),
    2000) and applied to the rest as one block reflector.  dgeqrf runs
    unblocked, BLAS-2 code below its crossover min(m, n) = 128, which the
    n of tall data rarely reaches.  The diagonal signs are those LAPACK
    leaves.  r is an owned copy: a view into dgeqrt's m-by-n output would
    keep that alive for as long as r lives.
    """
    n = a.shape[1]
    qr, _, info = lapack.dgeqrt(min(n, _QR_BLOCK), a)
    _check_lapack("dgeqrt", info)
    r = qr[:n].copy()
    # Below the diagonal dgeqrt leaves its Householder vectors.
    rows = np.arange(n)
    r[rows[:, None] > rows] = 0.0
    return r


def symmetric_eigenpairs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, u): a = u diag(w) u^T for a symmetric a, w descending, by
    LAPACK's dsyevd with eigenvectors.

    Only the lower triangle of a is read, and a is not checked: the caller
    passes a finite, square float64 matrix.  w and u are contiguous copies
    of dsyevd's ascending pairs in reverse: the products a solve takes of
    reversed views round differently, and moved X by up to 2.8e-16
    relative on the benchmark's pools.
    """
    w, u, info = lapack.dsyevd(a, compute_v=1, lower=1)
    _check_lapack("dsyevd", info)
    return w[::-1].copy(), u[:, ::-1].copy()


def symmetric_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, descending, by LAPACK's dsyevd
    without eigenvectors.

    Only the lower triangle of a is read, as numpy.linalg.eigvalsh reads
    it; a is not tested for symmetry.
    """
    w, _, info = lapack.dsyevd(a, compute_v=0, lower=1)
    _check_lapack("dsyevd", info)
    return w[::-1]


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values of a non-empty matrix, descending, by LAPACK's
    dgesdd without singular vectors.

    As numpy.linalg.svd does, this takes non-finite entries: dgesdd
    refuses a NaN, which raises LinAlgError.
    """
    _, s, _, info = lapack.dgesdd(a, compute_uv=0)
    _check_lapack("dgesdd", info)
    return s


def right_singular_vectors(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s, v): the singular values of a k-by-n matrix a (k <= n), descending,
    and its full n-by-n right factor, a = W [diag(s), 0] v^T, taken as
    dgesdd's left factor of a^T: it diagonalized a^T a to 2.3e-15 relative,
    its right factor of the wide a to 4.3e-15 (99th percentiles over 800
    generated 20x6 rank-3 cases), and KKT residuals followed."""
    if not a.size:  # dgesdd rejects an empty matrix
        return np.zeros(0), np.eye(a.shape[1])
    v, s, _, info = lapack.dgesdd(a.T, compute_uv=1, full_matrices=1)
    _check_lapack("dgesdd", info)
    return s, v


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower triangular l with positive diagonal, l @ l.T = a, for an SPD matrix a.

    LAPACK's dpotrf reads the lower triangle of a; the upper triangle of l
    is zero.

    Raises
    ------
    NotPositiveDefiniteError
        If a pivot <= 0 is encountered, i.e. the input is not SPD.
    """
    l, info = lapack.dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(
            f"matrix is not positive definite: its leading minor of order {info} is not positive"
        )
    _check_lapack("dpotrf", info)
    return l


def _rank_of(s: np.ndarray, rank_tol: float) -> int:
    """Count the descending singular values s above ``rank_tol * s[0]``."""
    if not (math.isfinite(rank_tol) and rank_tol > 0.0):
        raise ValueError(f"rank_tol must be positive and finite, got {rank_tol}")
    return int(np.count_nonzero(s > rank_tol * s[0]))


def rank_revealing_qr(a: np.ndarray, rank_tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(top, piv): a[:, piv] = Q [top; ~0], Q not formed, where LAPACK's
    dgeqp3 pivots the triangle of a's R-only QR: pivoting reads only column
    norms, which Q keeps (Golub & Van Loan, Matrix Computations, 4th ed.,
    sec. 5.4).  top keeps the pivoted triangle's leading rank rows, the rank
    by :func:`qr_svd_decompose`'s rule on its singular values.
    """
    rp, jpvt, _, _, info = lapack.dgeqp3(_qr_triangle(a))
    _check_lapack("dgeqp3", info)
    rp = np.triu(rp)
    tol = default_rank_tol(a) if rank_tol is None else rank_tol
    return rp[: _rank_of(singular_values(rp), tol)], jpvt - 1


def triangular_inverse(factor: np.ndarray, lower: bool = True) -> np.ndarray:
    """The inverse of a square triangular factor, by LAPACK's dtrtri.

    Only the ``lower`` (or upper) triangle of factor is read, and only that
    triangle of the result is written; the other is copied from factor, so
    a triangular factor gives a triangular inverse.

    Raises
    ------
    SingularTriangularError
        On a numerically zero pivot: min |diag| <= k * eps * max |diag| for
        a factor of order k, which would amplify rounding by more than
        1 / (k * eps).
    """
    piv = np.abs(factor.diagonal())
    if piv.min() <= piv.size * _EPS * piv.max():
        raise SingularTriangularError("triangular factor has a numerically zero pivot")
    inv, info = lapack.dtrtri(factor, lower=int(lower))
    # The pivot rule has refused every zero pivot, dtrtri's only info > 0.
    _check_lapack("dtrtri", info)
    return inv


def _check_lapack(routine: str, info: int) -> None:
    """Raise LinAlgError on a nonzero info code of a LAPACK driver."""
    if info:
        raise np.linalg.LinAlgError(f"LAPACK {routine} failed, info={info}")


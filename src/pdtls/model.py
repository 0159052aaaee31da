"""Problem/solution data model and the error functionals.

The error of a candidate solution X for D X ~= T, with measurement error in
both D and T, is

    E(X) = tr((D X - T)^T (D - T X^{-1})),

which for SPD X equals ||D Y - T Y^{-T}||_F^2 with X = Y Y^T.  Both forms
are implemented; they agree to rounding and E >= 0 with E = 0 iff D X = T.
The stationarity condition of the reduced problem min tr(A X + X^{-1} B)
is the quadratic matrix equation X A X = B with A = D^T D and B = T^T T.

No solve forms A.  make_solution takes the route's own factor f of A
(f^T f = A) and the B the route formed, both of the pair the route scaled
(see rankdef.BlockPartition), with the solution of that pair.  It reads
E(X) in the second form, in the caller's units, from two triangular
products, one with D and one with T, the second by the inverse of X's
n-by-n Cholesky factor: the only m-row work after X is known.  The
stationarity residual is measured in the scaled units as
||(f X)^T (f X) - B||_F, which is n-sized.  error_trace is an independent
oracle for tests.
"""

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import blas, cho_solve

from . import linalg
from .errors import DimensionError, NotPositiveDefiniteError

if TYPE_CHECKING:
    from .rankdef import ConsistencyReport

__all__ = [
    "ProblemInstance",
    "SpdSolution",
    "error_trace",
    "error_frobenius",
    "kkt_residual",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A pair (d, t) of finite m-by-n data/target matrices, m >= n >= 1."""

    d: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        d = linalg.as_matrix(self.d)
        t = linalg.as_matrix(self.t)
        if d.shape != t.shape:
            raise DimensionError(f"d and t must have identical shape, got {d.shape} vs {t.shape}")
        if not d.shape[0] >= d.shape[1] >= 1:
            raise DimensionError(f"need m >= n >= 1, got shape {d.shape}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "t", t)

    @property
    def m(self) -> int:
        return self.d.shape[0]

    @property
    def n(self) -> int:
        return self.d.shape[1]


@dataclass(frozen=True)
class SpdSolution:
    """A computed SPD solution with its diagnostics.

    method_tag is one of "qr", "spectral", "rankdef_spectral", "rankdef_cod"
    (or "baseline" for the comparison solver in the bench module).
    rank is the rank of D the route solved at: the partition's r, which is
    n on the full-rank routes.  consistency is the rankdef.ConsistencyReport
    that admitted the solve, and None only on the baseline.
    """

    x: np.ndarray
    error_value: float
    kkt_residual: float
    min_eigenvalue: float
    method_tag: str
    rank: int
    consistency: "ConsistencyReport | None" = None


def _chol_lower(x, n: int) -> tuple[np.ndarray, np.ndarray]:
    # (x, l): a caller's n-by-n x checked and symmetrized, and its Cholesky factor.
    x = linalg.as_matrix(x)
    if x.shape[0] != x.shape[1]:
        raise NotPositiveDefiniteError(f"matrix is not positive definite: not square, {x.shape}")
    if x.shape[0] != n:
        raise DimensionError(f"x must be {(n, n)} for this instance, got {x.shape}")
    x = linalg.symmetrize(x)
    return x, linalg.cholesky(x)


def error_trace(p: ProblemInstance, x) -> float:
    """E(X) = tr((D X - T)^T (D - T X^{-1})) for SPD X.

    X^{-1} is never formed; T X^{-1} comes from scipy's cho_solve with the
    Cholesky factor of X, so this oracle shares no kernel with the dtrtri
    and dtrmm of make_solution's E(X).
    """
    x, l = _chol_lower(x, p.n)
    txinv = cho_solve((l, True), p.t.T).T
    return float(np.sum((p.d @ x - p.t) * (p.d - txinv)))


def _error_of_factor(p: ProblemInstance, y: np.ndarray) -> float:
    """||D Y - T Y^{-T}||_F^2 for a lower triangular Y.

    Both terms are formed transposed, n-by-m, as triangular products (half
    a general product's flops each): Y^T D^T, and Y^{-1} T^T with Y^{-1}
    from one n-by-n inversion, not a triangular solve on m columns, which
    BLAS runs several times slower for the same flops.  E is a sum of
    squares, so nothing cancels.  D^T and T^T are read in place and the
    difference is taken in the first term's storage.  A sum past the
    largest float reads inf.
    """
    res = blas.dtrmm(1.0, y, p.d.T, lower=1, trans_a=1)
    with np.errstate(over="ignore"):
        res -= blas.dtrmm(1.0, linalg.triangular_inverse(y), p.t.T, lower=1)
        v = res.ravel(order="K")
        return float(v @ v)


def error_frobenius(p: ProblemInstance, x) -> float:
    """E(X) = ||D Y - T Y^{-T}||_F^2 with Y the lower Cholesky factor of X."""
    return _error_of_factor(p, _chol_lower(x, p.n)[1])


def _stationarity_misfit(f, b, x) -> float:
    # ||x a x - b||_F with a = f^T f, x a x formed as (f x)^T (f x).
    fx = f @ x
    return linalg.frobenius(fx.T @ fx - b)


def kkt_residual(f, b, x) -> float:
    """Relative stationarity residual ||x a x - b||_F / max(1, ||b||_F), a = f^T f.

    x a x = (f x)^T (f x) is formed from the factor f, never from a, so the
    rounding of a formed a (~eps ||a||) does not enter.  Both norms are
    linalg.frobenius's, finite wherever b and the residual are.  x must
    have b's shape.
    """
    x = linalg.as_matrix(x)
    if x.shape != b.shape:
        raise DimensionError(f"x must be {b.shape}, as b is, got {x.shape}")
    return _stationarity_misfit(f, b, x) / max(1.0, linalg.frobenius(b))


def make_solution(
    p: ProblemInstance,
    f: np.ndarray,
    b: np.ndarray,
    x: np.ndarray,
    method_tag: str,
    consistency: "ConsistencyReport | None" = None,
    alpha: float = 1.0,
    beta: float = 1.0,
) -> SpdSolution:
    """Symmetrize a computed solution, validate positive definiteness, and
    attach the error value and residual diagnostics.

    f, b and x belong to the pair (alpha D, beta T), with alpha and beta
    powers of four, 1 and 1 for p itself: f is its factor of A (f^T f =
    alpha^2 D^T D, n columns), b its B = beta^2 T^T T, and x its solution.
    Neither f nor b is formed again.  The solution carries
    X = (alpha / beta) x, in p's units, with E(X) and the min eigenvalue
    of that X, and the KKT residual of kkt_residual in p's units, read as
    ||x f^T f x - b||_F / max(beta^2, ||b||_F), which equals it and does
    not overflow.  consistency is the report that admitted the solve,
    whose rank the solution carries; the rank is n without one.

    Raises ValueError when X is outside the float range: an entry
    overflows, or a diagonal entry underflows past the smallest normal
    float.
    """
    x_s = linalg.symmetrize(linalg.as_matrix(x))
    shift = math.frexp(alpha)[1] - math.frexp(beta)[1]  # alpha / beta = 2**shift
    with np.errstate(over="ignore"):
        x = np.ldexp(x_s, shift)
    if shift and not (np.isfinite(x).all() and x.diagonal().min() >= sys.float_info.min):
        raise ValueError(f"the solution X = 2**{shift} x is outside the float range")
    min_eig = float(linalg.symmetric_eigenvalues(x).min())
    if min_eig <= 0.0:
        raise NotPositiveDefiniteError(
            f"computed solution has min eigenvalue {min_eig:.3e} <= 0"
        )
    return SpdSolution(
        x=x,
        error_value=_error_of_factor(p, linalg.cholesky(x)),
        kkt_residual=_stationarity_misfit(f, b, x_s) / max(beta * beta, linalg.frobenius(b)),
        min_eigenvalue=min_eig,
        method_tag=method_tag,
        rank=p.n if consistency is None else consistency.rank,
        consistency=consistency,
    )

"""Problem/solution data model and the error functionals.

The error of a candidate solution X for D X ~= T, with measurement error in
both D and T, is

    E(X) = tr((D X - T)^T (D - T X^{-1})),

which for SPD X equals ||D Y - T Y^{-T}||_F^2 with X = Y Y^T.  Both forms
are implemented; they agree to rounding and E >= 0 with E = 0 iff D X = T.
The stationarity condition of the reduced problem min tr(A X + X^{-1} B)
is the quadratic matrix equation X A X = B with A = D^T D and B = T^T T.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import DimensionError, NotPositiveDefiniteError

if TYPE_CHECKING:
    from .rankdef import ConsistencyReport

__all__ = [
    "ProblemInstance",
    "GramPair",
    "SpdSolution",
    "gram_pair",
    "error_trace",
    "error_frobenius",
    "kkt_residual",
]


@dataclass(frozen=True)
class ProblemInstance:
    """A pair (d, t) of m-by-n data/target matrices, m >= n."""

    d: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        d = linalg.as_matrix(self.d)
        t = linalg.as_matrix(self.t)
        if d.shape != t.shape:
            raise DimensionError(f"d and t must have identical shape, got {d.shape} vs {t.shape}")
        if d.shape[0] < d.shape[1]:
            raise DimensionError(f"need m >= n, got {d.shape}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "t", t)

    @property
    def m(self) -> int:
        return self.d.shape[0]

    @property
    def n(self) -> int:
        return self.d.shape[1]


@dataclass(frozen=True)
class GramPair:
    """a = d^T d and b = t^T t, the inputs of the reduced trace problem."""

    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True)
class SpdSolution:
    """A computed SPD solution with its diagnostics.

    method_tag is one of "qr", "spectral", "rankdef_spectral", "rankdef_cod"
    (or "baseline" for the comparison solver in the bench module).
    consistency is the rankdef.ConsistencyReport that admitted a
    rank-deficient solve, and None on the other routes.
    """

    x: np.ndarray
    error_value: float
    kkt_residual: float
    min_eigenvalue: float
    method_tag: str
    consistency: "ConsistencyReport | None" = None


def gram_pair(p: ProblemInstance) -> GramPair:
    """Form the Gram matrices a = d^T d, b = t^T t (symmetrized)."""
    return GramPair(
        a=linalg.symmetrize(p.d.T @ p.d),
        b=linalg.symmetrize(p.t.T @ p.t),
    )


def _chol_lower(x) -> np.ndarray:
    # SPD check and factor in one step; raises NotPositiveDefiniteError.
    return linalg.cholesky(linalg.symmetrize(linalg.as_matrix(x)))


def error_trace(p: ProblemInstance, x) -> float:
    """E(X) = tr((D X - T)^T (D - T X^{-1})) for SPD X.

    X^{-1} is never formed; T X^{-1} is applied through triangular solves
    with the Cholesky factor of X.
    """
    l = _chol_lower(x)
    x = linalg.symmetrize(linalg.as_matrix(x))
    # t @ x^{-1} = (l^{-T} l^{-1} t^T)^T
    w = linalg.solve_triangular(l, p.t.T, lower=True)
    txinv = linalg.solve_triangular(l, w, lower=True, trans=True).T
    return float(np.sum((p.d @ x - p.t) * (p.d - txinv)))


def error_frobenius(p: ProblemInstance, x) -> float:
    """E(X) = ||D Y - T Y^{-T}||_F^2 with Y the lower Cholesky factor of X."""
    y = _chol_lower(x)
    # t @ y^{-T} = (y^{-1} t^T)^T
    tyinvt = linalg.solve_triangular(y, p.t.T, lower=True).T
    return float(np.linalg.norm(p.d @ y - tyinvt) ** 2)


def kkt_residual(g: GramPair, x) -> float:
    """Relative stationarity residual ||x a x - b||_F / max(1, ||b||_F)."""
    x = linalg.as_matrix(x)
    res = x @ g.a @ x - g.b
    return float(np.linalg.norm(res) / max(1.0, np.linalg.norm(g.b)))


def make_solution(p: ProblemInstance, g: GramPair, x: np.ndarray, method_tag: str) -> SpdSolution:
    """Symmetrize a computed solution, validate positive definiteness, and
    attach the error value and residual diagnostics.

    g is the Gram pair of p that the solver already formed.
    """
    x = linalg.symmetrize(linalg.as_matrix(x))
    min_eig = float(np.linalg.eigvalsh(x).min())
    if min_eig <= 0.0:
        raise NotPositiveDefiniteError(
            f"computed solution has min eigenvalue {min_eig:.3e} <= 0"
        )
    return SpdSolution(
        x=x,
        error_value=error_trace(p, x),
        kkt_residual=kkt_residual(g, x),
        min_eigenvalue=min_eig,
        method_tag=method_tag,
    )

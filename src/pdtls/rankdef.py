"""The solution pipeline for data of any rank r = rank(D) <= n.

In an orthonormal basis U whose first r columns span the row space of D,
the stationarity equation X A X = B splits into blocks of
Xt = U^T X U and Bt = U^T B U:

    (I)   Xt_rr S^2 Xt_rr = Bt_rr
    (II)  Xt_rr S^2 Xt_rn = Bt_rn
    (III) Xt_nr S^2 Xt_rn = Bt_nn

with S^2 the diagonal of positive eigenvalues of A.  One eigendecomposition
of the r-by-r core, S Bt_rr S = W diag(lam) W^T, serves all three
(BlockPartition.core).  With G = W^T S Bt_rn, (III) is solvable only when
the Schur complement Bt_nn - Bt_rn^T Bt_rr^{-1} Bt_rn = Bt_nn - G^T
diag(lam)^{-1} G vanishes, which is tested against a threshold delta
before solving.  The trailing diagonal block of Xt is free: any
nonsingular lower triangular L_free completes the solution of (I) and
(II) to an SPD Xt = Yt Yt^T, with

    Yt = [[S^{-1} W diag(lam)^{1/4},  0     ],
          [G^T diag(lam)^{-3/4},      L_free]],

whose leading block gives Xt_rr = S^{-1} (S Bt_rr S)^{1/2} S^{-1}, the
full-rank closed form.  Full-rank data is the case r = n: (II) and (III)
are empty, the complement is 0-by-0, and the test refuses only a
numerically singular B (a rank-deficient T).

partition_spectral and partition_cod build the basis U from the
triangle R of D = Q R, neither forming A, and solve picks one by method.
Each partition scales the data once, to the pair (alpha D, beta T) with
alpha and beta powers of four that bring D's largest singular value and
T's largest entry near one, and solves that pair: X(alpha D, beta T) =
(beta / alpha) X(D, T), and scaling by a power of two is exact barring
under- and overflow (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, ch. 2), which data of order one do not meet.
Each partition forms the scaled B = T^T T once and keeps it, with its
factor of A, for the consistency threshold and the solution's
diagnostics, which are read back in the caller's units.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from . import linalg, model
from .errors import DimensionError, NoSolutionError, NotPositiveDefiniteError, RankDeficiencyError

__all__ = [
    "METHODS",
    "BlockPartition",
    "ConsistencyReport",
    "CompletionChoice",
    "default_delta",
    "partition_spectral",
    "partition_cod",
    "check_consistency",
    "solve",
    "solve_rankdef",
    "solve_partition",
]


@dataclass(frozen=True)
class BlockPartition:
    """Rank-r block view of B in a basis aligned with the row space of D,
    for the scaled pair (alpha D, beta T).

    alpha is the power of four nearest 1 / s_1, s_1 the largest singular
    value of D (1 at rank 0), and beta the one nearest 1 / max|T| (1 at
    T = 0), so that every block is of order one whatever the caller's
    units.  The blocks, b, s and factor all belong to the scaled pair:
    basis_u is n-by-n orthonormal; its first r columns span the row space
    of D and diagonalize the nonzero part of alpha^2 A with eigenvalues
    s**2.  b_rr, b_rn, b_nn are the blocks of basis_u^T B basis_u.  b is
    B = (beta T)^T (beta T) itself, and factor is the partition's factor
    of alpha^2 A (factor^T factor = alpha^2 A, n columns).  core holds the
    eigenpairs of the r-by-r core, taken on first use, which the
    consistency test and the solve share.
    """

    r: int
    b_rr: np.ndarray
    b_rn: np.ndarray
    b_nn: np.ndarray
    s: np.ndarray
    basis_u: np.ndarray
    b: np.ndarray
    factor: np.ndarray
    alpha: float = 1.0
    beta: float = 1.0

    @functools.cached_property
    def core(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(lam, w, g): S B_rr S = w diag(lam) w^T with lam descending,
        S = diag(s), and g = w^T S B_rn.

        Taken lazily, so that check_consistency's singularity rule decides
        first.
        """
        core = self.s[:, None] * self.b_rr * self.s[None, :]
        lam, w = linalg.symmetric_eigenpairs(linalg.symmetrize(core))
        return lam, w, w.T @ (self.s[:, None] * self.b_rn)


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the solvability test of an instance.

    rank is the rank r of D at which the partition was tested.  At r = n,
    f_norm is 0 and b_rr_condition is the condition number of B.
    """

    f_norm: float
    delta: float
    consistent: bool
    b_rr_condition: float
    rank: int


@dataclass(frozen=True)
class CompletionChoice:
    """The free trailing factor L_free, an (n-r)-square nonsingular lower
    triangular matrix parameterizing the family of SPD solutions."""

    l_free: np.ndarray

    def __post_init__(self):
        l = linalg.as_matrix(self.l_free)
        if l.shape[0] != l.shape[1]:
            raise DimensionError(f"l_free must be square, got {l.shape}")
        if not np.array_equal(l, np.tril(l)):
            raise ValueError("l_free must be lower triangular")
        if l.size and np.any(np.diag(l) == 0.0):
            raise ValueError("l_free must have a nonzero diagonal")
        object.__setattr__(self, "l_free", l)

    @classmethod
    def identity(cls, size: int) -> "CompletionChoice":
        return cls(l_free=np.eye(size))


def default_delta(b: np.ndarray) -> float:
    """Default consistency threshold 1e-8 * ||B||_F, relative to B alone,
    so that no verdict depends on the units of D or T.

    check_consistency applies it to the partition's scaled B, whose norm
    is of order one.  The threshold is never below the smallest positive
    normal float, which is its value on B = 0: there it admits f_norm = 0
    alone, so T = 0 is consistent only when D = 0 too (rank 0, where every
    SPD X fits exactly and X = L_free L_free^T).
    """
    return max(1e-8 * linalg.frobenius(b), sys.float_info.min)


def _power_of_four_near_inverse(x: float) -> float:
    """The power of four nearest 1 / x for x > 0, and 1.0 at x = 0, within
    4**-511 and 4**511, the normal floats' range."""
    k = round(min(max(-0.5 * math.log2(x), -511), 511)) if x else 0
    return math.ldexp(1.0, 2 * k)


def _blocks(
    basis_u: np.ndarray, t: np.ndarray, r: int, s: np.ndarray, factor: np.ndarray
) -> BlockPartition:
    # s holds D's r largest singular values, descending.
    alpha = _power_of_four_near_inverse(s[0] if r else 0.0)
    flat = t.ravel(order="K")
    beta = _power_of_four_near_inverse(abs(flat[blas.idamax(flat)]))
    b = linalg.gram(beta * t)
    bt = basis_u.T @ b @ basis_u
    return BlockPartition(
        r=r,
        b_rr=linalg.symmetrize(bt[:r, :r]),
        b_rn=bt[:r, r:].copy(),
        b_nn=linalg.symmetrize(bt[r:, r:]),
        s=alpha * s,
        basis_u=basis_u,
        b=b,
        factor=alpha * factor,
        alpha=alpha,
        beta=beta,
    )


def partition_spectral(p: model.ProblemInstance, rank_tol: float | None = None) -> BlockPartition:
    """Build the block partition from the eigenpairs of A = D^T D.

    They are read from the SVD of D's triangular factor,
    A = V diag(s**2) V^T, and the same singular values decide the rank.
    D's triangle is the factor of A.
    """
    f = linalg.qr_svd_decompose(p.d, rank_tol)
    return _blocks(f.v, p.t, f.rank, f.s[: f.rank], f.r)


def partition_cod(p: model.ProblemInstance, rank_tol: float | None = None) -> BlockPartition:
    """Build the block partition from a QR with column pivoting of D.

    D P = Q [R_r; ~0] (linalg.rank_revealing_qr), and the SVD of the r-by-n
    R_r = W diag(s) V^T gives the basis P V, in which A = F^T F with
    F = R_r P^T, the partition's factor, is diagonal: the same contract as
    partition_spectral.
    """
    top, piv = linalg.rank_revealing_qr(p.d, rank_tol)
    s, v = linalg.right_singular_vectors(top)
    basis, factor = np.empty_like(v), np.empty_like(top)
    basis[piv], factor[:, piv] = v, top
    return _blocks(basis, p.t, top.shape[0], s, factor)


def check_consistency(bp: BlockPartition, delta: float | None = None) -> ConsistencyReport:
    """Threshold test for existence of an SPD solution, read from the partition.

    (III) is solvable iff the Schur complement of B_rr in Bt vanishes, so
    this measures f_norm = ||B_nn - B_rn^T B_rr^{-1} B_rn||_F, read from the
    partition's core eigenpairs as ||B_nn - g^T diag(lam)^{-1} g||_F by
    linalg.frobenius, and flags the instance consistent iff f_norm < delta.
    The test runs in the partition's scaled units, where the default delta
    is default_delta(bp.b) and a caller's delta is multiplied by beta
    twice; the report gives f_norm and delta in the caller's units, where
    a value past the float range reads inf or 0.0 and the verdict stands.
    At r = 0 the complement is B_nn itself, f_norm = ||B||_F and
    b_rr_condition is 1.0; at r = n it is empty, f_norm = 0 and
    b_rr_condition is cond(B).  A numerically singular leading block B_rr,
    at any rank r >= 1, means the data cannot support an SPD solution:
    reported inconsistent with f_norm and b_rr_condition both inf, before
    the core is decomposed.  Raises ValueError unless delta is positive
    and finite, and numpy.linalg.LinAlgError when LAPACK cannot take the
    singular values of B_rr (a NaN in it), or the measured f_norm is Inf or
    NaN (a core eigenvalue underflowed): a failed computation, not a
    verdict.
    """
    beta = bp.beta
    if delta is None:
        scaled_delta = default_delta(bp.b)
        delta = scaled_delta / beta / beta
    elif math.isfinite(delta) and delta > 0.0:
        # A delta that underflows in scaled units still admits f_norm = 0.
        scaled_delta = max(delta * beta * beta, math.ulp(0.0))
    else:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    r = bp.r
    schur = bp.b_nn
    cond = 1.0
    if r:
        sv = linalg.singular_values(bp.b_rr)
        if sv[-1] <= r * np.finfo(float).eps * sv[0]:
            return ConsistencyReport(
                f_norm=float("inf"), delta=delta, consistent=False,
                b_rr_condition=float("inf"), rank=r,
            )
        cond = float(sv[0] / sv[-1])
    if r and schur.size:
        # A core eigenvalue that underflowed to 0 gives a non-finite
        # f_norm, refused below.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam, _, g = bp.core
            schur = schur - g.T @ (g / lam[:, None])
    f_norm = linalg.frobenius(schur)
    if not math.isfinite(f_norm):
        raise np.linalg.LinAlgError(
            f"consistency misfit f_norm={f_norm} is not finite: the data under- or overflowed"
        )
    return ConsistencyReport(f_norm=f_norm / beta / beta, delta=delta,
                             consistent=bool(f_norm < scaled_delta), b_rr_condition=cond, rank=r)


METHODS = ("auto", "qr", "spectral", "rankdef_spectral", "rankdef_cod")


def solve(
    p: model.ProblemInstance,
    method: str = "auto",
    *,
    rank_tol: float | None = None,
    delta: float | None = None,
    choice: CompletionChoice | None = None,
) -> model.SpdSolution:
    """Solve p along ``method``, one of METHODS (a "-" may stand for "_").

    Every method factors D once.  "rankdef_cod" partitions B = T^T T in the
    basis of partition_cod; the others in that of partition_spectral, at
    D's numeric rank r.  "qr" and "spectral" name one computation at r = n:
    they refuse rank-deficient D with RankDeficiencyError, before B is
    formed.  "rankdef_spectral" and "rankdef_cod" solve at any rank r.
    "auto" runs "rankdef_spectral" and tags its solution "qr" when r = n.

    rank_tol is the relative rank tolerance of D; delta is the consistency
    threshold, default_delta(B) when omitted; choice is the trailing free
    factor, sqrt(||T||_F / ||D||_F) times the identity of size n - r when
    omitted, so that scaling D by a and T by b scales X by b / a at every
    rank.  The solve runs on the partition's scaled pair (alpha D, beta T)
    (see BlockPartition), so finite data of any magnitude neither over-
    nor underflow B; X, its diagnostics and the report are in the
    caller's units.

    Returns the solution, whose ``rank`` is the r it was solved at and whose
    ``consistency`` is the ConsistencyReport that admitted it.

    Raises
    ------
    NoSolutionError
        If the consistency test fails, including when B_rr is numerically
        singular, at any rank; ``exc.report`` holds the report and
        ``exc.method_tag`` the tag the solution would have carried.
    NotPositiveDefiniteError
        If the leading block B_rr is not SPD.
    ValueError
        If X in the caller's units is outside the float range, or,
        numpy.linalg.LinAlgError among them, if a core eigenvalue
        underflows, so that the consistency test cannot measure its misfit.
    """
    method = method.replace("-", "_")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    # The partition is passed on, not kept here: a caller that keeps a
    # refusal keeps this frame.
    return solve_partition(p, _partition(p, method, rank_tol), method, choice, delta)


def _partition(p: model.ProblemInstance, method: str, rank_tol: float | None) -> BlockPartition:
    if method == "rankdef_cod":
        return partition_cod(p, rank_tol)
    if method in ("auto", "rankdef_spectral"):
        return partition_spectral(p, rank_tol)
    # "qr" and "spectral": partition_spectral's steps, with the refusal
    # between the factor of D and the forming of B.
    f = linalg.qr_svd_decompose(p.d, rank_tol)
    if f.rank < p.n:
        # A caller that keeps the refusal keeps this frame; drop the factor so
        # that kept refusals do not hold its arrays.
        del f
        raise RankDeficiencyError(
            "data matrix is numerically rank deficient; use the rank-deficient solver"
        )
    return _blocks(f.v, p.t, p.n, f.s, f.r)


def solve_rankdef(
    p: model.ProblemInstance,
    route: str = "spectral",
    choice: CompletionChoice | None = None,
    delta: float | None = None,
    rank_tol: float | None = None,
) -> model.SpdSolution:
    """solve(p, "rankdef_" + route, ...) with route "spectral" or "cod"."""
    return solve(p, "rankdef_" + route, rank_tol=rank_tol, delta=delta, choice=choice)


def _default_free_factor(bp: BlockPartition, n: int) -> np.ndarray:
    """L_free = sqrt(c) I of order n - r, with c = ||T||_F / ||D||_F of
    the partition's scaled pair, so that the free block carries the data's
    units and X(aD, bT) = (b/a) X below full rank as at r = n.

    ||T||_F is taken from B's diagonal, the squared column norms of T, and
    ||D||_F from the partition's factor of A.  c is 1 at rank 0, where
    D = 0, and is not computed at r = n, where the block is empty.
    """
    c = 1.0
    if 0 < bp.r < n:
        c = linalg.frobenius(np.sqrt(bp.b.diagonal())) / linalg.frobenius(bp.factor)
    return math.sqrt(c) * np.eye(n - bp.r)


def solve_partition(
    p: model.ProblemInstance,
    bp: BlockPartition,
    method_tag: str,
    choice: CompletionChoice | None = None,
    delta: float | None = None,
) -> model.SpdSolution:
    """Solve p from its partition bp along method_tag, one of METHODS.

    The solution carries method_tag, or under "auto" "qr" at r = n and
    "rankdef_spectral" below.  bp's B sets the default delta and, with its
    factor of A, the solution's diagnostics.  choice, delta, the return
    value and the refusals are as in solve; at r = n the trailing block is
    empty and the solution is the unique minimizer.  A caller's L_free is
    taken to the scaled pair by sqrt(beta / alpha), a power of two.
    """
    if method_tag == "auto":
        method_tag = "qr" if bp.r == p.n else "rankdef_spectral"
    report = check_consistency(bp, delta)
    if not report.consistent:
        # A caller that keeps the refusal keeps this frame; drop the
        # partition so that kept refusals do not hold it.
        del bp
        raise NoSolutionError(
            f"inconsistent instance: f_norm={report.f_norm:.3e} >= delta={report.delta:.3e}",
            report=report,
            method_tag=method_tag,
        )
    n = p.n
    r = bp.r
    root = math.sqrt(bp.beta) / math.sqrt(bp.alpha)  # sqrt(beta / alpha), a power of two
    l_free = _default_free_factor(bp, n) if choice is None else root * choice.l_free
    if l_free.shape[0] != n - r:
        raise DimensionError(
            f"l_free must be {n - r}x{n - r} for this instance, got {l_free.shape}"
        )
    # X = U Yt Yt^T U^T with Yt block lower triangular; see the module docstring.
    yt = l_free
    if r:
        lam, w, g = bp.core
        if lam[-1] <= 0.0:
            raise NotPositiveDefiniteError(
                "S B S is not positive definite (target matrix is rank deficient)"
            )
        yt = np.zeros((n, n))
        yt[:r, :r] = w * lam**0.25 / bp.s[:, None]
        if n > r:
            yt[r:, :r] = g.T * lam**-0.75
            yt[r:, r:] = l_free
    y = bp.basis_u @ yt
    return model.make_solution(p, bp.factor, bp.b, y @ y.T, method_tag, report, bp.alpha, bp.beta)

"""Solution pipeline for rank-deficient data, rank(D) = r < n.

In an orthonormal basis U whose first r columns span the row space of D,
the stationarity equation X A X = B splits into blocks of
Xt = U^T X U and Bt = U^T B U:

    (I)   Xt_rr S^2 Xt_rr = Bt_rr
    (II)  Xt_rr S^2 Xt_rn = Bt_rn
    (III) Xt_nr S^2 Xt_rn = Bt_nn

with S^2 the diagonal of positive eigenvalues of A.  (I) is an r-by-r
full-rank instance of the same problem, solved by the QR-route closed form
with R = S (fullrank.spd_root); (II) is a nonsingular linear
system; (III) holds only when the data is consistent, which is tested
against a threshold delta before solving.  The trailing diagonal block of
Xt is free: any nonsingular lower triangular L_free yields an SPD
completion via the block Cholesky identities

    Xt_rr = L_rr L_rr^T,  Xt_rn = L_rr L_nr^T,
    Xt_nn = L_nr L_nr^T + L_free L_free^T.

Two routes build the basis U: the spectral decomposition of A = D^T D, or
the complete orthogonal decomposition of D itself.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import fullrank, linalg, model
from .errors import DimensionError, NoSolutionError, RankDeficiencyError

__all__ = [
    "BlockPartition",
    "ConsistencyReport",
    "CompletionChoice",
    "default_delta",
    "partition_spectral",
    "partition_cod",
    "check_consistency",
    "solve_rankdef",
    "block_residuals",
]


@dataclass(frozen=True)
class BlockPartition:
    """Rank-r block view of B in a basis aligned with the row space of D.

    basis_u is n-by-n orthonormal; its first r columns span the row space
    of D and diagonalize the nonzero part of A with eigenvalues s**2.
    b_rr, b_rn, b_nn are the blocks of basis_u^T B basis_u.
    """

    r: int
    b_rr: np.ndarray
    b_rn: np.ndarray
    b_nn: np.ndarray
    s: np.ndarray
    basis_u: np.ndarray


@dataclass(frozen=True)
class ConsistencyReport:
    """Outcome of the solvability test for a rank-deficient instance."""

    f_norm: float
    delta: float
    consistent: bool
    b_rr_condition: float


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


def default_delta(b) -> float:
    """Default consistency threshold 1e-8 * max(1, ||B||_F)."""
    return 1e-8 * max(1.0, float(np.linalg.norm(np.asarray(b))))


def _blocks(basis_u: np.ndarray, b: np.ndarray, r: int, s: np.ndarray) -> BlockPartition:
    bt = basis_u.T @ b @ basis_u
    return BlockPartition(
        r=r,
        b_rr=linalg.symmetrize(bt[:r, :r]),
        b_rn=bt[:r, r:].copy(),
        b_nn=linalg.symmetrize(bt[r:, r:]),
        s=s,
        basis_u=basis_u,
    )


def partition_spectral(p: model.ProblemInstance, rank_tol: float | None = None) -> BlockPartition:
    """Build the block partition from the spectral decomposition of A = D^T D."""
    g = model.gram_pair(p)
    sf = linalg.spectral_decompose(g.a)
    r = linalg.numeric_rank(p.d, rank_tol)
    lead = sf.eigenvalues[:r]
    if r and lead[-1] <= 0.0:
        raise RankDeficiencyError(
            "eigenvalues of D^T D are not resolvable at this rank; increase rank_tol"
        )
    return _blocks(sf.u, g.b, r, np.sqrt(lead))


def partition_cod(p: model.ProblemInstance, rank_tol: float | None = None) -> BlockPartition:
    """Build the block partition from the complete orthogonal decomposition of D.

    The leading basis columns are V_r rotated so that the nonzero block of
    A becomes diagonal, giving the same contract as partition_spectral.
    """
    cod = linalg.complete_orthogonal_decompose(p.d, rank_tol)
    r = cod.rank
    basis = cod.v.copy()
    if r:
        rtr = linalg.symmetrize(cod.r_block.T @ cod.r_block)
        sf = linalg.spectral_decompose(rtr)
        if sf.eigenvalues[-1] <= 0.0:
            raise RankDeficiencyError(
                "triangular COD block is not resolvable at this rank; increase rank_tol"
            )
        basis[:, :r] = basis[:, :r] @ sf.u
        s = np.sqrt(sf.eigenvalues)
    else:
        s = np.zeros(0)
    b = linalg.symmetrize(p.t.T @ p.t)
    return _blocks(basis, b, r, s)


def check_consistency(bp: BlockPartition, b, delta: float) -> ConsistencyReport:
    """Threshold test for existence of an SPD solution.

    Measures f_norm = ||U_nr^T (B U_r (U_r^T B U_r)^{-1} U_r^T B - B)||_F and
    flags the instance consistent iff f_norm < delta.  A singular (or
    numerically singular) leading block B_rr means the data cannot support
    an SPD solution: reported inconsistent with f_norm and condition inf.
    """
    b = linalg.symmetrize(linalg.as_matrix(b))
    n = bp.basis_u.shape[0]
    r = bp.r
    if r == n:
        # No trailing block: nothing to test, f_norm = 0 by convention.
        cond = _spd_condition(bp.b_rr)
        return ConsistencyReport(f_norm=0.0, delta=delta, consistent=True, b_rr_condition=cond)
    if r == 0:
        f_norm = float(np.linalg.norm(b))
        return ConsistencyReport(
            f_norm=f_norm, delta=delta, consistent=bool(f_norm < delta), b_rr_condition=1.0
        )
    sv = np.linalg.svd(bp.b_rr, compute_uv=False)
    if sv[-1] <= r * np.finfo(float).eps * sv[0] or sv[0] == 0.0:
        return ConsistencyReport(
            f_norm=float("inf"), delta=delta, consistent=False, b_rr_condition=float("inf")
        )
    u_r = bp.basis_u[:, :r]
    u_nr = bp.basis_u[:, r:]
    k = b @ u_r  # n-by-r
    m = k @ np.linalg.solve(bp.b_rr, k.T) - b
    f_norm = float(np.linalg.norm(u_nr.T @ m))
    return ConsistencyReport(
        f_norm=f_norm,
        delta=delta,
        consistent=bool(f_norm < delta),
        b_rr_condition=float(sv[0] / sv[-1]),
    )


def _spd_condition(b_rr: np.ndarray) -> float:
    if b_rr.size == 0:
        return 1.0
    sv = np.linalg.svd(b_rr, compute_uv=False)
    return float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])


def solve_rankdef(
    p: model.ProblemInstance,
    route: str = "spectral",
    choice: CompletionChoice | None = None,
    delta: float | None = None,
    rank_tol: float | None = None,
) -> model.SpdSolution:
    """Solve the rank-deficient problem along the given route.

    Parameters
    ----------
    route : "spectral" or "cod".
    choice : trailing free factor; identity of size n - r when omitted.
    delta : consistency threshold; defaults to 1e-8 * max(1, ||B||_F).
    rank_tol : relative rank tolerance passed to the partition step.

    Returns the solution with the ConsistencyReport that admitted it in
    its ``consistency`` field.

    Raises
    ------
    NoSolutionError
        If the consistency test fails (report attached to the exception).
    NotPositiveDefiniteError
        If the leading block B_rr is not SPD.
    """
    if route == "spectral":
        bp = partition_spectral(p, rank_tol)
    elif route == "cod":
        bp = partition_cod(p, rank_tol)
    else:
        raise ValueError(f"unknown route {route!r}; expected 'spectral' or 'cod'")
    g = model.gram_pair(p)
    if delta is None:
        delta = default_delta(g.b)
    report = check_consistency(bp, g.b, delta)
    if not report.consistent:
        raise NoSolutionError(
            f"inconsistent instance: f_norm={report.f_norm:.3e} >= delta={delta:.3e}",
            report=report,
        )
    n = p.n
    r = bp.r
    if choice is None:
        choice = CompletionChoice.identity(n - r)
    if choice.l_free.shape[0] != n - r:
        raise DimensionError(
            f"l_free must be {n - r}x{n - r} for this instance, got {choice.l_free.shape}"
        )
    xt = np.zeros((n, n))
    if r:
        x_rr = fullrank.spd_root(np.diag(bp.s), bp.b_rr)
        l_rr = linalg.cholesky(x_rr).l
        xt[:r, :r] = x_rr
        if n > r:
            # (II): Xt_rr (S^2 Xt_rn) = Bt_rn via two triangular solves,
            # then undo the diagonal scaling.
            w = linalg.solve_triangular(l_rr, bp.b_rn, lower=True)
            z = linalg.solve_triangular(l_rr, w, lower=True, trans=True)
            x_rn = z / (bp.s**2)[:, None]
            # Block Cholesky completion: L_nr^T from Xt_rn = L_rr L_nr^T.
            l_nr_t = linalg.solve_triangular(l_rr, x_rn, lower=True)
            xt[:r, r:] = x_rn
            xt[r:, :r] = x_rn.T
            xt[r:, r:] = l_nr_t.T @ l_nr_t + choice.l_free @ choice.l_free.T
    else:
        xt[:, :] = choice.l_free @ choice.l_free.T
    x = bp.basis_u @ xt @ bp.basis_u.T
    tag = "rankdef_spectral" if route == "spectral" else "rankdef_cod"
    return replace(model.make_solution(p, g, x, tag), consistency=report)


def block_residuals(bp: BlockPartition, x) -> tuple[float, float]:
    """Relative residuals of block equations (I) and (II) for a solution x.

    (I) is measured against ||B_rr||_F, (II) against ||B||_F.
    """
    x = linalg.as_matrix(x)
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

"""Forward error of pdtls.solve against an independent 50-digit oracle.

The oracle is the matrix geometric mean of A^{-1} and B (Bhatia, Positive
Definite Matrices, 2007, ch. 4), the unique SPD root of X A X = B:

    X = A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2},  A = D^T D,  B = T^T T,

formed from D and T in mpmath at 50 digits, each square root from the
eigenpairs of mp.eigsy (mp.sqrtm does not converge at cond(A) = 1e5).

For D of rank r < n the oracle takes the same block split as the solver,
from the eigenpairs of A = D^T D: the r leading eigenvectors V_r span the
row space, with A = V_r diag(a_r) V_r^T, and the rest V_n its complement.
In that basis the core X_rr is the geometric mean above with A_r =
diag(a_r), X_rn = A_r^{-1} X_rr^{-1} B_rn, and X_nn = X_rn^T X_rr^{-1}
X_rn + I, the completion with L_free = I.  That X does not depend on the
choice of V_n.
"""

import mpmath
import numpy as np
import pytest

import pdtls
from pdtls import generate, model, rankdef

DIGITS = 50

# Relative forward-error bound per cond(D): ten times the largest error
# pdtls.solve showed on these cases when the oracle was introduced (1.10e-10
# at 1e3 and 9.41e-7 at 1e5, over seeds 0-1, noise-free and noisy).
BOUND = {1e3: 1.1e-9, 1e5: 9.4e-6}
# The same rule for consistent 200x12 data of rank 7 with eig(A) from 1
# down to 1/cond: 1.79e-15 at 1e3 and 1.91e-15 at 1e5, over seeds 0-1,
# before the solve read the core from one eigendecomposition.
RANKDEF_BOUND = {1e3: 1.8e-14, 1e5: 1.9e-14}


def _sqrt_pair(a):
    """A^{1/2} and A^{-1/2} of an SPD mpmath matrix, from its eigenpairs."""
    w, q = mpmath.eigsy(a)
    n = a.rows
    half, inv_half = mpmath.zeros(n, n), mpmath.zeros(n, n)
    for i in range(n):
        assert w[i] > 0
        half[i, i] = mpmath.sqrt(w[i])
        inv_half[i, i] = 1 / half[i, i]
    return q * half * q.T, q * inv_half * q.T


def oracle_root(d, t):
    """The SPD solution of X A X = B for data d and target t, at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        dm, tm = mpmath.matrix(d.tolist()), mpmath.matrix(t.tolist())
        a_half, a_inv_half = _sqrt_pair(dm.T * dm)
        core, _ = _sqrt_pair(a_half * (tm.T * tm) * a_half)
        x = a_inv_half * core * a_inv_half
        return np.array(x.tolist(), dtype=np.float64)


def oracle_rankdef_root(d, t, r):
    """The SPD solution with L_free = I of X A X = B at rank r, at DIGITS digits."""
    with mpmath.workdps(DIGITS):
        dm, tm = mpmath.matrix(d.tolist()), mpmath.matrix(t.tolist())
        w, q = mpmath.eigsy(dm.T * dm)
        n = dm.cols
        order = sorted(range(n), key=lambda i: -w[i])
        v = mpmath.matrix(n, n)
        for j, i in enumerate(order):
            v[:, j] = q[:, i]
        a_half, a_inv_half = mpmath.zeros(r, r), mpmath.zeros(r, r)
        for j in range(r):
            a_half[j, j] = mpmath.sqrt(w[order[j]])
            a_inv_half[j, j] = 1 / a_half[j, j]
        bt = v.T * (tm.T * tm) * v
        b_rr, b_rn = bt[:r, :r], bt[:r, r:]
        core, _ = _sqrt_pair(a_half * b_rr * a_half)
        x_rr = a_inv_half * core * a_inv_half
        x_rr_inv = mpmath.inverse(x_rr)
        x_rn = a_inv_half * a_inv_half * x_rr_inv * b_rn
        xt = mpmath.zeros(n, n)
        xt[:r, :r] = x_rr
        xt[:r, r:] = x_rn
        xt[r:, :r] = x_rn.T
        xt[r:, r:] = x_rn.T * x_rr_inv * x_rn + mpmath.eye(n - r)
        return np.array((v * xt * v.T).tolist(), dtype=np.float64)


def rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def forward_error_case(cond, seed, noise, scale):
    """pdtls.solve against the oracle on 200x12 full-rank data with both
    D and T multiplied by scale; the oracle runs on the scaled floats."""
    spec = generate.GeneratorSpec(
        m=200, n=12, r=12, seed=seed, spectrum_a=np.geomspace(1.0, 1.0 / cond, 12)
    )
    p, x0 = generate.gen_full_rank(spec)
    if noise:
        p = generate.inject_noise(p, noise, seed)
    p = model.ProblemInstance(d=scale * p.d, t=scale * p.t)
    ref = oracle_root(p.d, p.t)
    if not noise:
        # The generator's X0 solves the noise-free data up to the rounding
        # of T = D X0, which checks the oracle itself.
        assert rel(x0, ref) <= 1e-12
    assert rel(pdtls.solve(p).x, ref) <= BOUND[cond]


def rank_deficient_case(cond, seed, scale):
    """The same on consistent 200x12 rank-7 data, completed with L_free = I."""
    spec = generate.GeneratorSpec(
        m=200, n=12, r=7, seed=seed, spectrum_a=np.geomspace(1.0, 1.0 / cond, 7)
    )
    p = generate.gen_consistent_rankdef(spec)
    ref = oracle_rankdef_root(scale * p.d, scale * p.t, 7)
    # The oracle solves X A X = B on the generator's consistent data, of
    # which the scaled data are a rounding.
    a, b = p.d.T @ p.d, p.t.T @ p.t
    assert np.linalg.norm(ref @ a @ ref - b) <= 1e-12 * np.linalg.norm(b)
    # The oracle completes with the identity, as CompletionChoice.identity does.
    scaled = model.ProblemInstance(d=scale * p.d, t=scale * p.t)
    sol = pdtls.solve(scaled, choice=rankdef.CompletionChoice.identity(12 - 7))
    assert sol.rank == 7
    assert rel(sol.x, ref) <= RANKDEF_BOUND[cond]


# Data near either end of the float range, where B = T^T T would over- or
# underflow unless the solve scaled the data first.
SCALES = [1e150, 1e200, 1e-160]


@pytest.mark.parametrize("noise", [0.0, 1e-6], ids=["noise_free", "noisy"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cond", sorted(BOUND))
def test_forward_error_against_the_oracle(cond, seed, noise):
    forward_error_case(cond, seed, noise, 1.0)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("noise", [0.0, 1e-6], ids=["noise_free", "noisy"])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cond", sorted(BOUND))
def test_forward_error_against_the_oracle_on_scaled_data(cond, seed, noise, scale):
    forward_error_case(cond, seed, noise, scale)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cond", sorted(RANKDEF_BOUND))
def test_rank_deficient_forward_error_against_the_oracle(cond, seed):
    rank_deficient_case(cond, seed, 1.0)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cond", sorted(RANKDEF_BOUND))
def test_rank_deficient_forward_error_against_the_oracle_on_scaled_data(cond, seed, scale):
    rank_deficient_case(cond, seed, scale)


@pytest.mark.parametrize("k", [1e300, 1e-300, 1e-310])
def test_exact_diagonal_solution_at_the_ends_of_the_float_range(k):
    # D = k diag(1, 2, 3), T = k diag(2, 8, 18): X = diag(2, 4, 6) for any
    # k, the data's entries normal, subnormal (1e-310) or near the largest
    # float, where B's entries (k^2 times up to 324) are far outside it.
    p = model.ProblemInstance(d=k * np.diag([1.0, 2.0, 3.0]), t=k * np.diag([2.0, 8.0, 18.0]))
    ref = np.diag([2.0, 4.0, 6.0])
    assert np.array_equal(oracle_root(p.d, p.t).round(12), ref)
    assert rel(pdtls.solve(p).x, ref) <= BOUND[1e3]

import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pdtls
from pdtls import fullrank, generate, linalg, model, rankdef
from pdtls.errors import NoSolutionError, NotPositiveDefiniteError, RankDeficiencyError

SOLVERS = [fullrank.solve_qr, fullrank.solve_spectral]


@pytest.mark.parametrize("solve", SOLVERS)
def test_identity_data_diagonal_target(solve):
    p = model.ProblemInstance(d=np.eye(2), t=np.diag([2.0, 3.0]))
    sol = solve(p)
    assert_allclose(sol.x, np.diag([2.0, 3.0]), atol=1e-12)
    assert sol.error_value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("solve", SOLVERS)
def test_scalar_closed_form(solve):
    p = model.ProblemInstance(d=np.array([[1.0], [1.0]]), t=np.array([[1.0], [2.0]]))
    sol = solve(p)
    assert sol.x[0, 0] == pytest.approx(np.sqrt(2.5), abs=1e-12)
    assert sol.error_value == pytest.approx(2.0 * np.sqrt(10.0) - 6.0, abs=1e-12)


@pytest.mark.parametrize("solve", SOLVERS)
def test_identity_data_matrix_sqrt(solve):
    p = model.ProblemInstance(d=np.eye(2), t=np.array([[1.0, 1.0], [0.0, 1.0]]))
    sol = solve(p)
    assert_allclose(sol.x, np.array([[2.0, 1.0], [1.0, 3.0]]) / np.sqrt(5.0), atol=1e-10)
    assert sol.error_value == pytest.approx(2.0 * np.sqrt(5.0) - 4.0, abs=1e-10)


def test_spectral_diagonal_gram():
    # per-entry scalar equations x_ii^2 a_ii = b_ii
    p = model.ProblemInstance(d=np.diag([1.0, 2.0]), t=np.diag([2.0, 2.0]))
    sol = fullrank.solve_spectral(p)
    assert_allclose(sol.x, np.diag([2.0, 1.0]), atol=1e-12)
    assert sol.error_value == pytest.approx(0.0, abs=1e-12)


def test_scale_symmetry():
    for alpha in (0.5, 1.0, 7.0):
        p = model.ProblemInstance(d=alpha * np.eye(3), t=alpha * np.eye(3))
        sol = fullrank.solve_spectral(p)
        assert_allclose(sol.x, np.eye(3), atol=1e-12)


def test_random_instance_kkt_and_geometric_mean_oracle():
    rng = np.random.default_rng(42)
    d = rng.standard_normal((50, 10))
    t = rng.standard_normal((50, 10))
    p = model.ProblemInstance(d=d, t=t)
    sol = fullrank.solve_qr(p)
    assert sol.kkt_residual <= 1e-9
    # independent route: X = A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2}
    a, b = d.T @ d, t.T @ t
    w, u = np.linalg.eigh(a)
    a_half = (u * np.sqrt(w)) @ u.T
    a_half_inv = (u / np.sqrt(w)) @ u.T
    w2, u2 = np.linalg.eigh(a_half @ b @ a_half)
    x_ref = a_half_inv @ ((u2 * np.sqrt(w2)) @ u2.T) @ a_half_inv
    assert np.linalg.norm(sol.x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_cross_method_agreement():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 51))
        m = n + int(rng.integers(0, 151))
        p = model.ProblemInstance(
            d=rng.standard_normal((m, n)), t=rng.standard_normal((m, n))
        )
        s_qr = fullrank.solve_qr(p)
        s_sp = fullrank.solve_spectral(p)
        assert s_qr.kkt_residual <= 1e-9
        assert s_sp.kkt_residual <= 1e-9
        assert s_qr.min_eigenvalue > 0
        assert np.linalg.norm(s_qr.x - s_sp.x) <= 1e-8 * np.linalg.norm(s_qr.x)


def test_consistent_data_exactness():
    rng = np.random.default_rng(12)
    for seed in range(10):
        spec = generate.GeneratorSpec(m=30, n=6, r=6, seed=seed)
        p, x0 = generate.gen_full_rank(spec)
        for solve in SOLVERS:
            sol = solve(p)
            assert np.linalg.norm(sol.x - x0) <= 1e-8 * np.linalg.norm(x0)
            assert sol.error_value <= 1e-9


def test_global_minimality_probe():
    rng = np.random.default_rng(13)
    p = model.ProblemInstance(
        d=rng.standard_normal((20, 5)), t=rng.standard_normal((20, 5))
    )
    sol = fullrank.solve_qr(p)
    e_star = sol.error_value
    scale = 1e-3 * np.linalg.norm(sol.x)
    for _ in range(50):
        delta = linalg.symmetrize(rng.standard_normal((5, 5)))
        delta *= scale / np.linalg.norm(delta)
        try:
            e = model.error_trace(p, sol.x + delta)
        except NotPositiveDefiniteError:
            continue
        assert e >= e_star - 1e-12


# X A X = B is a special case of the continuous-time algebraic Riccati
# equation; the r = n solve from a partition is its closed form for a
# diagonal A = S^2, and a route reduces any A = R^T R to that form, here
# with D = R as the data.


def care_root(s, b):
    """The root of X diag(s)^2 X = b, solved from the r = n partition of b."""
    n = len(s)
    bp = rankdef.BlockPartition(
        r=n, b_rr=b, b_rn=np.zeros((n, 0)), b_nn=np.zeros((0, 0)),
        s=s, basis_u=np.eye(n), b=b, factor=np.diag(s),
    )
    p = model.ProblemInstance(d=np.diag(s), t=np.eye(n))
    return rankdef.solve_partition(p, bp, "qr").x


def test_care_special_identity():
    x = care_root(np.ones(3), np.eye(3))
    assert_allclose(x, np.eye(3), atol=1e-12)


def test_care_special_decoupled_scalars():
    # A = diag(1, 4) = S^2 with S = diag(1, 2)
    x = care_root(np.array([1.0, 2.0]), np.diag([4.0, 4.0]))
    assert_allclose(x, np.diag([2.0, 1.0]), atol=1e-12)


def test_care_special_random_residual():
    rng = np.random.default_rng(14)
    n = 8
    ga = rng.standard_normal((n, n))
    gb = rng.standard_normal((n, n))
    a = ga @ ga.T + n * np.eye(n)
    b = gb @ gb.T + n * np.eye(n)
    p = model.ProblemInstance(d=linalg.cholesky(a).T, t=linalg.cholesky(b).T)
    x = fullrank.solve_qr(p).x
    assert np.linalg.norm(x @ a @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_care_special_rejects_indefinite():
    # S B S is not positive definite, so no SPD root exists.
    with pytest.raises(NotPositiveDefiniteError):
        care_root(np.array([1.0, 2.0]), np.diag([1.0, -1.0]))


def test_rank_deficient_data_raises():
    p = model.ProblemInstance(d=np.diag([1.0, 0.0]), t=np.eye(2))
    for solve in SOLVERS:
        with pytest.raises(RankDeficiencyError):
            solve(p)


def test_rank_deficient_target_raises_not_pd():
    # rank(T) < n means T^T T is singular: the consistency test at r = n
    # refuses it, never silently repaired
    p = model.ProblemInstance(d=np.eye(2), t=np.diag([1.0, 0.0]))
    for solve in SOLVERS:
        with pytest.raises(NoSolutionError) as ei:
            solve(p)
        report = ei.value.report
        assert report.rank == 2 and not report.consistent
        assert np.isinf(report.f_norm) and np.isinf(report.b_rr_condition)


@pytest.mark.parametrize(
    "d_diag,t_diag",
    [((1.0, 0.0), (1.0, 1.0)), ((1.0, 1.0), (1.0, 0.0))],
    ids=["deficient_d", "deficient_t"],
)
def test_kept_refusal_does_not_hold_the_factor(monkeypatch, d_diag, t_diag):
    # A caller may keep refusals (a benchmark keeps a pass's outcomes); the
    # factor of D must not stay alive through the exception's traceback.
    factors = []
    factor = linalg.qr_svd_decompose

    def tracked(*args):
        f = factor(*args)
        factors.append(weakref.ref(f))
        return f

    monkeypatch.setattr(linalg, "qr_svd_decompose", tracked)
    p = model.ProblemInstance(d=np.diag(d_diag), t=np.diag(t_diag))
    with pytest.raises((RankDeficiencyError, NoSolutionError)) as kept:
        fullrank.solve_qr(p)
    assert kept.value.__traceback__ is not None and factors[0]() is None


def test_forward_error_at_cond_1e5():
    # Noise-free data with a known X0 and cond(D) = 1e5: every full-rank
    # route solves it to 1e-5 relative, through one computation.
    for seed in range(3):
        spec = generate.GeneratorSpec(
            m=200, n=12, r=12, seed=seed, spectrum_a=np.geomspace(1.0, 1e-5, 12)
        )
        p, x0 = generate.gen_full_rank(spec)
        x_qr = fullrank.solve_qr(p).x
        for x in (x_qr, pdtls.solve(p).x):
            assert np.linalg.norm(x - x0) <= 1e-5 * np.linalg.norm(x0)
        assert np.array_equal(x_qr, fullrank.solve_spectral(p).x)

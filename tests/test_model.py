import re

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

import pdtls
from pdtls import fullrank, generate, linalg, model, rankdef
from pdtls.errors import DimensionError, NotPositiveDefiniteError, SingularTriangularError

SCALAR_E = 2.0 * np.sqrt(10.0) - 6.0  # minimum of 2x + 5/x - 6 at x = sqrt(2.5)
IDENTITY_E = 2.0 * np.sqrt(5.0) - 4.0


def scalar_problem():
    return model.ProblemInstance(d=np.array([[1.0], [1.0]]), t=np.array([[1.0], [2.0]]))


def identity_problem():
    return model.ProblemInstance(d=np.eye(2), t=np.array([[1.0, 1.0], [0.0, 1.0]]))


def spd_sqrt_2x2(b):
    # closed-form square root of a 2x2 SPD matrix
    tau = np.trace(b)
    det = np.linalg.det(b)
    return (b + np.sqrt(det) * np.eye(2)) / np.sqrt(tau + 2.0 * np.sqrt(det))


def test_problem_instance_validation():
    with pytest.raises(DimensionError):
        model.ProblemInstance(d=np.ones((2, 2)), t=np.ones((3, 2)))
    with pytest.raises(DimensionError):
        model.ProblemInstance(d=np.ones((2, 3)), t=np.ones((2, 3)))
    with pytest.raises(DimensionError, match=re.escape("(3, 0)")):
        model.ProblemInstance(d=np.ones((3, 0)), t=np.ones((3, 0)))
    with pytest.raises(ValueError):
        model.ProblemInstance(d=np.array([[np.nan], [1.0]]), t=np.ones((2, 1)))


def test_gram_pair_examples():
    # A = D^T D and B = T^T T, each from linalg.gram.
    p = model.ProblemInstance(d=np.eye(2), t=np.diag([2.0, 3.0]))
    assert_allclose(linalg.gram(p.d), np.eye(2))
    assert_allclose(linalg.gram(p.t), np.diag([4.0, 9.0]))

    p = scalar_problem()
    assert_allclose(linalg.gram(p.d), [[2.0]])
    assert_allclose(linalg.gram(p.t), [[5.0]])

    assert_allclose(linalg.gram(np.zeros((2, 2))), np.zeros((2, 2)))
    t = np.random.default_rng(4).standard_normal((7, 3))
    g = linalg.gram(t)
    assert np.array_equal(g, g.T)


def test_error_trace_exact_solution_is_zero():
    p = model.ProblemInstance(d=np.eye(2), t=np.diag([2.0, 3.0]))
    assert model.error_trace(p, np.diag([2.0, 3.0])) == pytest.approx(0.0, abs=1e-14)


def test_error_trace_scalar_closed_form():
    e = model.error_trace(scalar_problem(), np.array([[np.sqrt(2.5)]]))
    assert e == pytest.approx(SCALAR_E, abs=1e-13)


def test_error_trace_identity_data_closed_form():
    p = identity_problem()
    x = spd_sqrt_2x2(p.t.T @ p.t)
    assert model.error_trace(p, x) == pytest.approx(IDENTITY_E, abs=1e-13)


def test_error_trace_rejects_non_spd():
    with pytest.raises(NotPositiveDefiniteError):
        model.error_trace(scalar_problem(), np.array([[-1.0]]))
    # An SPD X of the wrong order is refused by every public functional,
    # naming both shapes.
    p = model.ProblemInstance(d=np.eye(2), t=np.eye(2))
    for error in (model.error_trace, model.error_frobenius,
                  lambda p, x: model.kkt_residual(p.d, p.t, x)):
        with pytest.raises(DimensionError, match=re.escape("(2, 2)") + ".*" + re.escape("(3, 3)")):
            error(p, np.eye(3))


def test_error_frobenius_matches_trace_on_examples():
    cases = [
        (model.ProblemInstance(d=np.eye(2), t=np.diag([2.0, 3.0])), np.diag([2.0, 3.0])),
        (scalar_problem(), np.array([[np.sqrt(2.5)]])),
        (identity_problem(), spd_sqrt_2x2(identity_problem().t.T @ identity_problem().t)),
    ]
    for p, x in cases:
        et = model.error_trace(p, x)
        ef = model.error_frobenius(p, x)
        assert abs(et - ef) <= 1e-10 * (1.0 + abs(et))


def test_error_frobenius_identity_x():
    rng = np.random.default_rng(5)
    d = rng.standard_normal((6, 3))
    t = rng.standard_normal((6, 3))
    p = model.ProblemInstance(d=d, t=t)
    assert model.error_frobenius(p, np.eye(3)) == pytest.approx(
        np.linalg.norm(d - t) ** 2, rel=1e-12
    )
    p2 = model.ProblemInstance(d=d, t=d)
    assert model.error_frobenius(p2, np.eye(3)) == pytest.approx(0.0, abs=1e-12)


def test_kkt_residual_examples():
    # The factor f of A (f^T f = A) stands in for A.
    assert model.kkt_residual(np.eye(2), np.diag([4.0, 9.0]), np.diag([2.0, 3.0])) == pytest.approx(
        0.0, abs=1e-14
    )
    f, b = np.array([[np.sqrt(2.0)]]), np.array([[5.0]])
    assert model.kkt_residual(f, b, np.array([[np.sqrt(2.5)]])) == pytest.approx(0.0, abs=1e-14)

    assert model.kkt_residual(np.eye(2), np.eye(2), 2.0 * np.eye(2)) == pytest.approx(3.0, rel=1e-14)

    # A factor of A with fewer rows than columns (rank-deficient A) works too.
    f = np.array([[1.0, 1.0]])  # A = [[1, 1], [1, 1]]
    x = np.diag([1.0, 2.0])
    assert model.kkt_residual(f, np.zeros((2, 2)), x) == pytest.approx(
        np.linalg.norm(x @ f.T @ f @ x), rel=1e-14
    )


def random_spd(n, rng, lo=0.5, hi=2.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return linalg.symmetrize((q * rng.uniform(lo, hi, n)) @ q.T)


def test_equivalence_property():
    # the two error formulations agree on random (instance, SPD x) pairs
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 31))
        m = n + int(rng.integers(0, 20))
        p = model.ProblemInstance(
            d=rng.standard_normal((m, n)), t=rng.standard_normal((m, n))
        )
        x = random_spd(n, rng)
        et = model.error_trace(p, x)
        ef = model.error_frobenius(p, x)
        assert abs(et - ef) <= 1e-9 * (1.0 + abs(et))
        assert et >= -1e-10


def test_zero_characterization():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        d = rng.standard_normal((n + 4, n))
        x = random_spd(n, rng)
        t = d @ x
        p = model.ProblemInstance(d=d, t=t)
        e = model.error_trace(p, x)
        assert e <= 1e-10
        assert np.linalg.norm(d @ x - t) <= 1e-6 * np.linalg.norm(t)
        # conversely, a perturbed x has positive error and nonzero residual
        x2 = x + 0.1 * np.eye(n)
        assert model.error_trace(p, x2) > 1e-10
        assert np.linalg.norm(d @ x2 - t) > 1e-6 * np.linalg.norm(t)


def test_error_invariant_under_factor_rotation():
    # X = (YQ)(YQ)^T is the same matrix for any rotation Q, so error_trace
    # is unchanged; error_frobenius always re-factors via Cholesky.
    rng = np.random.default_rng(8)
    n = 4
    p = model.ProblemInstance(
        d=rng.standard_normal((7, n)), t=rng.standard_normal((7, n))
    )
    x = random_spd(n, rng)
    y = np.linalg.cholesky(x)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    x_rot = (y @ q) @ (y @ q).T
    assert model.error_trace(p, x_rot) == pytest.approx(model.error_trace(p, x), rel=1e-10)


def test_make_solution_validates():
    p = model.ProblemInstance(d=np.eye(2), t=np.diag([2.0, 3.0]))
    b = linalg.gram(p.t)
    sol = model.make_solution(p, np.eye(2), b, np.diag([2.0, 3.0]), "qr")
    assert sol.min_eigenvalue == pytest.approx(2.0)
    assert sol.method_tag == "qr"
    assert sol.consistency is None
    assert sol.rank == 2
    assert sol.error_value == pytest.approx(0.0, abs=1e-14)
    assert sol.kkt_residual == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(NotPositiveDefiniteError):
        model.make_solution(p, np.eye(2), b, np.diag([1.0, -1.0]), "qr")
    # An X that overflowed is refused before any kernel reads it.
    with pytest.raises(ValueError, match="NaN or Inf"):
        model.make_solution(p, np.eye(2), b, np.diag([1.0, np.inf]), "qr")
    # X = (alpha / beta) x outside the float range, past the largest float
    # or below the smallest normal one, is refused naming X; so is the
    # solve of data whose X underflows (D x1e200, T x1e-200: X ~ 1e-400).
    for alpha, beta in ((4.0**300, 4.0**-300), (4.0**-300, 4.0**300)):
        with pytest.raises(ValueError, match="solution X"):
            model.make_solution(p, np.eye(2), b, np.diag([2.0, 3.0]), "qr", None, alpha, beta)
    with pytest.raises(ValueError, match="solution X"):
        pdtls.solve(model.ProblemInstance(d=1e200 * p.d, t=1e-200 * p.t))


def test_make_solution_refuses_a_singular_factor():
    # X is SPD in floating point, but its Cholesky factor has a pivot
    # below the k * eps rule, so E(X) cannot be read.
    p = model.ProblemInstance(d=np.eye(2), t=np.eye(2))
    with pytest.raises(SingularTriangularError):
        model.make_solution(p, np.eye(2), np.eye(2), np.diag([1.0, 1e-300]), "qr")


def test_make_solution_inverts_the_n_by_n_factor(spy):
    # E(X) applies Y^{-1} to T^T by a triangular product after one n-by-n
    # inversion; no triangular solve runs on the m columns of T^T.
    p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=2000, n=100, r=60, seed=0))
    x = pdtls.solve(p).x
    f, b = linalg.qr_svd_decompose(p.d).r, linalg.gram(p.t)
    solves = [spy(sla.lapack, "dtrtrs"), spy(sla.blas, "dtrsm")]
    inverses = spy(linalg, "triangular_inverse")
    model.make_solution(p, f, b, x, "rankdef_spectral")
    assert [c.call_count for c in solves] == [0, 0]
    assert inverses.call_count == 1
    assert inverses.call_args.args[0].shape == (100, 100)


def error_by_solve(p, x):
    """||D Y - T Y^{-T}||_F^2 with Y^{-1} T^T from a triangular solve on the
    m columns of T^T: the form make_solution used before it inverted Y."""
    y = np.linalg.cholesky(x)
    res = (p.d @ y).T - sla.solve_triangular(y, p.t.T, lower=True)
    return float(np.sum(res * res))


def hard_spectrum_solutions():
    """Solutions where Y spans many orders of magnitude: 40x8, r=4 with
    eig(A) from 1 to 1e-16 on the row space (X ~ 1e8) under both
    rank-deficient routes, and noisy 200x12 full-rank data at cond(D) = 1e7."""
    for seed in range(5):
        spec = generate.GeneratorSpec(m=40, n=8, r=4, seed=seed, spectrum_a=np.geomspace(1, 1e-16, 4))
        p = generate.gen_consistent_rankdef(spec)
        for route in ("spectral", "cod"):
            yield p, rankdef.solve_rankdef(p, route=route)
    for seed in range(3):
        spec = generate.GeneratorSpec(
            m=200, n=12, r=12, seed=seed, noise_level=1e-6, spectrum_a=np.geomspace(1, 1e-7, 12)
        )
        p, _ = generate.gen_full_rank(spec)
        yield p, pdtls.solve(p)


def test_make_solution_error_matches_solve_form_on_hard_spectra():
    # The trace-oracle test's floor, 1e-12 ||T||_F^2, marks where E is
    # rounding noise.  The cond 1e7 instances fit to E just below it, so
    # the difference is held to 1e-10 of the larger of E and the floor,
    # which is the relative bound above the floor and tighter than
    # 0 <= E <= floor below it.
    for p, sol in hard_spectrum_solutions():
        ref = error_by_solve(p, sol.x)
        floor = 1e-12 * np.linalg.norm(p.t) ** 2
        assert sol.error_value >= 0.0
        assert abs(sol.error_value - ref) <= 1e-10 * max(ref, floor)


def routed_solutions():
    """(instance, solution, the route's factor of A) on noisy 40x8 full-rank
    and 200x20 r=12 rank-deficient data, every route."""
    for seed in range(10):
        p, _ = generate.gen_full_rank(generate.GeneratorSpec(m=40, n=8, r=8, seed=seed))
        p = generate.inject_noise(p, 1e-2, 100 + seed)
        r = linalg.qr_svd_decompose(p.d).r
        yield p, fullrank.solve_qr(p), r
        yield p, fullrank.solve_spectral(p), r
    for seed in range(5):
        p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=200, n=20, r=12, seed=seed))
        for route in ("spectral", "cod"):
            factor = getattr(rankdef, f"partition_{route}")(p).factor
            yield p, rankdef.solve_rankdef(p, route=route), factor


def test_make_solution_error_matches_trace_oracle():
    # E from D Y and T Y^{-T} against the trace form, which forms D X and
    # T X^{-1}, wherever E is above rounding noise.
    compared = 0
    for p, sol, _ in routed_solutions():
        oracle = model.error_trace(p, sol.x)
        floor = 1e-12 * np.linalg.norm(p.t) ** 2
        if oracle > floor:
            assert abs(sol.error_value - oracle) <= 1e-12 * oracle
            compared += 1
        else:
            assert 0.0 <= sol.error_value <= floor
    assert compared == 30


def test_make_solution_kkt_matches_gram_form():
    # On well-conditioned data the factor form agrees with X A X - B taken
    # through a formed A, at the solution and away from it.
    for p, sol, f in routed_solutions():
        a, b = p.d.T @ p.d, linalg.gram(p.t)
        assert sol.kkt_residual == model.kkt_residual(f, b, sol.x)
        for x, tol in ((sol.x, 1e-12), (1.1 * sol.x, 1e-12)):
            gram_form = np.linalg.norm(x @ a @ x - b) / max(1.0, np.linalg.norm(b))
            factor_form = model.kkt_residual(f, b, x)
            assert abs(factor_form - gram_form) <= tol * max(1.0, gram_form)
        assert model.kkt_residual(f, b, 1.1 * sol.x) > 0.1

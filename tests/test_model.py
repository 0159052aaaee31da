import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdtls import linalg, model
from pdtls.errors import DimensionError, NotPositiveDefiniteError

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
    with pytest.raises(ValueError):
        model.ProblemInstance(d=np.array([[np.nan], [1.0]]), t=np.ones((2, 1)))


def test_gram_pair_examples():
    g = model.gram_pair(model.ProblemInstance(d=np.eye(2), t=np.diag([2.0, 3.0])))
    assert_allclose(g.a, np.eye(2))
    assert_allclose(g.b, np.diag([4.0, 9.0]))

    g = model.gram_pair(scalar_problem())
    assert_allclose(g.a, [[2.0]])
    assert_allclose(g.b, [[5.0]])

    g = model.gram_pair(model.ProblemInstance(d=np.zeros((2, 2)), t=np.zeros((2, 2))))
    assert_allclose(g.a, np.zeros((2, 2)))


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
    g = model.GramPair(a=np.eye(2), b=np.diag([4.0, 9.0]))
    assert model.kkt_residual(g, np.diag([2.0, 3.0])) == pytest.approx(0.0, abs=1e-14)

    g = model.GramPair(a=np.array([[2.0]]), b=np.array([[5.0]]))
    assert model.kkt_residual(g, np.array([[np.sqrt(2.5)]])) == pytest.approx(0.0, abs=1e-14)

    g = model.GramPair(a=np.eye(2), b=np.eye(2))
    assert model.kkt_residual(g, 2.0 * np.eye(2)) == pytest.approx(3.0, rel=1e-14)


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
    g = model.gram_pair(p)
    sol = model.make_solution(p, g, np.diag([2.0, 3.0]), "qr")
    assert sol.min_eigenvalue == pytest.approx(2.0)
    assert sol.method_tag == "qr"
    assert sol.consistency is None
    with pytest.raises(NotPositiveDefiniteError):
        model.make_solution(p, g, np.diag([1.0, -1.0]), "qr")

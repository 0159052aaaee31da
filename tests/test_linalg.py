import re

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from pdtls import generate, linalg, model
from pdtls.errors import DimensionError, NotPositiveDefiniteError, SingularTriangularError
from reference import numeric_rank


def test_spectral_diagonal():
    w, u = linalg.symmetric_eigenpairs(np.diag([2.0, 3.0]))
    assert_allclose(w, [3.0, 2.0])
    assert_allclose(np.abs(u), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)


def test_spectral_hand_example():
    w, _ = linalg.symmetric_eigenpairs(np.array([[2.0, 1.0], [1.0, 2.0]]))
    # characteristic polynomial (2-x)^2 - 1 = 0 -> x in {3, 1}
    assert_allclose(w, [3.0, 1.0], atol=1e-12)


def test_spectral_zero():
    w, _ = linalg.symmetric_eigenpairs(np.zeros((2, 2)))
    assert_allclose(w, [0.0, 0.0])


def test_cholesky_identity():
    f = linalg.cholesky(np.eye(2))
    assert_allclose(f, np.eye(2))


def test_cholesky_hand_example():
    f = linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
    assert_allclose(f, [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-14)
    assert_allclose(f @ f.T, [[4.0, 2.0], [2.0, 3.0]], atol=1e-14)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefiniteError):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1


def assert_cod_factors(a, top, piv):
    """a[:, piv] = Q [top; ~0] with Q orthonormal: piv permutes a's columns,
    top is upper trapezoidal, and the Gram matrix of the permuted columns
    is top^T top."""
    ap = a[:, piv]
    assert sorted(piv) == list(range(a.shape[1]))
    assert_allclose(top, np.triu(top), atol=0.0)
    assert np.linalg.norm(ap.T @ ap - top.T @ top) <= 1e-11 * np.linalg.norm(a) ** 2


def test_cod_diagonal_rank1():
    top, piv = linalg.rank_revealing_qr(np.diag([1.0, 0.0]))
    assert list(piv) == [0, 1]
    assert_allclose(np.abs(top), [[1.0, 0.0]], atol=1e-14)


def test_cod_full_rank():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3))
    top, piv = linalg.rank_revealing_qr(a)
    assert top.shape == (3, 3)
    assert_cod_factors(a, top, piv)
    # rank oracle via singular values
    assert top.shape[0] == np.sum(np.linalg.svd(a, compute_uv=False) > 1e-10)


def test_cod_zero_matrix():
    top, piv = linalg.rank_revealing_qr(np.zeros((3, 2)))
    assert top.shape == (0, 2) and sorted(piv) == [0, 1]


def test_cod_triangular_block():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((7, 3)) @ rng.standard_normal((3, 5))
    top, piv = linalg.rank_revealing_qr(a)
    assert top.shape == (3, 5)
    assert_allclose(top, np.triu(top), atol=0.0)
    assert np.all(np.abs(np.diag(top)) > 0)
    assert_cod_factors(a, top, piv)


def test_numeric_rank_examples():
    # The reference's SVD of the matrix and the package's SVD of its triangle.
    for a, tol, rank in [(np.diag([1.0, 1e-16]), 1e-12, 1), (np.eye(4), 0.5, 4),
                         (np.diag([5.0, 3.0, 1e-9]), 1e-8, 2), (np.zeros((3, 3)), None, 0)]:
        assert numeric_rank(a, tol) == linalg.qr_svd_decompose(a, tol).rank == rank


def test_numeric_rank_requires_positive_tol():
    with pytest.raises(ValueError):
        linalg.qr_svd_decompose(np.eye(2), rank_tol=0.0)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_numeric_rank_rejects_nonfinite_tol(tol):
    with pytest.raises(ValueError):
        linalg.qr_svd_decompose(np.eye(2), rank_tol=tol)


def test_cod_rank_uses_tolerance_of_input_shape():
    # sigma_min / sigma_max = 1e-8 lies between default_rank_tol of the 5x5
    # triangular factor (5e-10) and that of the 1000x5 input (1e-7).
    rng = np.random.default_rng(5)
    left, _ = np.linalg.qr(rng.standard_normal((1000, 5)))
    right, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = (left * np.array([1.0, 0.5, 0.2, 0.1, 1e-8])) @ right.T
    assert numeric_rank(a) == 4
    assert linalg.rank_revealing_qr(a)[0].shape[0] == numeric_rank(a)
    assert linalg.qr_svd_decompose(a).rank == 4


@pytest.mark.parametrize("seed", range(3))
def test_cod_of_tall_rank_deficient_data(seed):
    # The pivoted QR runs on the n-by-n triangle of a tall a; the rank and
    # the factors must be those of a itself.
    rng = np.random.default_rng(seed)
    spec = generate.GeneratorSpec(m=40, n=8, r=4, seed=seed, spectrum_a=np.geomspace(1, 1e-12, 4))
    cases = [
        generate.gen_consistent_rankdef(spec).d,
        rng.standard_normal((2000, 60)) @ rng.standard_normal((60, 100)),
        (rng.standard_normal((300, 5)) * np.geomspace(1, 1e-6, 5)) @ rng.standard_normal((5, 9)),
    ]
    for a in cases:
        top, piv = linalg.rank_revealing_qr(a)
        assert top.shape[0] == numeric_rank(a) < a.shape[1]
        assert_cod_factors(a, top, piv)


@pytest.mark.parametrize("lower", [True, False])
@pytest.mark.parametrize("k", [1, 8, 100])
def test_triangular_inverse_matches_scipy(lower, k):
    rng = np.random.default_rng(k)
    g = rng.standard_normal((k, k)) + k * np.eye(k)
    factor = np.tril(g) if lower else np.triu(g)
    inv = linalg.triangular_inverse(factor, lower=lower)
    ref = sla.solve_triangular(factor, np.eye(k), lower=lower)
    assert np.linalg.norm(inv - ref) <= 1e-14 * np.linalg.norm(ref)


def test_triangular_inverse_rejects_bad_input():
    # A pivot at or below k * eps times the largest is numerically zero.
    for lower in (True, False):
        with pytest.raises(SingularTriangularError):
            linalg.triangular_inverse(np.diag([1.0, 1e-300]), lower=lower)
    with pytest.raises(SingularTriangularError):
        linalg.triangular_inverse(np.diag([1.0, 0.0]))


# 2000x100 and 2000x129 lie on either side of min(m, n) = 128, where
# LAPACK's dgeqrf (behind numpy.linalg.qr) switches from unblocked to blocked.
@pytest.mark.parametrize("m,n", [(10, 4), (300, 200), (2000, 100), (2000, 129)])
def test_qr_svd_factors(m, n):
    rng = np.random.default_rng(m + n)
    a = rng.standard_normal((m, n))
    f = linalg.qr_svd_decompose(a)
    # numpy's triangle up to row signs, to rounding: the two Householder QRs
    # apply the same reflectors in different blockings.
    ref = np.linalg.qr(a, mode="r")
    sign = np.copysign(1.0, f.r.diagonal()) * np.copysign(1.0, ref.diagonal())
    assert np.array_equal(f.r, np.triu(f.r))
    assert np.linalg.norm(f.r * sign[:, None] - ref) <= 1e-14 * np.linalg.norm(a)
    assert np.all(np.diff(f.s) <= 0) and f.rank == n
    assert np.linalg.norm(f.v.T @ f.v - np.eye(n)) <= 1e-11 * n
    gram = a.T @ a
    assert np.linalg.norm((f.v * f.s**2) @ f.v.T - gram) <= 1e-12 * np.linalg.norm(gram)
    low = a[:, : n // 2] @ rng.standard_normal((n // 2, n))
    assert linalg.qr_svd_decompose(low).rank == numeric_rank(low) == n // 2
    with pytest.raises(ValueError):
        linalg.qr_svd_decompose(a, np.nan)


def test_qr_svd_edge_shapes():
    # qr_svd_decompose takes m >= n >= 1; D of any other shape is refused
    # where it enters the package, with its shape named.
    for shape in [(2, 3), (3, 0)]:
        with pytest.raises(DimensionError, match=re.escape(str(shape))):
            model.ProblemInstance(d=np.ones(shape), t=np.ones(shape))
    assert linalg.qr_svd_decompose(np.zeros((3, 2))).rank == 0


def test_symmetrize_is_finite_past_half_the_largest_float():
    # (a + a^T) / 2 is at most max|a|; the sum a + a^T alone overflows.
    a = np.array([[1.5e308, 1e308], [-1e308, 1.7e308]])
    with np.errstate(all="raise"):
        sym = linalg.symmetrize(a)
    assert sym.tolist() == [[1.5e308, 0.0], [0.0, 1.7e308]]
    # Elsewhere the sum is halved, rounding once: halving first would take
    # the smallest subnormal to 0.
    tiny = np.array([[0.0, 5e-324], [5e-324, 0.0]])
    assert linalg.symmetrize(tiny).tolist() == tiny.tolist()


@pytest.mark.parametrize("m,n", [(10, 4), (50, 20), (200, 100)])
def test_roundtrip_property(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    sym = linalg.symmetrize(rng.standard_normal((n, n)))
    ew, eu = linalg.symmetric_eigenpairs(sym)
    rec = (eu * ew) @ eu.T
    assert np.linalg.norm(rec - sym) <= 1e-12 * max(np.linalg.norm(sym), 1.0)
    assert np.all(np.diff(ew) <= 0)
    assert np.linalg.norm(eu.T @ eu - np.eye(n)) <= 1e-11 * n

    g = rng.standard_normal((n, n))
    spd = g @ g.T + n * np.eye(n)
    cf = linalg.cholesky(spd)
    assert np.linalg.norm(cf @ cf.T - spd) <= 1e-12 * np.linalg.norm(spd)
    assert np.all(np.diag(cf) > 0)

    r = max(1, n // 2)
    low = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
    top, piv = linalg.rank_revealing_qr(low)
    assert top.shape[0] == r
    assert_cod_factors(low, top, piv)


def test_numeric_rank_rotation_invariance():
    rng = np.random.default_rng(77)
    for _ in range(5):
        a = rng.standard_normal((12, 7))[:, :4] @ rng.standard_normal((4, 7))
        ql, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        qr_, _ = np.linalg.qr(rng.standard_normal((7, 7)))
        tol = 1e-9
        base = numeric_rank(a, tol)
        assert numeric_rank(ql @ a, tol) == base
        assert numeric_rank(a @ qr_, tol) == base


def well_separated_spd(n, seed):
    """Q diag(1..n) Q^T: eigenvalues a unit apart, so eigenvectors are well
    conditioned and comparable across LAPACK builds."""
    q = generate.random_rotation(n, seed)
    return linalg.symmetrize((q * np.arange(1.0, n + 1.0)) @ q.T)


@pytest.mark.parametrize("n", [1, 3, 8, 60])
def test_lapack_wrappers_match_numpy(n):
    rng = np.random.default_rng(n)
    spd = well_separated_spd(n, n)
    sym = spd - 0.5 * (n + 1) * np.eye(n)  # indefinite for n > 1
    rect = rng.standard_normal((n + 2, n))

    def close(x, ref):
        return np.linalg.norm(x - ref) <= 1e-13 * np.linalg.norm(ref)

    ew, eu = linalg.symmetric_eigenpairs(sym)
    w, u = np.linalg.eigh(sym)
    assert np.all(np.diff(ew) <= 0) and close(ew, w[::-1])
    signs = np.sign(np.sum(eu * u[:, ::-1], axis=0))
    assert close(eu * signs, u[:, ::-1])
    assert eu.flags.c_contiguous and ew.flags.c_contiguous
    # Only the lower triangle is read: an upper triangle of garbage gives
    # the same pairs, bit for bit.
    garbage = np.tril(sym) + np.triu(rng.standard_normal((n, n)), 1)
    assert all(map(np.array_equal, linalg.symmetric_eigenpairs(garbage), (ew, eu)))
    ev = linalg.symmetric_eigenvalues(sym)
    assert np.all(np.diff(ev) <= 0) and close(ev, np.linalg.eigvalsh(sym)[::-1])
    for a in (rect, rect.T, spd):
        sv = linalg.singular_values(a)
        assert np.all(np.diff(sv) <= 0) and close(sv, np.linalg.svd(a, compute_uv=False))
    for a in (rect.T, spd):  # k-by-j with k <= j
        s, v = linalg.right_singular_vectors(a)
        j = a.shape[1]
        assert close(s, np.linalg.svd(a, compute_uv=False))
        assert np.linalg.norm(v.T @ v - np.eye(j)) <= 1e-13 * j
        assert close(np.linalg.norm(a @ v, axis=0), np.r_[s, np.zeros(j - s.size)])
    l = linalg.cholesky(spd)
    assert close(l, np.linalg.cholesky(spd))
    assert np.array_equal(np.triu(l, 1), np.zeros((n, n)))


def test_cholesky_reads_the_lower_triangle_and_refuses_a_non_square_input():
    a = np.array([[4.0, 99.0], [2.0, 3.0]])  # the upper entry is not read
    assert_allclose(linalg.cholesky(a), [[2.0, 0.0], [1.0, np.sqrt(2.0)]], atol=1e-14)
    with pytest.raises(NotPositiveDefiniteError):
        linalg.cholesky(np.diag([1.0, 0.0]))
    # A caller's non-square X is refused where it enters, by the error
    # functionals, as not positive definite.
    p = model.ProblemInstance(d=np.eye(2), t=np.eye(2))
    for error in (model.error_trace, model.error_frobenius):
        with pytest.raises(NotPositiveDefiniteError, match="not square"):
            error(p, np.ones((3, 2)))


def test_lapack_wrappers_refuse_bad_input():
    with pytest.raises(np.linalg.LinAlgError):
        linalg.singular_values(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    s, v = linalg.right_singular_vectors(np.zeros((0, 3)))
    assert s.shape == (0,) and np.array_equal(v, np.eye(3))


@pytest.mark.parametrize("m,n", [(40, 8), (2000, 100)])
def test_qr_svd_triangle_owns_its_data(m, n):
    # A view into dgeqrt's m-by-n output would keep all of it alive.
    f = linalg.qr_svd_decompose(np.random.default_rng(m).standard_normal((m, n)))
    assert f.r.shape == (n, n) and f.r.base is None

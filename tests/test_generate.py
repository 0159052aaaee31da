import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdtls import fullrank, generate, linalg, rankdef


def test_spec_validation():
    with pytest.raises(ValueError):
        generate.GeneratorSpec(m=3, n=5, r=2, seed=0)
    with pytest.raises(ValueError):
        generate.GeneratorSpec(m=5, n=3, r=0, seed=0)
    with pytest.raises(ValueError):
        generate.GeneratorSpec(m=5, n=3, r=2, seed=0, noise_level=-1.0)
    with pytest.raises(ValueError):
        generate.GeneratorSpec(m=5, n=3, r=2, seed=0, spectrum_a=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        generate.GeneratorSpec(m=5, n=3, r=2, seed=0, spectrum_a=np.array([1.0, -0.1]))


def test_full_rank_requires_square_rank():
    spec = generate.GeneratorSpec(m=6, n=4, r=3, seed=0)
    with pytest.raises(ValueError):
        generate.gen_full_rank(spec)
    with pytest.raises(ValueError):
        generate.gen_consistent_rankdef(generate.GeneratorSpec(m=6, n=4, r=4, seed=0))


def test_full_rank_singular_values_and_round_trip():
    spec = generate.GeneratorSpec(m=25, n=6, r=6, seed=2024)
    p, x0 = generate.gen_full_rank(spec)
    assert_allclose(np.linalg.svd(p.d, compute_uv=False), spec.spectrum_a, rtol=1e-10)
    sol = fullrank.solve_qr(p)
    assert np.linalg.norm(sol.x - x0) <= 1e-8 * np.linalg.norm(x0)
    sol = fullrank.solve_spectral(p)
    assert np.linalg.norm(sol.x - x0) <= 1e-8 * np.linalg.norm(x0)


def test_full_rank_unit_spectrum_gives_orthonormal_columns():
    spec = generate.GeneratorSpec(m=10, n=4, r=4, seed=5, spectrum_a=np.ones(4))
    p, _ = generate.gen_full_rank(spec)
    assert np.linalg.norm(p.d.T @ p.d - np.eye(4)) <= 1e-12


def test_determinism():
    spec = generate.GeneratorSpec(m=12, n=5, r=5, seed=99)
    p1, x1 = generate.gen_full_rank(spec)
    p2, x2 = generate.gen_full_rank(spec)
    assert np.array_equal(p1.d, p2.d)
    assert np.array_equal(p1.t, p2.t)
    assert np.array_equal(x1, x2)

    spec_rd = generate.GeneratorSpec(m=12, n=5, r=3, seed=99)
    q1 = generate.gen_consistent_rankdef(spec_rd)
    q2 = generate.gen_consistent_rankdef(spec_rd)
    assert np.array_equal(q1.d, q2.d)
    assert np.array_equal(q1.t, q2.t)


def test_random_rotation_k1():
    assert_allclose(generate.random_rotation(1, 0), [[1.0]])


def test_random_rotation_properties():
    for k, seed in [(2, 1), (5, 2), (9, 3)]:
        q = generate.random_rotation(k, seed)
        assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12 * k
        assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)


def test_rank2_rotation_is_givens_form():
    q = generate.random_rotation(2, 7)
    c, s = q[0, 0], q[1, 0]
    assert c**2 + s**2 == pytest.approx(1.0, abs=1e-12)
    assert_allclose(q, [[c, -s], [s, c]], atol=1e-12)


def test_consistent_rankdef_ranks_and_consistency():
    for seed in range(20):
        spec = generate.GeneratorSpec(m=16, n=7, r=4, seed=seed)
        p = generate.gen_consistent_rankdef(spec)
        assert linalg.numeric_rank(p.d) == 4
        assert linalg.numeric_rank(p.t) == 4
        bp = rankdef.partition_spectral(p)
        b = linalg.symmetrize(p.t.T @ p.t)
        rep = rankdef.check_consistency(bp, b, 1e-8 * max(1.0, np.linalg.norm(b)))
        assert rep.consistent


def test_consistent_rankdef_minimal_case():
    spec = generate.GeneratorSpec(m=4, n=2, r=1, seed=8)
    p = generate.gen_consistent_rankdef(spec)
    bp = rankdef.partition_spectral(p)
    b = linalg.symmetrize(p.t.T @ p.t)
    rep = rankdef.check_consistency(bp, b, 1e-10)
    assert rep.f_norm <= 1e-10


def test_rank_honesty_with_wide_spectrum():
    spec = generate.GeneratorSpec(
        m=20, n=8, r=5, seed=9,
        spectrum_a=np.geomspace(1.0, 1e-5, 5),
        spectrum_b=np.geomspace(1.0, 1e-5, 5),
    )
    p = generate.gen_consistent_rankdef(spec)
    assert linalg.numeric_rank(p.d) == 5


def test_inject_noise_zero_is_identity():
    spec = generate.GeneratorSpec(m=8, n=3, r=3, seed=10)
    p, _ = generate.gen_full_rank(spec)
    assert generate.inject_noise(p, 0.0, 1) is p


def test_inject_noise_relative_scale():
    spec = generate.GeneratorSpec(m=8, n=3, r=3, seed=11)
    p, _ = generate.gen_full_rank(spec)
    q = generate.inject_noise(p, 1e-6, 12)
    assert np.linalg.norm(q.d - p.d) / np.linalg.norm(p.d) == pytest.approx(1e-6, abs=1e-12)
    assert np.linalg.norm(q.t - p.t) / np.linalg.norm(p.t) == pytest.approx(1e-6, abs=1e-12)


def test_noise_keeps_loose_consistency():
    spec = generate.GeneratorSpec(m=12, n=5, r=3, seed=13)
    p = generate.inject_noise(generate.gen_consistent_rankdef(spec), 1e-4, 14)
    bp = rankdef.partition_spectral(p, rank_tol=1e-3)
    b = linalg.symmetrize(p.t.T @ p.t)
    rep = rankdef.check_consistency(bp, b, 1e-2 * max(1.0, np.linalg.norm(b)))
    assert rep.f_norm > 0.0
    assert rep.consistent


def test_derive_rng_deterministic_and_distinct():
    a = generate.derive_rng(5, 0).standard_normal(4)
    b = generate.derive_rng(5, 0).standard_normal(4)
    c = generate.derive_rng(5, 1).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

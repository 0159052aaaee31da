import dataclasses
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from pdtls import generate, linalg, model, rankdef
from pdtls.errors import DimensionError, NoSolutionError, NotPositiveDefiniteError
from reference import block_residuals


def diag_problem(t_diag=(2.0, 0.0)):
    return model.ProblemInstance(d=np.diag([1.0, 0.0]), t=np.diag(list(t_diag)))


def gram_b(p):
    return linalg.symmetrize(p.t.T @ p.t)


def singular_target_problem(seed):
    # D = I has full rank, so r = n, yet B = T^T T is singular.
    q = generate.random_rotation(3, seed)
    return model.ProblemInstance(d=np.eye(3), t=q @ np.diag([1.0, 1.0, 0.0]) @ q.T)


def test_partition_spectral_diagonal():
    bp = rankdef.partition_spectral(diag_problem())
    assert bp.r == 1
    assert_allclose(bp.s, [1.0])
    assert_allclose(bp.b_rr, [[4.0]])
    assert_allclose(bp.b_rn, [[0.0]])
    assert_allclose(bp.b_nn, [[0.0]])


def test_partition_spectral_full_rank_degenerate():
    p = model.ProblemInstance(d=np.eye(3), t=np.diag([1.0, 2.0, 3.0]))
    bp = rankdef.partition_spectral(p)
    assert bp.r == 3
    assert bp.b_rn.shape == (3, 0)
    assert bp.b_nn.shape == (0, 0)


def test_partition_reconstruction_invariant():
    rng = np.random.default_rng(21)
    d = rng.standard_normal((9, 4))[:, :2] @ rng.standard_normal((2, 4))
    t = rng.standard_normal((9, 4))
    p = model.ProblemInstance(d=d, t=t)
    b = gram_b(p)
    for partition in (rankdef.partition_spectral, rankdef.partition_cod):
        bp = partition(p)
        assert bp.r == 2
        bt = np.block([[bp.b_rr, bp.b_rn], [bp.b_rn.T, bp.b_nn]])
        assert np.linalg.norm(bt - bp.basis_u.T @ b @ bp.basis_u) <= 1e-11 * np.linalg.norm(b)
        assert np.all(bp.s > 0)
        assert np.all(np.diff(bp.s) <= 0)


def test_partition_cod_matches_spectral_spans():
    rng = np.random.default_rng(22)
    d = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 5))
    p = model.ProblemInstance(d=d, t=np.zeros((8, 5)))
    bps = rankdef.partition_spectral(p)
    bpc = rankdef.partition_cod(p)
    assert bps.r == bpc.r == 3
    angles = sla.subspace_angles(bps.basis_u[:, :3], bpc.basis_u[:, :3])
    assert angles.max() <= 1e-8
    assert_allclose(bpc.s, bps.s, rtol=1e-9)


def test_partition_cod_diagonal_matches_spectral():
    bp = rankdef.partition_cod(diag_problem())
    assert bp.r == 1
    assert_allclose(bp.s, [1.0])
    assert_allclose(bp.b_rr, [[4.0]])
    assert_allclose(np.abs(bp.basis_u), np.eye(2), atol=1e-14)


def test_partition_cod_zero_data():
    p = model.ProblemInstance(d=np.zeros((4, 3)), t=np.zeros((4, 3)))
    bp = rankdef.partition_cod(p)
    assert bp.r == 0
    assert bp.b_nn.shape == (3, 3)


def test_check_consistency_supported_target():
    p = diag_problem((2.0, 0.0))
    bp = rankdef.partition_spectral(p)
    rep = rankdef.check_consistency(bp, 1e-8)
    assert rep.consistent
    assert rep.f_norm == pytest.approx(0.0, abs=1e-15)


def test_check_consistency_forced_inconsistent():
    p = diag_problem((2.0, 1.0))
    bp = rankdef.partition_spectral(p)
    rep = rankdef.check_consistency(bp, rankdef.default_delta(gram_b(p)))
    assert not rep.consistent
    assert rep.f_norm == pytest.approx(1.0, abs=1e-12)
    # Without a delta, the test applies the default itself.
    assert rankdef.check_consistency(bp) == rep


@pytest.mark.parametrize("delta", [np.nan, 0.0, -1e-8, np.inf])
def test_check_consistency_rejects_bad_delta(delta):
    # An infinite threshold would admit any misfit as consistent.
    p = diag_problem()
    with pytest.raises(ValueError):
        rankdef.check_consistency(rankdef.partition_spectral(p), delta)
    with pytest.raises(ValueError):
        rankdef.solve(p, delta=delta)


@pytest.mark.parametrize("n", [2, 3], ids=["r_equals_n", "r_below_n"])
def test_check_consistency_refuses_a_nan_leading_block(n):
    # A B_rr that LAPACK cannot factor is a failed computation, not a
    # verdict on the data: LinAlgError, never NoSolutionError.
    p = model.ProblemInstance(d=np.diag([1.0, 1.0, 0.0][:n]), t=np.eye(n))
    bp = rankdef.partition_spectral(p)
    bp = dataclasses.replace(bp, b_rr=np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        rankdef.check_consistency(bp, 1e-8)


def test_check_consistency_refuses_a_non_finite_misfit():
    # At r = 0 the complement is B itself: entries of 7.5e307 whose
    # Frobenius norm, 2.25e308, is past the largest float.  The partition's
    # scaled B is of order one, so the misfit is measured and the verdict
    # given; the report's f_norm, in the data's units, reads inf.
    p = model.ProblemInstance(d=np.zeros((3, 3)), t=np.full((3, 3), 5e153))
    bp = rankdef.partition_spectral(p)
    rep = rankdef.check_consistency(bp, 1.0)
    assert (bp.r, rep.consistent, rep.f_norm, rep.delta) == (0, False, float("inf"), 1.0)
    # T within 1e-153 of the complement of D's row space: B_rr = 1e-306 I
    # passes the singularity rule, but the core eigenvalue s_2^2 * 1e-306
    # underflows to 0 and the misfit cannot be measured.  No verdict.
    t = np.array([[1e-153, 0.0, 0.0], [0.0, 1e-153, 1e-153], [0.0, 0.0, 1.0]])
    p = model.ProblemInstance(d=np.diag([1.0, 1e-9, 0.0]), t=t)
    bp = rankdef.partition_spectral(p)
    assert bp.r == 2 and bp.core[0][-1] == 0.0
    with pytest.raises(np.linalg.LinAlgError, match="f_norm"):
        rankdef.check_consistency(bp, 1.0)
    with pytest.raises(np.linalg.LinAlgError):
        rankdef.solve(p)


def test_check_consistency_refuses_a_non_finite_default_delta():
    # B = 8.1e307 I6 and the misfit ||B_nn||_F = 1.4e308 are finite, but
    # ||B||_F = 1.98e308 is past the largest float.  The default delta is
    # taken of the partition's scaled B, so it is finite, 1e-8 ||B||_F in
    # the data's units, and the instance is inconsistent: T has a
    # component outside D's row space.
    p = model.ProblemInstance(d=np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), t=9e153 * np.eye(6))
    bp = rankdef.partition_spectral(p)
    rep = rankdef.check_consistency(bp)
    assert (bp.r, rep.consistent) == (3, False)
    assert rep.f_norm == pytest.approx(np.sqrt(3.0) * 9e153**2, rel=1e-12)
    assert rep.delta == pytest.approx(1e-8 * np.sqrt(6.0) * 9e153**2, rel=1e-12)
    with pytest.raises(NoSolutionError):
        rankdef.solve(p)


def test_check_consistency_singular_leading_block():
    # rank(B) < r forces a singular B_rr: reported inconsistent with inf markers
    d3 = np.diag([1.0, 1.0, 0.0])
    t3 = np.diag([1.0, 0.0, 0.0])
    p3 = model.ProblemInstance(d=d3, t=t3)
    bp3 = rankdef.partition_spectral(p3)
    rep = rankdef.check_consistency(bp3, 1e-8)
    assert bp3.r == 2
    assert not rep.consistent
    assert np.isinf(rep.f_norm)
    assert np.isinf(rep.b_rr_condition)


def test_check_consistency_generator_round_trip():
    for seed in range(10):
        spec = generate.GeneratorSpec(m=15, n=6, r=3, seed=seed)
        p = generate.gen_consistent_rankdef(spec)
        bp = rankdef.partition_spectral(p)
        b = gram_b(p)
        rep = rankdef.check_consistency(bp, 1e-8 * max(1.0, np.linalg.norm(b)))
        assert rep.consistent
        assert rep.f_norm <= 1e-8 * np.linalg.norm(b)


def n_row_f_norm(bp, b):
    """Reference misfit from n-row products, ||U_nr^T (B U_r B_rr^{-1} U_r^T B - B)||_F.

    Multiplied on the right by the orthogonal U, the matrix in the norm is
    [0, -(B_nn - B_rn^T B_rr^{-1} B_rn)], so it equals the Schur-complement
    norm that check_consistency reads from the partition.  Only the basis
    is taken from the partition: B and B_rr = U_r^T B U_r are the caller's.
    """
    u_r, u_nr = bp.basis_u[:, : bp.r], bp.basis_u[:, bp.r :]
    k = b @ u_r
    return float(np.linalg.norm(u_nr.T @ (k @ np.linalg.solve(u_r.T @ k, k.T) - b)))


def oracle_instances():
    rng = np.random.default_rng(40)
    yield model.ProblemInstance(d=np.zeros((9, 5)), t=rng.standard_normal((9, 5)))  # r = 0
    d = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 5))  # r = 2
    yield model.ProblemInstance(d=d, t=rng.standard_normal((9, 5)))
    yield model.ProblemInstance(d=rng.standard_normal((9, 5)), t=rng.standard_normal((9, 5)))
    for seed in range(5):  # r = 3, consistent and with T perturbed at 1e-3 relative
        p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=15, n=6, r=3, seed=seed))
        noise = rng.standard_normal(p.t.shape)
        yield p
        yield model.ProblemInstance(
            d=p.d, t=p.t + 1e-3 * np.linalg.norm(p.t) * noise / np.linalg.norm(noise)
        )


@pytest.mark.parametrize("route", ["spectral", "cod"])
def test_check_consistency_matches_n_row_oracle(route):
    partition = getattr(rankdef, f"partition_{route}")
    ranks = set()
    for p in oracle_instances():
        b = gram_b(p)
        bp = partition(p)
        ranks.add(bp.r)
        oracle = n_row_f_norm(bp, b)
        f_norm = rankdef.check_consistency(bp, 1.0).f_norm
        floor = 1e-12 * np.linalg.norm(b)
        if oracle > floor:
            assert abs(f_norm - oracle) <= 1e-9 * oracle
        else:
            assert f_norm <= floor
    assert ranks == {0, 2, 3, 5}


def test_core_root_rejects_indefinite_block():
    # B_rr is nonsingular, so the test admits it, but the core S B_rr S has
    # a negative eigenvalue: no SPD root exists.
    bp = rankdef.BlockPartition(
        r=2, b_rr=np.diag([1.0, -1.0]), b_rn=np.zeros((2, 0)), b_nn=np.zeros((0, 0)),
        s=np.ones(2), basis_u=np.eye(2), b=np.diag([1.0, -1.0]), factor=np.eye(2),
    )
    p = model.ProblemInstance(d=np.eye(2), t=np.eye(2))
    with pytest.raises(NotPositiveDefiniteError):
        rankdef.solve_partition(p, bp, "rankdef_spectral")


@pytest.mark.parametrize("route", ["spectral", "cod"])
def test_solve_rankdef_keeps_core_at_small_rank_tol(route):
    # rank_tol = 1e-14 keeps sigma = 1e-12 in the rank-2 core, which must be
    # solved at that rank and not re-ranked at the default tolerance.
    p = model.ProblemInstance(d=np.diag([1.0, 1e-12, 0.0]), t=np.diag([2.0, 3.0, 0.0]))
    sol = rankdef.solve_rankdef(
        p, route=route, rank_tol=1e-14, choice=rankdef.CompletionChoice.identity(1)
    )
    expected = np.array([2.0, 3e12, 1.0])
    scale = 1.0 / np.sqrt(expected)
    assert_allclose(scale[:, None] * sol.x * scale[None, :], np.eye(3), atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_routes_agree_at_wide_spectrum(seed):
    # eig(A) spans 1..1e-12 on the row space: the rounding of a formed D^T D
    # (~eps * ||A||) is ~2e-4 of its smallest eigenvalue, while the SVD of
    # D's triangle resolves the singular value 1e-6 itself.
    spec = generate.GeneratorSpec(m=40, n=8, r=4, seed=seed, spectrum_a=np.geomspace(1, 1e-12, 4))
    p = generate.gen_consistent_rankdef(spec)
    x_spectral = rankdef.solve_rankdef(p, route="spectral").x
    x_cod = rankdef.solve_rankdef(p, route="cod").x
    assert np.linalg.norm(x_spectral - x_cod) <= 1e-9 * np.linalg.norm(x_cod)


def test_default_delta_survives_an_overflowing_sum_of_squares():
    b = np.diag([3.0, 4.0])
    assert rankdef.default_delta(b) == 1e-8 * 5.0
    # The squares (~1e601) overflow; ||B||_F = 5e300 does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rankdef.default_delta(1e300 * b) == pytest.approx(5e292, rel=1e-15)


def test_verdict_does_not_depend_on_units():
    # 40x8 of rank 4 with T perturbed at 3e-5: f_norm / delta is 4.83 at
    # T x 1 and at T x 0.1; a threshold floored at 1e-8 in absolute terms
    # accepted the second (0.054), since ||B||_F fell below 1.
    p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=40, n=8, r=4, seed=3))
    t = p.t + 3e-5 * np.random.default_rng(7).standard_normal(p.t.shape)
    for k in (1.0, 0.1):
        ref = rankdef.check_consistency(rankdef.partition_spectral(
            model.ProblemInstance(d=p.d, t=k * t)))
        assert not ref.consistent and ref.f_norm / ref.delta == pytest.approx(4.83, rel=1e-3)
        for i in range(-40, 41, 5):
            for j in range(-40, 41, 5):
                scaled = model.ProblemInstance(d=2.0**i * p.d, t=2.0**j * k * t)
                rep = rankdef.check_consistency(rankdef.partition_spectral(scaled))
                assert (rep.rank, rep.consistent) == (4, False)
                assert rep.f_norm / rep.delta == pytest.approx(ref.f_norm / ref.delta, rel=1e-12)
    # A caller's delta is taken to the partition's units, times beta^2: at
    # full rank f_norm = 0 passes any positive delta, also one that
    # underflows there (1e-300 * beta^2 with beta ~ 1e-200).
    p = model.ProblemInstance(d=np.eye(2), t=1e200 * np.eye(2))
    rep = rankdef.check_consistency(rankdef.partition_spectral(p), 1e-300)
    assert (rep.consistent, rep.f_norm, rep.delta) == (True, 0.0, 1e-300)


def test_solve_rankdef_attaches_consistency_report():
    p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=12, n=5, r=3, seed=31))
    b = gram_b(p)
    delta = rankdef.default_delta(b)
    for route in ("spectral", "cod"):
        rep = rankdef.solve_rankdef(p, route=route).consistency
        assert rep.consistent
        assert rep.delta == delta
        assert rep.f_norm < delta


def test_solve_rankdef_diagonal_completion():
    sol = rankdef.solve_rankdef(diag_problem(), choice=rankdef.CompletionChoice.identity(1))
    assert_allclose(sol.x, np.diag([2.0, 1.0]), atol=1e-12)
    sol3 = rankdef.solve_rankdef(
        diag_problem(), choice=rankdef.CompletionChoice(l_free=np.array([[3.0]]))
    )
    assert_allclose(sol3.x, np.diag([2.0, 9.0]), atol=1e-12)


def test_solve_rankdef_rejects_inconsistent():
    with pytest.raises(NoSolutionError) as ei:
        rankdef.solve_rankdef(diag_problem((2.0, 1.0)))
    assert ei.value.report.f_norm >= ei.value.report.delta


@pytest.mark.parametrize("route", ["spectral", "cod"])
def test_full_rank_d_singular_target_refused(route):
    # With r = n there is no (III), but B_rr = Bt is numerically singular, so
    # no SPD X exists; the guard applies at every rank, r = n included.
    for seed in range(5):
        with pytest.raises(NoSolutionError) as ei:
            rankdef.solve_rankdef(singular_target_problem(seed), route=route)
        assert np.isinf(ei.value.report.f_norm)
        assert np.isinf(ei.value.report.b_rr_condition)


def test_kept_refusal_does_not_hold_the_partition(monkeypatch):
    # A caller may keep refusals (a benchmark keeps a pass's outcomes); the
    # partition and the B = T^T T it formed must not stay alive through the
    # exception's traceback.
    made = []

    def track(module, name):
        fn = getattr(module, name)

        def tracked(*args):
            out = fn(*args)
            made.append(weakref.ref(out))
            return out

        monkeypatch.setattr(module, name, tracked)

    track(rankdef, "partition_spectral")
    track(linalg, "gram")
    with pytest.raises(NoSolutionError) as kept:
        rankdef.solve_rankdef(diag_problem((2.0, 1.0)))
    assert kept.value.__traceback__ is not None and kept.value.report is not None
    assert len(made) == 2 and [ref() for ref in made] == [None, None]


def test_solve_rankdef_generator_blocks():
    spec = generate.GeneratorSpec(m=12, n=5, r=3, seed=31)
    p = generate.gen_consistent_rankdef(spec)
    for route in ("spectral", "cod"):
        sol = rankdef.solve_rankdef(p, route=route)
        assert sol.min_eigenvalue > 0
        bp = rankdef.partition_spectral(p)
        res_rr, res_rn = block_residuals(bp, sol.x)
        assert res_rr <= 1e-9
        assert res_rn <= 1e-9


def test_route_agreement():
    for seed in range(6):
        spec = generate.GeneratorSpec(m=14, n=6, r=4, seed=100 + seed)
        p = generate.gen_consistent_rankdef(spec)
        s1 = rankdef.solve_rankdef(p, route="spectral")
        s2 = rankdef.solve_rankdef(p, route="cod")
        assert abs(s1.error_value - s2.error_value) <= 1e-8 * (1.0 + abs(s1.error_value))
        bp = rankdef.partition_spectral(p)
        r1 = block_residuals(bp, s1.x)
        r2 = block_residuals(bp, s2.x)
        assert abs(r1[0] - r2[0]) <= 1e-9
        assert abs(r1[1] - r2[1]) <= 1e-9


def test_assembled_spd_for_many_free_blocks():
    rng = np.random.default_rng(32)
    spec = generate.GeneratorSpec(m=10, n=5, r=2, seed=33)
    p = generate.gen_consistent_rankdef(spec)
    choices = [rankdef.CompletionChoice.identity(3)]
    for _ in range(5):
        l = np.tril(rng.standard_normal((3, 3)))
        np.fill_diagonal(l, np.sign(np.diag(l)) + (np.diag(l) == 0))
        choices.append(rankdef.CompletionChoice(l_free=l))
    for choice in choices:
        sol = rankdef.solve_rankdef(p, choice=choice)
        assert sol.min_eigenvalue > 0
        linalg.cholesky(sol.x)  # must not raise


def test_threshold_monotonicity():
    spec = generate.GeneratorSpec(m=10, n=4, r=2, seed=34, noise_level=1e-6)
    p = generate.gen_consistent_rankdef(spec)
    bp = rankdef.partition_spectral(p, rank_tol=1e-3)
    deltas = np.geomspace(1e-14, 1.0, 15)
    flags = [rankdef.check_consistency(bp, d).consistent for d in deltas]
    # once consistent, consistent at every larger delta
    first = flags.index(True)
    assert all(flags[first:])


def test_noise_continuity_of_f_norm():
    spec = generate.GeneratorSpec(m=12, n=5, r=3, seed=35)
    p = generate.gen_consistent_rankdef(spec)
    rng = np.random.default_rng(36)
    noise = rng.standard_normal(p.t.shape)
    f_norms = []
    for eps in (0.0, 1e-8, 1e-6, 1e-4):
        p_eps = model.ProblemInstance(d=p.d, t=p.t + eps * noise)
        bp = rankdef.partition_spectral(p_eps, rank_tol=1e-3)
        f_norms.append(rankdef.check_consistency(bp, 1.0).f_norm)
    assert f_norms[0] <= 1e-12
    assert all(a <= b + 1e-14 for a, b in zip(f_norms, f_norms[1:]))


def test_noisy_instance_accepted_at_loose_delta():
    spec = generate.GeneratorSpec(m=12, n=5, r=3, seed=37)
    p = generate.inject_noise(generate.gen_consistent_rankdef(spec), 1e-4, seed=38)
    b = gram_b(p)
    sol = rankdef.solve_rankdef(
        p, rank_tol=1e-3, delta=1e-2 * max(1.0, np.linalg.norm(b))
    )
    assert sol.min_eigenvalue > 0


def test_completion_choice_validation():
    with pytest.raises(ValueError):
        rankdef.CompletionChoice(l_free=np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        rankdef.CompletionChoice(l_free=np.diag([1.0, 0.0]))
    with pytest.raises(DimensionError):
        rankdef.solve_rankdef(
            diag_problem(), choice=rankdef.CompletionChoice(l_free=np.eye(2))
        )


def test_zero_data_zero_target():
    p = model.ProblemInstance(d=np.zeros((3, 2)), t=np.zeros((3, 2)))
    sol = rankdef.solve_rankdef(p, delta=1e-8)
    assert_allclose(sol.x, np.eye(2), atol=1e-12)
    # B = 0: the default threshold is the smallest normal float, which
    # admits the zero misfit of D = 0 and refuses T = 0 under full-rank D.
    sol = rankdef.solve_rankdef(p)
    assert sol.consistency.delta == np.finfo(float).tiny
    assert (sol.rank, sol.consistency.f_norm) == (0, 0.0)
    assert np.array_equal(sol.x, np.eye(2))
    with pytest.raises(NoSolutionError):
        rankdef.solve_rankdef(model.ProblemInstance(d=np.eye(2), t=np.zeros((2, 2))))


@pytest.mark.parametrize("route", ["spectral", "cod"])
def test_solution_and_report_carry_the_rank(route):
    p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=12, n=5, r=3, seed=31))
    sol = rankdef.solve_rankdef(p, route=route)
    assert sol.rank == sol.consistency.rank == 3
    with pytest.raises(NoSolutionError) as ei:
        rankdef.solve_rankdef(diag_problem((2.0, 1.0)), route=route)
    assert ei.value.report.rank == 1
    with pytest.raises(NoSolutionError) as ei:
        rankdef.solve_rankdef(singular_target_problem(0), route=route)
    assert ei.value.report.rank == 3


@pytest.mark.parametrize("route", ["spectral", "cod"])
def test_partition_factor_and_b(route):
    # The partition keeps B and a factor of A of the pair (alpha D, beta T),
    # with alpha and beta the powers of four nearest 1 / s_1 and 1 / max|T|:
    # B = beta^2 T^T T, exactly, and factor^T factor = alpha^2 D^T D.
    rng = np.random.default_rng(23)
    d = rng.standard_normal((9, 2)) @ rng.standard_normal((2, 4))
    t = rng.standard_normal((9, 4))
    for k in (0, 3, -3):
        p = model.ProblemInstance(d=10.0**k * d, t=10.0 ** (2 * k) * t)
        bp = getattr(rankdef, f"partition_{route}")(p)
        for factor, size in ((bp.alpha, np.linalg.norm(p.d, 2)), (bp.beta, np.abs(p.t).max())):
            assert np.log2(factor) % 2 == 0 and 0.5 <= factor * size <= 2.0
        assert np.array_equal(bp.b, bp.beta**2 * gram_b(p))
        a = bp.alpha**2 * (p.d.T @ p.d)
        assert bp.factor.shape[1] == 4
        assert np.linalg.norm(bp.factor.T @ bp.factor - a) <= 1e-13 * np.linalg.norm(a)


@pytest.mark.parametrize("route", ["spectral", "cod"])
@pytest.mark.parametrize("seed", range(5))
def test_kkt_residual_vouches_at_wide_spectrum(route, seed):
    # eig(A) spans 1..1e-16 on the row space and X has entries ~1e8.  X A X
    # taken through a formed D^T D carries its rounding (~eps ||A||) into a
    # residual of 1e-2 to 7e-2; through the partition's factor of A it
    # stays near the routes' agreement.
    spec = generate.GeneratorSpec(m=40, n=8, r=4, seed=seed, spectrum_a=np.geomspace(1, 1e-16, 4))
    sol = rankdef.solve_rankdef(generate.gen_consistent_rankdef(spec), route=route)
    assert sol.kkt_residual <= 1e-7

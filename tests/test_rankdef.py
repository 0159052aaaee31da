import numpy as np
import pytest
import scipy.linalg as sla
from numpy.testing import assert_allclose

from pdtls import fullrank, generate, linalg, model, rankdef
from pdtls.errors import DimensionError, NoSolutionError, NotPositiveDefiniteError


def diag_problem(t_diag=(2.0, 0.0)):
    return model.ProblemInstance(d=np.diag([1.0, 0.0]), t=np.diag(list(t_diag)))


def gram_b(p):
    return linalg.symmetrize(p.t.T @ p.t)


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
    rep = rankdef.check_consistency(bp, gram_b(p), 1e-8)
    assert rep.consistent
    assert rep.f_norm == pytest.approx(0.0, abs=1e-15)


def test_check_consistency_forced_inconsistent():
    p = diag_problem((2.0, 1.0))
    bp = rankdef.partition_spectral(p)
    b = gram_b(p)
    rep = rankdef.check_consistency(bp, b, rankdef.default_delta(b))
    assert not rep.consistent
    assert rep.f_norm == pytest.approx(1.0, abs=1e-12)


def test_check_consistency_singular_leading_block():
    # rank(B) < r forces a singular B_rr: reported inconsistent with inf markers
    d3 = np.diag([1.0, 1.0, 0.0])
    t3 = np.diag([1.0, 0.0, 0.0])
    p3 = model.ProblemInstance(d=d3, t=t3)
    bp3 = rankdef.partition_spectral(p3)
    rep = rankdef.check_consistency(bp3, gram_b(p3), 1e-8)
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
        rep = rankdef.check_consistency(bp, b, 1e-8 * max(1.0, np.linalg.norm(b)))
        assert rep.consistent
        assert rep.f_norm <= 1e-8 * np.linalg.norm(b)


def test_core_root_rejects_indefinite_block():
    # The r-by-r core is rooted as solve_rankdef does it, with R = diag(s).
    bp = rankdef.BlockPartition(
        r=2, b_rr=np.diag([1.0, -1.0]), b_rn=np.zeros((2, 0)), b_nn=np.zeros((0, 0)),
        s=np.ones(2), basis_u=np.eye(2),
    )
    with pytest.raises(NotPositiveDefiniteError):
        fullrank.spd_root(np.diag(bp.s), bp.b_rr)


@pytest.mark.parametrize("route", ["spectral", "cod"])
def test_solve_rankdef_keeps_core_at_small_rank_tol(route):
    # rank_tol = 1e-14 keeps sigma = 1e-12 in the rank-2 core, which must be
    # solved at that rank and not re-ranked at the default tolerance.
    p = model.ProblemInstance(d=np.diag([1.0, 1e-12, 0.0]), t=np.diag([2.0, 3.0, 0.0]))
    sol = rankdef.solve_rankdef(p, route=route, rank_tol=1e-14)
    expected = np.array([2.0, 3e12, 1.0])
    scale = 1.0 / np.sqrt(expected)
    assert_allclose(scale[:, None] * sol.x * scale[None, :], np.eye(3), atol=1e-12)


@pytest.mark.parametrize("route", ["spectral", "cod"])
def test_solve_rankdef_is_one_pass(route, spy):
    p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=12, n=5, r=3, seed=31))
    solve_qr = spy(fullrank, "solve_qr")
    make_solution = spy(model, "make_solution")
    numeric_rank = spy(linalg, "numeric_rank")
    rankdef.solve_rankdef(p, route=route)
    assert (solve_qr.call_count, make_solution.call_count, numeric_rank.call_count) == (0, 1, 1)


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
    sol = rankdef.solve_rankdef(diag_problem())
    assert_allclose(sol.x, np.diag([2.0, 1.0]), atol=1e-12)
    sol3 = rankdef.solve_rankdef(
        diag_problem(), choice=rankdef.CompletionChoice(l_free=np.array([[3.0]]))
    )
    assert_allclose(sol3.x, np.diag([2.0, 9.0]), atol=1e-12)


def test_solve_rankdef_rejects_inconsistent():
    with pytest.raises(NoSolutionError) as ei:
        rankdef.solve_rankdef(diag_problem((2.0, 1.0)))
    assert ei.value.report.f_norm >= ei.value.report.delta


def test_solve_rankdef_generator_blocks():
    spec = generate.GeneratorSpec(m=12, n=5, r=3, seed=31)
    p = generate.gen_consistent_rankdef(spec)
    for route in ("spectral", "cod"):
        sol = rankdef.solve_rankdef(p, route=route)
        assert sol.min_eigenvalue > 0
        bp = rankdef.partition_spectral(p)
        res_rr, res_rn = rankdef.block_residuals(bp, sol.x)
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
        r1 = rankdef.block_residuals(bp, s1.x)
        r2 = rankdef.block_residuals(bp, s2.x)
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
    b = gram_b(p)
    deltas = np.geomspace(1e-14, 1.0, 15)
    flags = [rankdef.check_consistency(bp, b, d).consistent for d in deltas]
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
        b = gram_b(p_eps)
        f_norms.append(rankdef.check_consistency(bp, b, 1.0).f_norm)
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

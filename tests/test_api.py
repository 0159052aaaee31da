import weakref

import numpy as np
import pytest
from scipy.linalg import lapack

import pdtls
from pdtls import cli, fullrank, generate, io, linalg, model, rankdef
from pdtls.errors import NoSolutionError, RankDeficiencyError


def full_problem():
    p, _ = generate.gen_full_rank(generate.GeneratorSpec(m=12, n=5, r=5, seed=31))
    return p


def rankdef_problem():
    return generate.gen_consistent_rankdef(generate.GeneratorSpec(m=12, n=5, r=3, seed=31))


ROUTES = {
    "qr": fullrank.solve_qr,
    "spectral": fullrank.solve_spectral,
    "rankdef_spectral": lambda p: rankdef.solve_rankdef(p, route="spectral"),
    "rankdef_cod": lambda p: rankdef.solve_rankdef(p, route="cod"),
}


# Every method on the data it accepts: both kinds unless it refuses rank deficiency.
METHOD_KINDS = [
    ("auto", "full"), ("auto", "rankdef"), ("qr", "full"), ("spectral", "full"),
    ("rankdef_spectral", "full"), ("rankdef_spectral", "rankdef"),
    ("rankdef_cod", "full"), ("rankdef_cod", "rankdef"),
]


@pytest.mark.parametrize("method", sorted(ROUTES))
def test_solve_matches_the_route(method):
    p = full_problem() if method in ("qr", "spectral") else rankdef_problem()
    sol, ref = pdtls.solve(p, method), ROUTES[method](p)
    assert np.array_equal(sol.x, ref.x)
    assert (sol.method_tag, sol.rank, sol.consistency) == (ref.method_tag, ref.rank, ref.consistency)
    assert (sol.error_value, sol.kkt_residual) == (ref.error_value, ref.kkt_residual)


def test_auto_picks_the_route_from_the_rank():
    sol = pdtls.solve(full_problem())
    assert (sol.method_tag, sol.rank) == ("qr", 5)
    sol = pdtls.solve(rankdef_problem())
    assert (sol.method_tag, sol.rank, sol.consistency.rank) == ("rankdef_spectral", 3, 3)


def test_method_names_and_options():
    p = rankdef_problem()
    assert pdtls.solve(p, "rankdef-cod").method_tag == "rankdef_cod"
    with pytest.raises(ValueError):
        pdtls.solve(p, "cod")
    with pytest.raises(RankDeficiencyError):
        pdtls.solve(p, "qr")
    # rank_tol and delta reach the route.
    assert pdtls.solve(p, delta=0.5).consistency.delta == 0.5
    q = model.ProblemInstance(d=np.diag([1.0, 1e-12, 0.0]), t=np.diag([2.0, 3.0, 0.0]))
    assert pdtls.solve(q, rank_tol=1e-14).rank == 2


def test_refusal_carries_the_rank():
    p = model.ProblemInstance(d=np.diag([1.0, 0.0]), t=np.diag([2.0, 1.0]))
    for method, tag in (("auto", "rankdef_spectral"), ("rankdef_spectral", "rankdef_spectral"),
                        ("rankdef-cod", "rankdef_cod")):
        with pytest.raises(NoSolutionError) as ei:
            pdtls.solve(p, method)
        assert (ei.value.report.rank, ei.value.method_tag) == (1, tag)


@pytest.mark.parametrize("method, kind", METHOD_KINDS)
def test_one_factor_of_d_and_one_gram_of_t(method, kind, spy, grams):
    # One pass: one factor of D, no SVD of D beside it, one B, the Gram
    # matrix of T times a power of four, no A = D^T D, and one solution
    # built, by no other route's entry point.
    plain = full_problem() if kind == "full" else rankdef_problem()
    p = grams.watch(plain)
    factors = {name: spy(linalg, name) for name in ("qr_svd_decompose", "rank_revealing_qr")}
    calls = [spy(np.linalg, "svd"), spy(model, "make_solution"), spy(fullrank, "solve_qr")]
    x = pdtls.solve(p, method).x
    factored = [c.args[0] for f in factors.values() for c in f.call_args_list]
    assert len(factored) == 1 and factored[0] is p.d
    assert (grams.count("t"), grams.count("d")) == (1, 0)
    assert [c.call_count for c in calls] == [0, 1, 0]
    # Watching the products changes nothing in X.
    assert np.array_equal(x, pdtls.solve(plain, method).x)


@pytest.mark.parametrize("method, kind", METHOD_KINDS)
def test_d_is_read_by_one_qr_kernel_call(method, kind, spy):
    # Every method reads D's m rows once, through linalg's R-only QR; the
    # complete-orthogonal route pivots the n-by-n triangle, not D.
    p = full_problem() if kind == "full" else rankdef_problem()
    kernel = spy(linalg, "_qr_triangle")
    pivoted = spy(lapack, "dgeqp3")
    pdtls.solve(p, method)
    assert kernel.call_count == 1 and kernel.call_args.args[0] is p.d
    shapes = [c.args[0].shape for c in pivoted.call_args_list]
    assert shapes == ([(p.n, p.n)] if method == "rankdef_cod" else [])


@pytest.mark.parametrize("method, kind", METHOD_KINDS)
def test_one_eigendecomposition_and_one_cholesky(method, kind, spy):
    # The consistency test and the solve share one eigendecomposition of the
    # r-by-r core; make_solution's Cholesky factor of X is the only one, and
    # no triangular system is solved.
    # Singular values are taken of B_rr, for the consistency test, and on the
    # pivoted route first of the n-by-n pivoted triangle, to decide the rank.
    p = full_problem() if kind == "full" else rankdef_problem()
    calls = [spy(linalg, "symmetric_eigenpairs"), spy(linalg, "cholesky"), spy(lapack, "dtrtrs")]
    valued = spy(linalg, "singular_values")
    rep = pdtls.solve(p, method).consistency
    assert [c.call_count for c in calls] == [1, 1, 0]
    pivoted = [(p.n, p.n)] if method == "rankdef_cod" else []
    assert [c.args[0].shape for c in valued.call_args_list] == pivoted + [(rep.rank, rep.rank)]
    if kind == "full":  # the complement is empty: nothing to measure
        assert (rep.rank, rep.f_norm, rep.consistent) == (p.n, 0.0, True)
        assert rep.b_rr_condition == pytest.approx(np.linalg.cond(p.t.T @ p.t), rel=1e-8)


@pytest.mark.parametrize("method, kind", METHOD_KINDS)
def test_inputs_are_checked_where_they_enter(method, kind, spy):
    # ProblemInstance checked D and T; no kernel of the solve checks them again.
    p = full_problem() if kind == "full" else rankdef_problem()
    checked = spy(linalg, "as_matrix")
    rankdef.solve(p, method)
    assert not [a for c in checked.call_args_list for a in c.args if a is p.d or a is p.t]


def scaled(p, k):
    return model.ProblemInstance(d=k * p.d, t=k * p.t)


def full_rank_cond_1e9(seed):
    # cond(D) = 1e9, noise-free: D's numeric rank is below n and the
    # instance is refused.
    spec = generate.GeneratorSpec(m=200, n=12, r=12, seed=seed,
                                  spectrum_a=np.geomspace(1.0, 1e-9, 12))
    return generate.gen_full_rank(spec)[0]


def rank_7():
    return generate.gen_consistent_rankdef(generate.GeneratorSpec(m=200, n=12, r=7, seed=0))


# Finite data near either end of the float range: in the caller's units
# the core S B_rr S underflows to 0 (x1e-160) or overflows (x1e150, where
# the sum of squares behind ||B||_F overflows too).
SCALED = {
    "full_rank_x1e-160_seed0": (lambda: full_rank_cond_1e9(0), 1e-160),
    "full_rank_x1e-160_seed1": (lambda: full_rank_cond_1e9(1), 1e-160),
    "rank_7_x1e-160": (rank_7, 1e-160),
    "rank_7_x1e150": (rank_7, 1e150),
}


def outcome(p, method):
    """(verdict, rank, X) of pdtls.solve, X None on a NoSolutionError."""
    try:
        sol = pdtls.solve(p, method)
    except NoSolutionError as exc:
        return "NoSolutionError", exc.report.rank, None
    return "ok", sol.rank, sol.x


@pytest.mark.parametrize("method", ["auto", "rankdef_cod"])
@pytest.mark.parametrize("case", sorted(SCALED))
def test_no_verdict_on_arithmetic_that_never_ran(case, method):
    # The solve runs on the partition's scaled pair, so the scaled data get
    # the verdict and rank of the data as generated and, when solvable,
    # their X, within test_properties' rule: never a verdict that the
    # arithmetic under- or overflowed into.
    make, k = SCALED[case]
    p = make()
    verdict, rank, x = outcome(scaled(p, k), method)
    ref_verdict, ref_rank, ref_x = outcome(p, method)
    assert (verdict, rank) == (ref_verdict, ref_rank)
    if ref_x is not None:
        assert np.linalg.norm(x - ref_x) <= 1e-10 * np.linalg.norm(ref_x)


@pytest.mark.parametrize("solve", [fullrank.solve_qr, fullrank.solve_spectral, pdtls.solve],
                         ids=["solve_qr", "solve_spectral", "api_solve"])
def test_full_rank_is_one_partition_solve(solve, spy):
    p = full_problem()
    calls = {name: spy(rankdef, name) for name in ("check_consistency", "solve_partition")}
    svd = spy(np.linalg, "svd")
    sol = solve(p)
    assert [c.call_count for c in calls.values()] == [1, 1]
    assert not any(c.args[0] is p.t for c in svd.call_args_list)
    assert (sol.rank, sol.consistency.rank, sol.consistency.f_norm) == (5, 5, 0.0)


@pytest.mark.parametrize("method", ["auto", "qr", "spectral", "rankdef_spectral"])
@pytest.mark.parametrize(
    "d_diag,t_diag",
    [((1.0, 0.0), (2.0, 1.0)), ((1.0, 1.0), (1.0, 0.0))],
    ids=["deficient_d", "deficient_t"],
)
def test_kept_refusal_does_not_hold_the_factor(monkeypatch, method, d_diag, t_diag):
    # A caller may keep refusals; neither the factor of D nor its triangle
    # may stay alive through the exception's traceback.
    kept_alive = []
    factor = linalg.qr_svd_decompose

    def tracked(*args):
        f = factor(*args)
        kept_alive.extend((weakref.ref(f), weakref.ref(f.r)))
        return f

    monkeypatch.setattr(linalg, "qr_svd_decompose", tracked)
    p = model.ProblemInstance(d=np.diag(d_diag), t=np.diag(t_diag))
    with pytest.raises((RankDeficiencyError, NoSolutionError)) as kept:
        pdtls.solve(p, method)
    assert kept.value.__traceback__ is not None
    assert kept_alive and all(ref() is None for ref in kept_alive)


NUMPY_LINALG = ("eigh", "eigvalsh", "svd", "solve", "cholesky", "qr", "norm")


def test_solve_path_makes_no_numpy_linalg_factorization(monkeypatch, tmp_path):
    # Every n-by-n factorization of a solve calls LAPACK, and every norm
    # BLAS, through linalg's wrappers.
    full = full_problem()
    deficient = rankdef_problem()
    noise = np.random.default_rng(5).standard_normal(deficient.t.shape)
    inconsistent = model.ProblemInstance(d=deficient.d, t=deficient.t + 1e-3 * noise)
    singular_t = model.ProblemInstance(d=full.d, t=full.t[:, [0, 1, 2, 3, 3]])
    problems = [full, deficient, inconsistent, singular_t]
    for name, p in (("full", full), ("inconsistent", inconsistent)):
        io.write_matrix(tmp_path / f"{name}_D.mtx", p.d)
        io.write_matrix(tmp_path / f"{name}_T.mtx", p.t)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called on the solve path")
        return call

    for name in NUMPY_LINALG:
        monkeypatch.setattr(np.linalg, name, forbidden(name))
    outcomes = set()
    for p in problems:
        for method in ("auto", "qr", "spectral", "rankdef_spectral", "rankdef_cod"):
            try:
                pdtls.solve(p, method)
                outcomes.add("ok")
            except (NoSolutionError, RankDeficiencyError) as exc:
                outcomes.add(type(exc).__name__)
    assert outcomes == {"ok", "NoSolutionError", "RankDeficiencyError"}
    for name, code in (("full", 0), ("inconsistent", 2)):
        argv = ["solve", "--data", tmp_path / f"{name}_D.mtx",
                "--target", tmp_path / f"{name}_T.mtx",
                "--out", tmp_path / f"{name}_X.mtx", "--report", tmp_path / f"{name}.json"]
        assert cli.main([str(a) for a in argv]) == code

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdtls import bench, fullrank, generate, model, rankdef


def make_records(times):
    """Records for a times matrix: times[p][s] or None for a failure."""
    records = []
    for i, row in enumerate(times):
        for j, t in enumerate(row):
            if t is None:
                records.append(bench.RunRecord(f"p{i}", f"s{j}", "failed", 0.1))
            else:
                records.append(
                    bench.RunRecord(
                        f"p{i}", f"s{j}", "ok", t,
                        error_value=1.0, kkt_residual=0.0,
                        min_eigenvalue=1.0, effective_rank=1, error_entry_std=1.0,
                    )
                )
    return records


def rho_at(profile, solver, tau):
    idx = np.searchsorted(profile.taus, tau, side="right") - 1
    return profile.rho[solver][idx]


def test_hand_profile():
    profile = bench.dolan_more_profile(make_records([[1, 2], [2, 2], [4, 1]]), "time")
    assert rho_at(profile, "s0", 1.0) == pytest.approx(2 / 3)
    assert rho_at(profile, "s1", 1.0) == pytest.approx(2 / 3)
    assert rho_at(profile, "s1", 2.0) == pytest.approx(1.0)
    assert rho_at(profile, "s0", 4.0) == pytest.approx(1.0)


def test_profile_invariants():
    profile = bench.dolan_more_profile(make_records([[1, 3], [5, 2], [2, None]]), "time")
    n_p = 3
    for s in profile.solver_ids:
        rho = profile.rho[s]
        assert np.all(np.diff(rho) >= 0)
        assert np.all(np.abs(rho * n_p - np.round(rho * n_p)) < 1e-12)
    # terminal value is the success fraction
    assert profile.rho["s0"][-1] == pytest.approx(1.0)
    assert profile.rho["s1"][-1] == pytest.approx(2 / 3)
    # every problem has a ratio-1 winner, so the rho values at tau=1 sum to >= 1
    at_one = np.searchsorted(profile.taus, 1.0, side="right") - 1
    assert sum(profile.rho[s][at_one] for s in profile.solver_ids) >= 1.0


def test_single_solver_profile():
    profile = bench.dolan_more_profile(make_records([[1.0], [2.0], [0.5]]), "time")
    assert_allclose(profile.rho["s0"], 1.0)


def test_all_failed_solver():
    profile = bench.dolan_more_profile(make_records([[1, None], [2, None]]), "time")
    assert_allclose(profile.rho["s1"], 0.0)
    assert profile.rho["s0"][-1] == pytest.approx(1.0)


def test_no_success_on_a_problem_raises():
    with pytest.raises(ValueError):
        bench.dolan_more_profile(make_records([[None, None]]), "time")


def test_empty_records_raises():
    with pytest.raises(ValueError):
        bench.dolan_more_profile([], "time")


def test_run_suite_single():
    spec = generate.GeneratorSpec(m=10, n=3, r=3, seed=0)
    p, _ = generate.gen_full_rank(spec)
    records = bench.run_suite([("p0", p)], {"qr": fullrank.solve_qr}, repetitions=1)
    assert len(records) == 1
    assert records[0].status == "ok"
    assert records[0].kkt_residual <= 1e-9
    assert records[0].effective_rank == 3


def test_run_suite_records_failure():
    p_bad = model.ProblemInstance(d=np.diag([1.0, 0.0]), t=np.diag([2.0, 1.0]))
    records = bench.run_suite(
        [("bad", p_bad)], {"rankdef_spectral": rankdef.solve_rankdef}, repetitions=1
    )
    assert records[0].status == "failed"
    assert records[0].error_value is None
    assert records[0].wall_time > 0


def overflowing_pair():
    """A 200x12 full-rank instance and a copy with D scaled by 1e-200 and T
    by 1e200: finite data whose solution X ~ 1e400 X0 is past the float
    range, which raises ValueError."""
    p, _ = generate.gen_full_rank(generate.GeneratorSpec(m=200, n=12, r=12, seed=0))
    return p, model.ProblemInstance(d=p.d * 1e-200, t=p.t * 1e200)


def test_run_suite_records_a_value_error_as_a_failed_run():
    plain, scaled = overflowing_pair()
    with pytest.raises(ValueError, match="solution X"):
        fullrank.solve_qr(scaled)
    records = bench.run_suite(
        [("plain", plain), ("scaled", scaled)], {"qr": fullrank.solve_qr}, repetitions=2
    )
    assert [(r.problem_id, r.status) for r in records] == [("plain", "ok"), ("scaled", "failed")]
    assert records[1].error_value is None and records[1].wall_time > 0


def test_run_suite_deterministic_metrics():
    problems = []
    for i in range(10):
        spec = generate.GeneratorSpec(m=12, n=4, r=4, seed=i, noise_level=1e-3)
        p, _ = generate.gen_full_rank(spec)
        problems.append((f"p{i:02d}", p))
    solvers = {"qr": fullrank.solve_qr, "baseline": bench.baseline_ols_projection}
    rec1 = bench.run_suite(problems, solvers, repetitions=1)
    rec2 = bench.run_suite(problems, solvers, repetitions=1)
    assert len(rec1) == 20
    for a, b in zip(rec1, rec2):
        assert (a.problem_id, a.solver_id, a.status) == (b.problem_id, b.solver_id, b.status)
        assert a.error_value == b.error_value
        assert a.kkt_residual == b.kkt_residual
        assert a.effective_rank == b.effective_rank
        assert a.error_entry_std == b.error_entry_std


def test_baseline_recovers_consistent_solution():
    spec = generate.GeneratorSpec(m=20, n=5, r=5, seed=3)
    p, x0 = generate.gen_full_rank(spec)
    sol = bench.baseline_ols_projection(p)
    assert np.linalg.norm(sol.x - x0) <= 1e-8 * np.linalg.norm(x0)
    assert sol.method_tag == "baseline"


def test_baseline_identity_data_is_projected_symmetric_part():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    p = model.ProblemInstance(d=np.eye(3), t=t)
    sol = bench.baseline_ols_projection(p)
    sym = 0.5 * (t + t.T)
    w, u = np.linalg.eigh(sym)
    expected = (u * np.maximum(w, 1e-8 * w.max())) @ u.T
    assert_allclose(sol.x, expected, atol=1e-12)


def test_baseline_singular_a_raises():
    p = model.ProblemInstance(d=np.diag([1.0, 0.0]), t=np.eye(2))
    with pytest.raises(np.linalg.LinAlgError):
        bench.baseline_ols_projection(p)


def test_baseline_error_never_below_global_minimum():
    # the direct solver is the global minimizer of the error functional,
    # so the baseline's error is never smaller (recorded comparison)
    wins = 0
    for i in range(100):
        spec = generate.GeneratorSpec(m=20, n=5, r=5, seed=500 + i)
        p, _ = generate.gen_full_rank(spec)
        p = generate.inject_noise(p, 1e-2, 700 + i)
        ours = fullrank.solve_qr(p)
        base = bench.baseline_ols_projection(p)
        if base.error_value >= ours.error_value - 1e-12:
            wins += 1
    assert wins >= 90


def test_effective_rank():
    assert bench.effective_rank(np.diag([1.0, 1e-3, 1e-12])) == 2
    assert bench.effective_rank(np.eye(4)) == 4


def test_compare_records():
    records = [
        bench.RunRecord("p0", "qr", "ok", 0.1, error_entry_std=1.0, effective_rank=3),
        bench.RunRecord("p0", "baseline", "ok", 0.1, error_entry_std=2.0, effective_rank=3),
        bench.RunRecord("p1", "qr", "ok", 0.1, error_entry_std=5.0, effective_rank=3),
        bench.RunRecord("p1", "baseline", "ok", 0.1, error_entry_std=2.0, effective_rank=4),
        bench.RunRecord("p2", "qr", "ok", 0.1, error_entry_std=1.0, effective_rank=2),
        bench.RunRecord("p2", "baseline", "failed", 0.1),
    ]
    out = bench.compare_records(records, "qr", "baseline", "error_entry_std")
    assert out["total"] == 3
    assert out["wins"] == 2  # p0 and the failed-baseline p2
    out = bench.compare_records(records, "qr", "baseline", "effective_rank")
    assert out["wins"] == 3


def test_records_csv_round_trip(tmp_path):
    records = make_records([[1, None], [2, 3]])
    path = tmp_path / "records.csv"
    bench.write_records_csv(records, path)
    back = bench.read_records_csv(path)
    assert back == sorted(records, key=lambda r: (r.problem_id, r.solver_id)) or back == records
    header = path.read_text().splitlines()[0]
    assert header.startswith("problem_id,solver_id,status,wall_time")


def test_profile_csv(tmp_path):
    profile = bench.dolan_more_profile(make_records([[1, 2], [2, 2], [4, 1]]), "time")
    path = tmp_path / "profile.csv"
    bench.write_profile_csv(profile, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,s0,s1"
    assert len(lines) == 1 + len(profile.taus)

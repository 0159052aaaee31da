"""Acceptance suite.

One test per criterion; each prints a [PASS]/[FAIL] line (run with -s to
see them on success).  Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np
import pytest

from pdtls import bench, fullrank, generate, io, linalg, model, rankdef
from pdtls.cli import main
from pdtls.errors import NotPositiveDefiniteError
from reference import block_residuals


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def fullrank_suite():
    """200 seeded full-rank instances (m <= 200, n <= 50), solved both ways."""
    rng = np.random.default_rng(2026)
    results = []
    t0 = time.perf_counter()
    for i in range(200):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(n, 201))
        p, _ = generate.gen_full_rank(generate.GeneratorSpec(m=m, n=n, r=n, seed=i))
        if i % 3 == 1:
            p = generate.inject_noise(p, 1e-3, 10_000 + i)
        elif i % 3 == 2:
            p = generate.inject_noise(p, 1e-2, 10_000 + i)
        results.append((p, fullrank.solve_qr(p), fullrank.solve_spectral(p)))
    return results, time.perf_counter() - t0


def test_criterion_1_kkt_exactness(fullrank_suite):
    results, elapsed = fullrank_suite
    worst_kkt = max(max(sq.kkt_residual, ss.kkt_residual) for _, sq, ss in results)
    min_eig = min(min(sq.min_eigenvalue, ss.min_eigenvalue) for _, sq, ss in results)
    ok = worst_kkt <= 1e-9 and min_eig > 0 and elapsed < 30.0
    _report(
        "criterion 1 (KKT exactness, 200 instances)",
        ok,
        f"max kkt={worst_kkt:.2e}, min eig={min_eig:.2e}, elapsed={elapsed:.1f}s",
    )


def _geometric_mean_root(p):
    """A^{-1/2} (A^{1/2} B A^{1/2})^{1/2} A^{-1/2} from eigh, apart from pdtls."""
    w, u = np.linalg.eigh(p.d.T @ p.d)
    a_half = (u * np.sqrt(w)) @ u.T
    a_half_inv = (u / np.sqrt(w)) @ u.T
    w2, u2 = np.linalg.eigh(a_half @ (p.t.T @ p.t) @ a_half)
    return a_half_inv @ ((u2 * np.sqrt(w2)) @ u2.T) @ a_half_inv


def test_criterion_2_solver_agreement(fullrank_suite):
    results, _ = fullrank_suite
    worst = 0.0
    for p, sq, ss in results:
        x_ref = _geometric_mean_root(p)
        for sol in (sq, ss):
            worst = max(worst, np.linalg.norm(sol.x - x_ref) / np.linalg.norm(x_ref))
    _report("criterion 2 (agreement with the closed form)", worst <= 1e-8,
            f"max rel dist={worst:.2e}")


def test_criterion_3_error_functional_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        m = n + int(rng.integers(0, 30))
        p = model.ProblemInstance(
            d=rng.standard_normal((m, n)), t=rng.standard_normal((m, n))
        )
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        x = linalg.symmetrize((q * rng.uniform(0.5, 2.0, n)) @ q.T)
        et = model.error_trace(p, x)
        ef = model.error_frobenius(p, x)
        worst = max(worst, abs(et - ef) / (1.0 + abs(et)))
    _report("criterion 3 (error equivalence)", worst <= 1e-9, f"max rel diff={worst:.2e}")


def test_criterion_4_analytic_oracles():
    p1 = model.ProblemInstance(d=np.array([[1.0], [1.0]]), t=np.array([[1.0], [2.0]]))
    s1 = fullrank.solve_qr(p1)
    ok1 = abs(s1.x[0, 0] - np.sqrt(2.5)) <= 1e-12 and abs(
        s1.error_value - (2.0 * np.sqrt(10.0) - 6.0)
    ) <= 1e-12

    p2 = model.ProblemInstance(d=np.eye(2), t=np.array([[1.0, 1.0], [0.0, 1.0]]))
    s2 = fullrank.solve_qr(p2)
    x_ref = np.array([[2.0, 1.0], [1.0, 3.0]]) / np.sqrt(5.0)
    ok2 = np.max(np.abs(s2.x - x_ref)) <= 1e-10 and abs(
        s2.error_value - (2.0 * np.sqrt(5.0) - 4.0)
    ) <= 1e-10
    _report("criterion 4 (analytic oracles)", ok1 and ok2,
            f"scalar ok={ok1}, identity-data ok={ok2}")


def test_criterion_5_global_minimum_probe():
    rng = np.random.default_rng(55)
    violations = 0
    for i in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(n, 41))
        p, _ = generate.gen_full_rank(generate.GeneratorSpec(m=m, n=n, r=n, seed=300 + i))
        p = generate.inject_noise(p, 1e-2, 400 + i)
        sol = fullrank.solve_qr(p)
        e_star = sol.error_value
        scale = 1e-3 * np.linalg.norm(sol.x)
        done = 0
        while done < 100:
            delta = linalg.symmetrize(rng.standard_normal((n, n)))
            delta *= scale / np.linalg.norm(delta)
            try:
                e = model.error_trace(p, sol.x + delta)
            except NotPositiveDefiniteError:
                continue
            done += 1
            if e < e_star - 1e-12:
                violations += 1
    _report("criterion 5 (global minimum probe)", violations == 0,
            f"{violations} decreasing perturbations out of 2000")


def test_criterion_6_rankdef_pipeline(tmp_path):
    rng = np.random.default_rng(66)
    worst_res = 0.0
    for i in range(100):
        n = int(rng.integers(2, 21))
        r = int(rng.integers(1, n))
        m = int(rng.integers(n, 2 * n + 20))
        p = generate.gen_consistent_rankdef(
            generate.GeneratorSpec(m=m, n=n, r=r, seed=600 + i)
        )
        b = linalg.symmetrize(p.t.T @ p.t)
        delta = 1e-8 * np.linalg.norm(b)
        bp = rankdef.partition_spectral(p)
        assert rankdef.check_consistency(bp, delta).consistent
        for route in ("spectral", "cod"):
            sol = rankdef.solve_rankdef(p, route=route, delta=delta)
            assert sol.min_eigenvalue > 0
            res_rr, res_rn = block_residuals(bp, sol.x)
            worst_res = max(worst_res, res_rr, res_rn)
    ok = worst_res <= 1e-9

    io.write_matrix(tmp_path / "D.mtx", np.diag([1.0, 0.0]))
    io.write_matrix(tmp_path / "T.mtx", np.diag([2.0, 1.0]))
    code = main(["solve", "--data", str(tmp_path / "D.mtx"),
                 "--target", str(tmp_path / "T.mtx")])
    _report("criterion 6 (rank-deficient pipeline)", ok and code == 2,
            f"max block residual={worst_res:.2e}, inconsistent exit code={code}")


def test_criterion_7_free_block_behavior():
    rng = np.random.default_rng(77)
    worst_change = 0.0
    for i in range(10):
        n = int(rng.integers(3, 10))
        r = int(rng.integers(1, n))
        p = generate.gen_consistent_rankdef(
            generate.GeneratorSpec(m=2 * n, n=n, r=r, seed=700 + i)
        )
        l = np.tril(rng.standard_normal((n - r, n - r)))
        np.fill_diagonal(l, np.where(np.diag(l) == 0, 1.0, np.sign(np.diag(l))))
        bp = rankdef.partition_spectral(p)
        blocks = []
        for choice in (rankdef.CompletionChoice.identity(n - r),
                       rankdef.CompletionChoice(l_free=l)):
            sol = rankdef.solve_rankdef(p, choice=choice)
            assert sol.min_eigenvalue > 0
            linalg.cholesky(sol.x)
            xt = bp.basis_u.T @ sol.x @ bp.basis_u
            blocks.append((xt[:r, :r], xt[:r, r:]))
        worst_change = max(
            worst_change,
            np.max(np.abs(blocks[0][0] - blocks[1][0])),
            np.max(np.abs(blocks[0][1] - blocks[1][1])) if r < n else 0.0,
        )
    _report("criterion 7 (free block)", worst_change <= 1e-10,
            f"max leading-block change={worst_change:.2e}")


def test_criterion_8_dolan_more():
    records = []
    times = [[1.0, 2.0], [2.0, 2.0], [4.0, 1.0]]
    for i, row in enumerate(times):
        for j, t in enumerate(row):
            records.append(bench.RunRecord(f"p{i}", f"s{j}", "ok", t))
    profile = bench.dolan_more_profile(records, "time")

    def rho_at(s, tau):
        return profile.rho[s][np.searchsorted(profile.taus, tau, side="right") - 1]

    exact = (
        rho_at("s0", 1.0) == 2.0 / 3.0
        and rho_at("s1", 2.0) == 1.0
        and rho_at("s0", 4.0) == 1.0
    )
    nondecreasing = all(np.all(np.diff(profile.rho[s]) >= 0) for s in profile.solver_ids)
    terminal = all(profile.rho[s][-1] == 1.0 for s in profile.solver_ids)
    _report("criterion 8 (Dolan-More hand suite)", exact and nondecreasing and terminal,
            f"exact={exact}, nondecreasing={nondecreasing}, terminal={terminal}")


def test_criterion_9_qualitative_comparison(tmp_path):
    problems = []
    for i in range(100):
        p, _ = generate.gen_full_rank(generate.GeneratorSpec(m=40, n=8, r=8, seed=900 + i))
        problems.append((f"noisy-{i:03d}", generate.inject_noise(p, 1e-2, 950 + i)))
    solvers = {"qr": fullrank.solve_qr, "baseline": bench.baseline_ols_projection}
    records = bench.run_suite(problems, solvers, repetitions=1)
    std_cmp = bench.compare_records(records, "qr", "baseline", "error_entry_std")
    rank_cmp = bench.compare_records(records, "qr", "baseline", "effective_rank")
    report_path = tmp_path / "bench_report.json"
    report_path.write_text(json.dumps({"baseline_comparisons": [std_cmp, rank_cmp]}, indent=2))
    ok = std_cmp["win_rate"] >= 0.6 and rank_cmp["win_rate"] >= 0.6
    _report(
        "criterion 9 (beats baseline on noisy suite)",
        ok,
        f"error_entry_std win rate={std_cmp['win_rate']:.2f}, "
        f"effective_rank win rate={rank_cmp['win_rate']:.2f} (recorded in {report_path.name})",
    )


def test_criterion_10_determinism(tmp_path):
    dirs = [tmp_path / "g1", tmp_path / "g2"]
    for d in dirs:
        assert main(["generate", "--m", "18", "--n", "6", "--rank", "4",
                     "--seed", "31", "--out-dir", str(d)]) == 0
    files_equal = all(
        (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        for name in ("D.mtx", "T.mtx")
    )

    tables = []
    for name in ("r1.csv", "r2.csv"):
        records = tmp_path / name
        assert main(["bench", "--problems", "5", "--m", "15", "--n", "5", "--rank", "5",
                     "--seed", "17", "--noise", "1e-3", "--solvers", "qr,spectral,baseline",
                     "--repetitions", "1", "--records", str(records),
                     "--report", str(tmp_path / "rep.json")]) == 0
        rows = [line.split(",") for line in records.read_text().splitlines()]
        time_col = rows[0].index("wall_time")
        tables.append([[c for k, c in enumerate(r) if k != time_col] for r in rows])
    bench_equal = tables[0] == tables[1]
    _report("criterion 10 (determinism)", files_equal and bench_equal,
            f"generated files identical={files_equal}, bench columns identical={bench_equal}")

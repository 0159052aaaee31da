import json

import numpy as np

from pdtls import io, linalg, model, rankdef
from pdtls.cli import main


def run(args):
    return main([str(a) for a in args])


def test_generate_check_solve_round_trip(tmp_path, capsys):
    assert run(["generate", "--m", 20, "--n", 5, "--rank", 3, "--seed", 7,
                "--out-dir", tmp_path]) == 0
    d, t = tmp_path / "D.mtx", tmp_path / "T.mtx"
    assert d.exists() and t.exists()
    assert run(["check", "--data", d, "--target", t]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is True
    assert report["rank_r"] == 3

    out = tmp_path / "X.mtx"
    rep_path = tmp_path / "report.json"
    assert run(["solve", "--data", d, "--target", t, "--out", out,
                "--report", rep_path]) == 0
    report = json.loads(rep_path.read_text())
    assert report["method"] == "rankdef-spectral"
    assert report["kkt_residual"] <= 1e-9
    p = model.ProblemInstance(d=io.read_matrix(d), t=io.read_matrix(t))
    b = linalg.symmetrize(p.t.T @ p.t)
    delta = rankdef.default_delta(b)
    assert report["consistent"] is True
    assert report["f_norm"] < report["delta"]
    assert report["delta"] == delta
    x = io.read_matrix(out)
    assert np.all(np.linalg.eigvalsh(x) > 0)

    # The library attaches the same consistency test to its solution.
    sol = rankdef.solve_rankdef(p)
    assert sol.consistency == rankdef.check_consistency(rankdef.partition_spectral(p), b, delta)
    assert report["f_norm"] == sol.consistency.f_norm


def test_solve_rankdef_partitions_once(tmp_path, spy):
    assert run(["generate", "--m", 20, "--n", 5, "--rank", 3, "--seed", 7,
                "--out-dir", tmp_path]) == 0
    partition = spy(rankdef, "partition_spectral")
    check = spy(rankdef, "check_consistency")
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                "--report", tmp_path / "report.json"]) == 0
    assert (partition.call_count, check.call_count) == (1, 1)


def test_solve_rankdef_honours_small_rank_tol(tmp_path):
    # The rank-2 core keeps sigma = 1e-12 at --rank-tol 1e-14.
    io.write_matrix(tmp_path / "D.mtx", np.diag([1.0, 1e-12, 0.0]))
    io.write_matrix(tmp_path / "T.mtx", np.diag([2.0, 3.0, 0.0]))
    out = tmp_path / "X.mtx"
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                "--method", "rankdef-spectral", "--rank-tol", "1e-14", "--out", out,
                "--report", tmp_path / "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rank_r"] == 2
    scale = 1.0 / np.sqrt([2.0, 3e12, 1.0])
    x = io.read_matrix(out)
    assert np.allclose(scale[:, None] * x * scale[None, :], np.eye(3), rtol=0.0, atol=1e-12)


def test_solve_full_rank(tmp_path, capsys):
    assert run(["generate", "--m", 30, "--n", 6, "--rank", 6, "--seed", 1,
                "--out-dir", tmp_path]) == 0
    assert (tmp_path / "X0.mtx").exists()
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                "--out", tmp_path / "X.mtx"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["method"] == "qr"
    assert report["kkt_residual"] <= 1e-9
    assert report["consistent"] is True
    assert report["f_norm"] == 0.0
    x = io.read_matrix(tmp_path / "X.mtx")
    x0 = io.read_matrix(tmp_path / "X0.mtx")
    assert np.linalg.norm(x - x0) <= 1e-8 * np.linalg.norm(x0)


def test_inconsistent_exit_2(tmp_path, capsys):
    io.write_matrix(tmp_path / "D.mtx", np.diag([1.0, 0.0]))
    io.write_matrix(tmp_path / "T.mtx", np.diag([2.0, 1.0]))
    code = run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx"])
    assert code == 2
    report = json.loads(capsys.readouterr().out)
    assert report["consistent"] is False
    assert report["f_norm"] >= report["delta"]

    assert run(["check", "--data", tmp_path / "D.mtx",
                "--target", tmp_path / "T.mtx"]) == 2


def test_check_full_rank_f_norm_zero(tmp_path, capsys):
    io.write_matrix(tmp_path / "D.mtx", np.eye(3))
    io.write_matrix(tmp_path / "T.mtx", np.diag([1.0, 2.0, 3.0]))
    assert run(["check", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["f_norm"] == 0.0


def test_invalid_inputs_exit_3(tmp_path):
    io.write_matrix(tmp_path / "D.mtx", np.eye(2))
    io.write_matrix(tmp_path / "T3.mtx", np.ones((3, 2)))
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T3.mtx"]) == 3
    assert run(["solve", "--data", tmp_path / "nope.mtx", "--target", tmp_path / "D.mtx"]) == 3
    assert run(["generate", "--m", 3, "--n", 5, "--rank", 2, "--seed", 1,
                "--out-dir", tmp_path]) == 3
    assert run(["bench", "--records", tmp_path / "r.csv"]) == 3


def test_forced_qr_on_rank_deficient_is_invalid(tmp_path):
    io.write_matrix(tmp_path / "D.mtx", np.diag([1.0, 0.0]))
    io.write_matrix(tmp_path / "T.mtx", np.diag([2.0, 0.0]))
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                "--method", "qr"]) == 3


def test_generate_deterministic_bytes(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for out in (d1, d2):
        assert run(["generate", "--m", 15, "--n", 4, "--rank", 2, "--seed", 13,
                    "--out-dir", out]) == 0
    for name in ("D.mtx", "T.mtx"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_bench_and_profile(tmp_path, capsys):
    records = tmp_path / "records.csv"
    report = tmp_path / "bench.json"
    assert run(["bench", "--problems", 4, "--m", 15, "--n", 4, "--rank", 4,
                "--seed", 3, "--noise", "1e-2", "--solvers", "qr,spectral,baseline",
                "--repetitions", 1, "--records", records, "--report", report]) == 0
    rep = json.loads(report.read_text())
    assert rep["problems"] == 4
    assert rep["failures"] == 0
    assert any(c["metric"] == "error_entry_std" for c in rep["baseline_comparisons"])

    profile = tmp_path / "profile.csv"
    assert run(["profile", "--records", records, "--out", profile,
                "--metric", "error"]) == 0
    lines = profile.read_text().splitlines()
    assert lines[0] == "tau,baseline,qr,spectral"
    assert len(lines) > 1


def test_bench_single_solver_profile_all_ones(tmp_path):
    records = tmp_path / "records.csv"
    assert run(["bench", "--problems", 3, "--m", 10, "--n", 3, "--rank", 3,
                "--seed", 5, "--solvers", "qr", "--repetitions", 1,
                "--records", records, "--report", tmp_path / "r.json"]) == 0
    profile = tmp_path / "profile.csv"
    assert run(["profile", "--records", records, "--out", profile]) == 0
    rows = profile.read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 1.0 for r in rows)


def test_bench_suite_dir(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    rng = np.random.default_rng(0)
    for i in range(2):
        d = rng.standard_normal((8, 3))
        x0 = np.eye(3) + 0.1 * i
        io.write_matrix(suite / f"case{i}_D.mtx", d)
        io.write_matrix(suite / f"case{i}_T.mtx", d @ x0)
    records = tmp_path / "records.csv"
    assert run(["bench", "--suite-dir", suite, "--solvers", "qr",
                "--repetitions", 1, "--records", records,
                "--report", tmp_path / "r.json"]) == 0
    text = records.read_text()
    assert "case0" in text and "case1" in text


def test_bench_nontime_columns_deterministic(tmp_path):
    out = []
    for name in ("r1.csv", "r2.csv"):
        records = tmp_path / name
        assert run(["bench", "--problems", 3, "--m", 12, "--n", 4, "--rank", 4,
                    "--seed", 21, "--noise", "1e-3", "--solvers", "qr,baseline",
                    "--repetitions", 1, "--records", records,
                    "--report", tmp_path / "rep.json"]) == 0
        rows = [line.split(",") for line in records.read_text().splitlines()]
        header = rows[0]
        time_col = header.index("wall_time")
        out.append([[c for k, c in enumerate(r) if k != time_col] for r in rows[1:]])
    assert out[0] == out[1]


def test_profile_reproduces_hand_suite(tmp_path):
    # 3 problems x 2 solvers with times [[1,2],[2,2],[4,1]]
    records = tmp_path / "hand.csv"
    lines = ["problem_id,solver_id,status,wall_time,error_value,kkt_residual,"
             "min_eigenvalue,effective_rank,error_entry_std"]
    times = [[1.0, 2.0], [2.0, 2.0], [4.0, 1.0]]
    for i, row in enumerate(times):
        for j, t in enumerate(row):
            lines.append(f"p{i},s{j},ok,{t},0,0,1,1,0")
    records.write_text("\n".join(lines) + "\n")
    out = tmp_path / "profile.csv"
    assert run(["profile", "--records", records, "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    table = {float(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    assert table[1.0] == (2 / 3, 2 / 3)
    assert table[2.0] == (2 / 3, 1.0)
    assert table[4.0] == (1.0, 1.0)


def test_unknown_solver_exit_3(tmp_path):
    assert run(["bench", "--problems", 1, "--m", 6, "--n", 2, "--rank", 2,
                "--seed", 0, "--solvers", "nope", "--records", tmp_path / "r.csv"]) == 3

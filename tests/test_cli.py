import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pdtls
from pdtls import cli, generate, io, linalg, model, rankdef
from pdtls.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(args):
    return main([str(a) for a in args])


def run_process(args):
    """Exit code of ``python -m pdtls.cli`` run as a child process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "pdtls.cli", *(str(a) for a in args)]
    proc = subprocess.run(cmd, env=env, capture_output=True, check=False, timeout=120)
    return proc.returncode


def write_singular_target(out_dir, seed=0):
    """D = I (full rank, r = n) with a singular B = T^T T: no SPD solution."""
    out_dir.mkdir(parents=True, exist_ok=True)
    q = generate.random_rotation(3, seed)
    io.write_matrix(out_dir / "D.mtx", np.eye(3))
    io.write_matrix(out_dir / "T.mtx", q @ np.diag([1.0, 1.0, 0.0]) @ q.T)
    return out_dir / "D.mtx", out_dir / "T.mtx"


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
    assert sol.consistency == rankdef.check_consistency(rankdef.partition_spectral(p), delta)
    assert report["f_norm"] == sol.consistency.f_norm


def test_full_rank_d_singular_target_exit_2(tmp_path, capsys):
    d, t = write_singular_target(tmp_path)
    assert run(["check", "--data", d, "--target", t]) == 2
    report = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
    assert report["rank_r"] == 3 and report["consistent"] is False
    # The library's inf markers are written as null: every report is strict JSON.
    assert report["f_norm"] is None and report["b_rr_condition"] is None
    for method, named in [("auto", "qr"), ("qr", "qr"), ("spectral", "spectral"),
                          ("rankdef-spectral", "rankdef-spectral")]:
        assert run(["solve", "--data", d, "--target", t, "--method", method]) == 2
        report = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
        assert (report["method"], report["rank_r"], report["consistent"]) == (named, 3, False)
        assert report["f_norm"] is None


MTX_BANNER = "%%MatrixMarket matrix array real general\n"


def test_exit_codes_of_a_real_process(tmp_path):
    assert run_process(["generate", "--m", 20, "--n", 5, "--rank", 3, "--seed", 7,
                        "--out-dir", tmp_path]) == 0
    d, t = tmp_path / "D.mtx", tmp_path / "T.mtx"
    assert run_process(["solve", "--data", d, "--target", t,
                        "--report", tmp_path / "report.json"]) == 0
    sd, st = write_singular_target(tmp_path / "singular")
    assert run_process(["check", "--data", sd, "--target", st]) == 2
    assert run_process(["solve", "--data", d, "--target", t, "--delta", "nan"]) == 3
    assert run_process(["solve", "--data", tmp_path / "missing.mtx", "--target", t]) == 3
    assert run_process(["solve", "--data", d, "--target", t,
                        "--out", tmp_path / "nodir" / "X.mtx"]) == 3
    assert not (tmp_path / "nodir").exists()
    # scipy 1.17's reader dies of SIGFPE on an array file with no rows, and
    # one past the in-process reader's limit goes to it unless the size line
    # is read first.
    empty = tmp_path / "E.mtx"
    empty.write_text(MTX_BANNER + ("%" + "x" * 99 + "\n") * 200 + "0 3\n")
    assert empty.stat().st_size > io._SMALL_MTX_BYTES
    assert run_process(["solve", "--data", empty, "--target", empty]) == 3


def test_zero_row_stream_exit_3(tmp_path):
    # A stream (here a pipe, as bash's process substitution gives) cannot
    # be read twice: its size line is read from the bytes read once, so a
    # zero-row matrix is refused before scipy's reader could die of SIGFPE.
    io.write_matrix(tmp_path / "T.mtx", np.eye(3))
    r, w = os.pipe()
    try:
        os.write(w, (MTX_BANNER + "0 3\n").encode())
        os.close(w)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        cmd = [sys.executable, "-m", "pdtls.cli", "solve", "--format", "mtx",
               "--data", f"/dev/fd/{r}", "--target", str(tmp_path / "T.mtx")]
        proc = subprocess.run(cmd, env=env, pass_fds=(r,), capture_output=True, timeout=120)
    finally:
        os.close(r)
    assert proc.returncode == 3 and b"no rows" in proc.stderr


def generate_rankdef(out_dir):
    """The files of a consistent 20x5 pair with rank(D) = 3."""
    assert run(["generate", "--m", 20, "--n", 5, "--rank", 3, "--seed", 7,
                "--out-dir", out_dir]) == 0
    return out_dir / "D.mtx", out_dir / "T.mtx"


def test_parser_is_built_once(tmp_path, monkeypatch):
    # Counts every parser, subparsers included, however the reuse is done.
    d, t = generate_rankdef(tmp_path)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["generate", "--m", 20, "--n", 5, "--rank", 3, "--seed", 7,
                "--out-dir", tmp_path / "again"]) == 0
    assert run(["check", "--data", d, "--target", t, "--report", tmp_path / "check.json"]) == 0
    assert run(["solve", "--data", d, "--target", t, "--report", tmp_path / "solve.json"]) == 0
    assert built == []


@pytest.mark.parametrize("command", ["solve", "check"])
def test_handler_is_looked_up_when_called(tmp_path, monkeypatch, command):
    # A wrapper put on the module after the parser exists is the one called,
    # as perfbench's tracer relies on.
    d, t = generate_rankdef(tmp_path)
    argv = [command, "--data", d, "--target", t, "--report", tmp_path / "report.json"]
    assert run(argv) == 0
    seen = []

    def spy(args):
        seen.append((args.command, args.data))
        return cli.EXIT_OK

    monkeypatch.setattr(cli, f"cmd_{command}", spy)
    assert run(argv) == 0
    assert seen == [(command, str(d))]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    d, t = generate_rankdef(tmp_path)
    assert run(["solve", "--data", d, "--target", t, "--method", "rankdef-cod",
                "--delta", "1e-3", "--rank-tol", "1e-6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["method"], report["delta"]) == ("rankdef-cod", 1e-3)
    assert run(["solve", "--data", d, "--target", t, "--method", "nope"]) == 3
    capsys.readouterr()
    assert run(["solve", "--data", d, "--target", t]) == 0
    report = json.loads(capsys.readouterr().out)
    target = io.read_matrix(t)
    assert report["method"] == "rankdef-spectral"
    assert report["delta"] == rankdef.default_delta(linalg.symmetrize(target.T @ target))


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_shared_parser_prints_a_fresh_parsers_help(monkeypatch, capsys, argv):
    # The terminal width is read when help is printed, not when the shared
    # parser was built.
    def help_text(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 0
        return capsys.readouterr().out

    assert run(["solve", "--method", "nope"]) == 3
    for columns in ("200", "60"):
        monkeypatch.setenv("COLUMNS", columns)
        text = help_text(main)
        assert text == help_text(cli.build_parser.__wrapped__().parse_args)
    if argv == ["--help"]:
        monkeypatch.setenv("COLUMNS", "200")
        assert ("\nCommand-line interface: solve, generate, check, bench, profile. Exit codes: "
                "0 success, 2 no solution (consistency failure), 3 invalid input, 1 internal "
                "error.\n\n") in help_text(main)


def test_solve_rankdef_partitions_once(tmp_path, spy):
    assert run(["generate", "--m", 20, "--n", 5, "--rank", 3, "--seed", 7,
                "--out-dir", tmp_path]) == 0
    partition = spy(rankdef, "partition_spectral")
    check = spy(rankdef, "check_consistency")
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                "--report", tmp_path / "report.json"]) == 0
    assert (partition.call_count, check.call_count) == (1, 1)


@pytest.mark.parametrize(
    "d_diag, rows, method, reported, factor_name",
    [
        ((1.0, 1.0, 1.0), 3, "auto", "qr", "qr_svd_decompose"),
        ((1.0, 1.0, 0.0), 3, "auto", "rankdef-spectral", "qr_svd_decompose"),
        # Five rows, so that D differs from the 3x3 pivoted triangle, whose
        # SVD decides the rank.
        ((1.0, 1.0, 0.0), 5, "rankdef-cod", "rankdef-cod", "rank_revealing_qr"),
    ],
    ids=["identity", "rank_2", "rank_2_cod"],
)
def test_solve_factors_d_once(tmp_path, spy, d_diag, rows, method, reported, factor_name):
    # The route's own factor of D picks the route and gives rank_r; no SVD of
    # D is taken beside it.
    d = np.zeros((rows, 3))
    d[:3] = np.diag(d_diag)
    io.write_matrix(tmp_path / "D.mtx", d)
    io.write_matrix(tmp_path / "T.mtx", d @ np.diag([2.0, 3.0, 4.0]))
    factors = {name: spy(linalg, name) for name in ("qr_svd_decompose", "rank_revealing_qr")}
    svd = spy(np.linalg, "svd")
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                "--method", method, "--report", tmp_path / "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["method"] == reported
    assert report["rank_r"] == np.count_nonzero(d_diag)
    calls = [c.args[0] for f in factors.values() for c in f.call_args_list]
    assert factors[factor_name].call_count == 1 and len(calls) == 1
    assert np.array_equal(calls[0], d)
    assert not any(np.array_equal(c.args[0], d) for c in svd.call_args_list)


@pytest.mark.parametrize("command", ["check", "solve"])
def test_command_forms_t_gram_once(tmp_path, monkeypatch, grams, command):
    assert run(["generate", "--m", 20, "--n", 5, "--rank", 3, "--seed", 7,
                "--out-dir", tmp_path]) == 0
    load = cli._load_instance
    monkeypatch.setattr(cli, "_load_instance", lambda args: grams.watch(load(args)))
    assert run([command, "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                "--report", tmp_path / "report.json"]) == 0
    assert (grams.count("t"), grams.count("d")) == (1, 0)


def test_solve_rankdef_honours_small_rank_tol(tmp_path):
    # The rank-2 core keeps sigma = 1e-12 at --rank-tol 1e-14.  The free
    # block is ||T||_F / ||D||_F = sqrt(13).
    io.write_matrix(tmp_path / "D.mtx", np.diag([1.0, 1e-12, 0.0]))
    io.write_matrix(tmp_path / "T.mtx", np.diag([2.0, 3.0, 0.0]))
    out = tmp_path / "X.mtx"
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                "--method", "rankdef-spectral", "--rank-tol", "1e-14", "--out", out,
                "--report", tmp_path / "report.json"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["rank_r"] == 2
    scale = 1.0 / np.sqrt([2.0, 3e12, np.sqrt(13.0)])
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


def test_invalid_inputs_exit_3(tmp_path, capsys):
    io.write_matrix(tmp_path / "D.mtx", np.eye(2))
    io.write_matrix(tmp_path / "T3.mtx", np.ones((3, 2)))
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T3.mtx"]) == 3
    assert run(["solve", "--data", tmp_path / "nope.mtx", "--target", tmp_path / "D.mtx"]) == 3
    assert run(["generate", "--m", 3, "--n", 5, "--rank", 2, "--seed", 1,
                "--out-dir", tmp_path]) == 3
    assert run(["bench", "--records", tmp_path / "r.csv"]) == 3
    # --out into a missing directory: no X, no report, no directory.
    files = sorted(tmp_path.rglob("*"))
    assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "D.mtx",
                "--out", tmp_path / "nodir" / "X.mtx", "--report", tmp_path / "report.json"]) == 3
    assert sorted(tmp_path.rglob("*")) == files
    # A file without data is named, before numpy's warning on it escapes
    # (exit 1): empty, blank, or comments only.
    (tmp_path / "empty.csv").touch()
    (tmp_path / "blank.csv").write_text("\n\n")
    (tmp_path / "comment.csv").write_text("# only a comment\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name in ("empty", "blank", "comment"):
            for command in ("solve", "check"):
                assert run([command, "--data", tmp_path / f"{name}.csv",
                            "--target", tmp_path / f"{name}.csv"]) == 3
    # No rows: the reader names the file before it parses it.  No columns:
    # the instance is refused with its shape.
    (tmp_path / "rows.mtx").write_text(MTX_BANNER + "0 0\n")
    (tmp_path / "cols.mtx").write_text(MTX_BANNER + "3 0\n")
    capsys.readouterr()
    for name, named in [("rows", str(tmp_path / "rows.mtx")), ("cols", "(3, 0)")]:
        for command in ("solve", "check"):
            assert run([command, "--data", tmp_path / f"{name}.mtx",
                        "--target", tmp_path / f"{name}.mtx"]) == 3
            assert named in capsys.readouterr().err


def cli_outcome(tmp_path, command, d, t):
    """(exit code, strict JSON report, X or None) of ``pdtls command`` on
    the data d and target t."""
    io.write_matrix(tmp_path / "D.mtx", d)
    io.write_matrix(tmp_path / "T.mtx", t)
    out, rep = tmp_path / "X.mtx", tmp_path / "report.json"
    out.unlink(missing_ok=True)
    extra = ["--out", out] if command == "solve" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run([command, "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                    "--report", rep, *extra])
    report = json.loads(rep.read_text(), parse_constant=refuse_constant)
    return code, report, io.read_matrix(out) if out.exists() else None


def close(x, ref):
    """test_properties' rule for two solves of transformed data."""
    return np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind, scale", [("full_rank", 1e-160), ("rank_7", 1e-160), ("rank_7", 1e150)])
def test_unmeasurable_misfit_exit_3(tmp_path, kind, scale):
    # Finite data on which the consistency misfit would under- or overflow
    # in the caller's units: both commands exit as on the data as
    # generated, at its rank, and solve gives its X.
    if kind == "full_rank":  # cond(D) = 1e9: D's numeric rank is below n
        spec = generate.GeneratorSpec(m=200, n=12, r=12, seed=0,
                                      spectrum_a=np.geomspace(1.0, 1e-9, 12))
        p, _ = generate.gen_full_rank(spec)
    else:
        p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=200, n=12, r=7, seed=0))
    for command in ("solve", "check"):
        code, report, x = cli_outcome(tmp_path, command, scale * p.d, scale * p.t)
        ref_code, ref_report, ref_x = cli_outcome(tmp_path, command, p.d, p.t)
        assert (code, report["rank_r"]) == (ref_code, ref_report["rank_r"])
        assert (x is None) == (ref_x is None)
        if x is not None:
            assert close(x, ref_x)


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_overflowing_default_delta_exit_3(tmp_path):
    # ||B||_F of T = 9e153 I is past the largest float; the default delta,
    # 1e-8 of it, and f_norm are not.  The test decides in the partition's
    # units: T has a component outside D's row space, so both commands
    # exit 2 with the misfit in the data's units.
    d, t = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), 9e153 * np.eye(6)
    for command in ("solve", "check"):
        code, report, _ = cli_outcome(tmp_path, command, d, t)
        assert (code, report["consistent"]) == (2, False)
        assert report["f_norm"] == pytest.approx(np.sqrt(3.0) * 9e153**2, rel=1e-12)
        assert report["delta"] == pytest.approx(1e-8 * np.sqrt(6.0) * 9e153**2, rel=1e-12)


@pytest.mark.parametrize("kind", ["full_rank", "rank_7"])
def test_overflow_on_finite_data_is_named_and_reported_as_json(tmp_path, capsys, kind):
    # x1e150: the sum of squares behind ||B||_F and the core S B_rr S would
    # overflow in the data's units; x1e200: B itself would.  Both commands
    # succeed with no warning, solve gives the unscaled data's X, and each
    # report is strict JSON, a value past the float range written as null.
    if kind == "full_rank":
        p, _ = generate.gen_full_rank(generate.GeneratorSpec(m=200, n=12, r=12, seed=0))
    else:
        p = generate.gen_consistent_rankdef(generate.GeneratorSpec(m=200, n=12, r=7, seed=0))
    ref = pdtls.solve(p)
    for scale in (1e150, 1e200):
        code, report, x = cli_outcome(tmp_path, "solve", scale * p.d, scale * p.t)
        assert (code, report["rank_r"], report["consistent"]) == (0, ref.rank, True)
        assert close(x, ref.x)
        code, report, _ = cli_outcome(tmp_path, "check", scale * p.d, scale * p.t)
        assert (code, report["rank_r"], report["consistent"]) == (0, ref.rank, True)
    assert capsys.readouterr().err == ""


BAND = {
    "full_rank": lambda: generate.gen_full_rank(generate.GeneratorSpec(m=40, n=8, r=8, seed=0))[0],
    "rank_4": lambda: generate.gen_consistent_rankdef(generate.GeneratorSpec(m=40, n=8, r=4, seed=0)),
}


@pytest.mark.parametrize("d_scale, t_scale", [(1.0, 1e100), (1e-100, 1e100)])
@pytest.mark.parametrize("kind", sorted(BAND))
def test_large_target_solves_in_the_data_units(tmp_path, kind, d_scale, t_scale):
    # Every norm of the solve stays finite when T^T T (about 1e200) and the
    # core do, so X scaled back by d_scale / t_scale is the unscaled
    # solution, from the library and the CLI alike, with no warning and a
    # strict report.
    p = BAND[kind]()
    ref = pdtls.solve(p).x
    scaled = model.ProblemInstance(d=d_scale * p.d, t=t_scale * p.t)
    io.write_matrix(tmp_path / "D.mtx", scaled.d)
    io.write_matrix(tmp_path / "T.mtx", scaled.t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = pdtls.solve(scaled).x
        assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                    "--out", tmp_path / "X.mtx", "--report", tmp_path / "report.json"]) == 0
    for solved in (x, io.read_matrix(tmp_path / "X.mtx")):
        scaled_back = (d_scale / t_scale) * solved
        assert np.linalg.norm(scaled_back - ref) <= 1e-12 * np.linalg.norm(ref)
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse_constant)
    assert report["consistent"] is True and report["kkt_residual"] <= 1e-12


@pytest.mark.parametrize("diag", [[1.0, 1.0], [1.0, 1.0, 0.0]], ids=["full_rank", "rank_2"])
def test_target_past_half_the_largest_float_solves(tmp_path, diag):
    # B = T^T T = 1e308 I on the range of D: finite, though B + B^T is not.
    d = np.diag(diag)
    t = 1e154 * d
    io.write_matrix(tmp_path / "D.mtx", d)
    io.write_matrix(tmp_path / "T.mtx", t)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = pdtls.solve(model.ProblemInstance(d=d, t=t))
        assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                    "--out", tmp_path / "X.mtx", "--report", tmp_path / "report.json"]) == 0
    for x in (sol.x, io.read_matrix(tmp_path / "X.mtx")):
        assert x.tolist() == (1e154 * np.eye(len(diag))).tolist()
    assert sol.kkt_residual == 0.0
    assert json.loads((tmp_path / "report.json").read_text())["kkt_residual"] == 0.0


def test_unreadable_compressed_input_exit_3(tmp_path):
    # scipy's reader decompresses a path ending in .gz; a plain-text file
    # under that name is invalid input, not an internal error.
    d = tmp_path / "D.mtx.gz"
    io.write_matrix(d, np.eye(2), fmt="mtx")
    assert run(["solve", "--data", d, "--target", d, "--format", "mtx"]) == 3


@pytest.mark.parametrize("flag", ["--rank-tol", "--delta"])
def test_nan_tolerance_exit_3(tmp_path, flag):
    # Rejected at parse time, also on full-rank data, where delta is unused.
    for d, t in [(np.diag([1.0, 1.0, 0.0]), np.diag([2.0, 3.0, 0.0])), (np.eye(3), np.eye(3))]:
        io.write_matrix(tmp_path / "D.mtx", d)
        io.write_matrix(tmp_path / "T.mtx", t)
        for value in ("nan", "-1"):
            assert run(["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
                        flag, value]) == 3


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


def test_bench_suite_dir_records_an_overflowing_solve(tmp_path, capsys):
    # Finite input whose X overflows (D x1e-200, T x1e200: X ~ 1e400 X0)
    # is one failed run, not invalid input.
    suite = tmp_path / "suite"
    suite.mkdir()
    p, _ = generate.gen_full_rank(generate.GeneratorSpec(m=200, n=12, r=12, seed=0))
    for name, d_scale, t_scale in (("plain", 1.0, 1.0), ("scaled", 1e-200, 1e200)):
        io.write_matrix(suite / f"{name}_D.mtx", p.d * d_scale)
        io.write_matrix(suite / f"{name}_T.mtx", p.t * t_scale)
    assert run(["bench", "--suite-dir", suite, "--solvers", "qr", "--repetitions", 1,
                "--records", tmp_path / "records.csv"]) == 0
    assert json.loads(capsys.readouterr().out)["failures"] == 1


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


def test_bench_problems_without_generator_flags_exit_3(tmp_path, capsys):
    assert run(["bench", "--problems", 2, "--records", tmp_path / "r.csv"]) == 3
    assert "--problems needs --m, --n, --rank" in capsys.readouterr().err
    assert run(["bench", "--problems", 2, "--m", 6, "--n", 2,
                "--records", tmp_path / "r.csv"]) == 3
    assert "--problems needs --rank" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_unknown_solver_exit_3(tmp_path):
    assert run(["bench", "--problems", 1, "--m", 6, "--n", 2, "--rank", 2,
                "--seed", 0, "--solvers", "nope", "--records", tmp_path / "r.csv"]) == 3


def test_report_keys_and_records_header(tmp_path):
    # The exact fields of every JSON report and of the records CSV, as README
    # documents them.
    d, t = generate_rankdef(tmp_path)
    sd, st = write_singular_target(tmp_path / "singular")
    records = tmp_path / "records.csv"
    for argv, code in [
        (["solve", "--data", d, "--target", t], 0),
        (["solve", "--data", sd, "--target", st], 2),
        (["check", "--data", d, "--target", t], 0),
        (["bench", "--problems", 2, "--m", 10, "--n", 3, "--rank", 3, "--seed", 1,
          "--solvers", "qr,baseline", "--repetitions", 1, "--records", records], 0),
    ]:
        assert run([*argv, "--report", tmp_path / f"{argv[0]}{code}.json"]) == code
    solve_keys = {"method", "rank_r", "consistent", "f_norm", "delta",
                  "E", "kkt_residual", "min_eigenvalue"}
    refusal = json.loads((tmp_path / "solve2.json").read_text())
    assert set(json.loads((tmp_path / "solve0.json").read_text())) == solve_keys
    assert set(refusal) == solve_keys
    assert refusal["E"] is refusal["kkt_residual"] is refusal["min_eigenvalue"] is None
    assert set(json.loads((tmp_path / "check0.json").read_text())) == {
        "rank_r", "consistent", "f_norm", "delta", "b_rr_condition"}
    report = json.loads((tmp_path / "bench0.json").read_text())
    assert set(report) == {"problems", "solvers", "repetitions", "failures",
                           "baseline_comparisons"}
    for comparison in report["baseline_comparisons"]:
        assert set(comparison) == {"solver", "baseline", "metric", "wins", "total", "win_rate"}
    assert records.read_text().splitlines()[0] == (
        "problem_id,solver_id,status,wall_time,error_value,kkt_residual,"
        "min_eigenvalue,effective_rank,error_entry_std")


def test_bench_solvers_take_either_spelling(tmp_path, capsys):
    # --solvers reads a "-" as "_", as --method does; ids are recorded with "_".
    records = tmp_path / "records.csv"
    argv = ["bench", "--problems", 2, "--m", 12, "--n", 4, "--rank", 4, "--seed", 3,
            "--repetitions", 1, "--records", records]
    assert run([*argv, "--solvers", "rankdef-cod,baseline"]) == 0
    assert json.loads(capsys.readouterr().out)["solvers"] == ["rankdef_cod", "baseline"]
    rows = records.read_text().splitlines()[1:]
    assert sorted({row.split(",")[1] for row in rows}) == ["baseline", "rankdef_cod"]
    for unknown in ("nope", "rankdef-nope"):
        assert run([*argv, "--solvers", unknown]) == 3


def test_bench_runs_each_named_solver_once(tmp_path, capsys):
    # A solver named twice, in either spelling, is run and reported once.
    records = tmp_path / "records.csv"
    argv = ["bench", "--problems", 2, "--m", 12, "--n", 4, "--rank", 4, "--seed", 3,
            "--repetitions", 1, "--records", records]
    assert run([*argv, "--solvers", "qr,baseline,qr"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["solvers"] == ["qr", "baseline"]
    assert len(report["baseline_comparisons"]) == 2
    assert len(records.read_text().splitlines()) == 1 + 2 * 2
    assert run([*argv, "--solvers", "rankdef-cod,rankdef_cod"]) == 0
    assert json.loads(capsys.readouterr().out)["solvers"] == ["rankdef_cod"]

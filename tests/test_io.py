import gzip
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdtls import io, linalg
from pdtls.errors import DimensionError

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("ext", ["mtx", "csv"])
def test_round_trip(tmp_path, ext):
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 3))
    path = tmp_path / f"a.{ext}"
    io.write_matrix(path, a)
    assert_allclose(io.read_matrix(path), a, atol=1e-15)


def test_mtx_header(tmp_path):
    path = tmp_path / "a.mtx"
    io.write_matrix(path, np.ones((2, 2)))
    assert path.read_text().startswith("%%MatrixMarket matrix array real general")


def test_writes_are_byte_identical(tmp_path):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 4))
    p1, p2 = tmp_path / "x1.mtx", tmp_path / "x2.mtx"
    io.write_matrix(p1, a)
    io.write_matrix(p2, a)
    assert p1.read_bytes() == p2.read_bytes()


def test_single_column_csv_stays_2d(tmp_path):
    path = tmp_path / "v.csv"
    io.write_matrix(path, np.array([[1.0], [2.0]]))
    assert io.read_matrix(path).shape == (2, 1)


def test_format_override(tmp_path):
    a = np.eye(2)
    for fmt in ("csv", "mtx"):
        path = tmp_path / f"{fmt}.dat"
        io.write_matrix(path, a, fmt=fmt)
        assert_allclose(io.read_matrix(path, fmt=fmt), a)
    # scipy appends ".mtx" to a bare file name it writes; the writer's
    # handle keeps the name it was given.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["csv.dat", "mtx.dat"]


@pytest.mark.parametrize("name", ["missing.mtx", "missing.csv"])
def test_missing_file_raises(tmp_path, name):
    with pytest.raises(FileNotFoundError):
        io.read_matrix(tmp_path / name)


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        io.write_matrix(tmp_path / "a.xyz", np.eye(2))
    with pytest.raises(ValueError):
        io.write_matrix(tmp_path / "a.mtx", np.eye(2), fmt="bogus")


def test_non_finite_rejected(tmp_path):
    with pytest.raises(ValueError):
        io.write_matrix(tmp_path / "a.csv", np.array([[np.inf, 1.0]]))


BANNER = "%%MatrixMarket matrix array real general\n"


def scipy_read(path):
    """What read_matrix returned when every .mtx file went to scipy's reader:
    its array, or the class of the exception it raised."""
    import scipy.io

    try:
        a = scipy.io.mmread(str(path))
        if hasattr(a, "toarray"):
            a = a.toarray()
        return linalg.as_matrix(np.asarray(a, dtype=np.float64))
    except Exception as exc:
        return type(exc)


def pdtls_read(path):
    try:
        return io.read_matrix(path, "mtx")
    except Exception as exc:
        return type(exc)


def assert_reads_as_scipy(path):
    got, want = pdtls_read(path), scipy_read(path)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
    else:
        assert got.shape == want.shape and got.flags.c_contiguous == want.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def body(*lines, size="2 1"):
    return BANNER + "%\n" + size + "\n" + "".join(f"{line}\n" for line in lines)


# Files on which scipy's parser and Python's float, or their layouts, part
# ways, and files just inside and outside the in-process reader's rules.
PARITY_FILES = {
    "plain": body("1.5", "-2e-3"),
    "underscore": body("1_0", "2"),
    "leading_plus": body("+1", "2"),
    "plus_exponent": body("1e+2", "2E-2"),
    "dangling_exponent": body("1e", "2"),
    "fortran_exponent": body("1d0", "2"),
    "decimal_comma": body("1,5", "2"),
    "two_on_a_line": body("1 2", size="1 2"),
    "two_on_a_line_filled": body("1 2", "3", size="3 1"),
    "tab": body("1\t", "2"),
    "upper_case_banner": BANNER.upper() + "2 1\n1\n2\n",
    "leading_space_banner": " " + body("1", "2"),
    "crlf": body("1", "2").replace("\n", "\r\n"),
    "hex": body("0x10", "2"),
    "nan": body("nan", "2"),
    "inf": body("inf", "2"),
    "overflow": body("1e400", "2"),
    "underflow": body("-1e-400", "2"),
    "negative_zero": body("-0", "-0.0e+00"),
    "smallest_subnormal": body("4.9406564584124654e-324", "-2.4703282292062328e-324"),
    "halfway": body("9007199254740993", "0.1000000000000000055511151231257827021181583404541015625"),
    "no_digits": body(".", "-"),
    "blank_line": body("1", "", "2"),
    "blank_line_before_size": BANNER + "\n2 1\n1\n2\n",
    "comment_in_body": body("1", "% note", "2"),
    "comment_lines": BANNER + "%a\n%b\n%\n2 1\n1\n2\n",
    "too_few": body("1"),
    "too_many": body("1", "2", "3"),
    "no_final_newline": body("1", "2").rstrip("\n"),
    "two_final_newlines": body("1", "2") + "\n",
    "three_integer_size": body("1", "2", size="2 1 1"),
    "size_with_two_spaces": body("1", "2", size="2  1"),
    "negative_size": body("1", "2", size="-2 -1"),
    "integer": body("1", "2").replace("real", "integer"),
    "symmetric": BANNER.replace("general", "symmetric") + "2 2\n1\n2\n3\n",
    "coordinate": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n2 2 -2\n",
    "empty": "",
    "banner_only": BANNER,
    "three_by_zero": body(size="3 0"),
    "column_major": body("1", "2", "3", "4", "5", "6", size="2 3"),
}


@pytest.mark.parametrize("name", sorted(PARITY_FILES))
def test_mtx_reads_as_scipy_reads(tmp_path, name):
    path = tmp_path / "a.mtx"
    path.write_bytes(PARITY_FILES[name].encode())
    assert_reads_as_scipy(path)


@pytest.mark.parametrize("size", ["0 0", "0 3"])
def test_mtx_without_rows_reads_in_process(tmp_path, spy, size):
    # scipy 1.17's reader dies of SIGFPE on an array file with no rows: the
    # size line is read in process, and the file refused by name, before
    # either parser runs.  test_cli runs a large such file in a child.
    import scipy.io

    mmread = spy(scipy.io, "mmread")
    path = tmp_path / "a.mtx"
    path.write_text(body(size=size))
    with pytest.raises(DimensionError, match=re.escape(f"{path}: the matrix has no rows")):
        io.read_matrix(path)
    assert mmread.call_count == 0


def test_mtx_tokens_read_as_scipy_reads(tmp_path):
    # Random tokens over the in-process reader's alphabet, some parsed by
    # numpy, some refused and left to scipy.
    rng = np.random.default_rng(0)
    alphabet = np.array(list("0123456789.-+eE"))
    weights = np.array([3.0] * 10 + [2, 2, 1, 2, 1])
    path = tmp_path / "a.mtx"
    for _ in range(300):
        k = int(rng.integers(1, 6))
        tokens = ["".join(rng.choice(alphabet, int(rng.integers(1, 9)), p=weights / weights.sum()))
                  for _ in range(k)]
        path.write_text(body(*tokens, size=f"{k} 1"))
        assert_reads_as_scipy(path)


def test_written_doubles_read_back_bit_identical(tmp_path):
    # 12,500 doubles drawn over every exponent, subnormals among them, in
    # files small enough for the in-process reader.  scipy's reader reads
    # -0.0 as 0.0, so both readers do.
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2**64, size=(25, 25, 20), dtype=np.uint64)
    values = bits.view(np.float64)
    values[~np.isfinite(values)] = 1.0
    values[0, :5] = (rng.integers(1, 2**52, size=(5, 20), dtype=np.uint64) | (bits[0, :5] & 2**63)).view(np.float64)
    values.reshape(-1)[-8:] = [0.0, -0.0, 1.7e308, -1.7e308, 5e-324, -5e-324, 2.2e-308, -1e-310]
    for k, a in enumerate(values):
        path = tmp_path / f"a{k}.mtx"
        io.write_matrix(path, a)
        assert path.stat().st_size <= io._SMALL_MTX_BYTES
        got = io.read_matrix(path)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), (a + 0.0).view(np.uint64))
        assert np.array_equal(got.view(np.uint64), scipy_read(path).view(np.uint64))


def test_only_large_or_unusual_mtx_files_reach_scipy(tmp_path, spy):
    import scipy.io

    mmread = spy(scipy.io, "mmread")
    small = np.arange(320.0).reshape(40, 8) / 7
    io.write_matrix(tmp_path / "small.mtx", small)
    assert np.array_equal(io.read_matrix(tmp_path / "small.mtx"), small)
    assert mmread.call_count == 0

    large = np.arange(800.0).reshape(40, 20) / 7
    io.write_matrix(tmp_path / "large.mtx", large)
    assert (tmp_path / "large.mtx").stat().st_size > io._SMALL_MTX_BYTES
    compressed = tmp_path / "small.mtx.gz"
    with gzip.open(compressed, "wb") as fh:
        fh.write((tmp_path / "small.mtx").read_bytes())
    crlf = tmp_path / "crlf.mtx"
    crlf.write_bytes((tmp_path / "small.mtx").read_bytes().replace(b"\n", b"\r\n"))
    for path, want in [(tmp_path / "large.mtx", large), (compressed, small), (crlf, small)]:
        calls = mmread.call_count
        assert np.array_equal(io.read_matrix(path, "mtx"), want)
        assert mmread.call_count == calls + 1


@pytest.fixture
def pipes():
    """``pipes(link, data)`` makes link a name of a pipe holding data, as
    bash's process substitution names one /dev/fd/N; closed after the test."""
    fds = []

    def make(link, data: bytes):
        r, w = os.pipe()
        fds.append(r)
        os.write(w, data)  # within the pipe's buffer
        os.close(w)
        link.symlink_to(f"/dev/fd/{r}")
        return link

    yield make
    for fd in fds:
        os.close(fd)


def test_mtx_streams_are_read_once(tmp_path, spy, pipes):
    # A stream is read once, in full: parsed in-process when small and
    # plain, else scipy reads the same bytes; a compressed name is
    # decompressed; no rows are refused before either parser runs.
    import scipy.io

    mmread = spy(scipy.io, "mmread")
    small = np.arange(320.0).reshape(40, 8) / 7
    large = np.arange(800.0).reshape(40, 20) / 7
    for name, a in (("small.mtx", small), ("large.mtx", large)):
        io.write_matrix(tmp_path / name, a)
    text = {name: (tmp_path / name).read_bytes() for name in ("small.mtx", "large.mtx")}
    assert len(text["large.mtx"]) > io._SMALL_MTX_BYTES
    cases = [("s.mtx", text["small.mtx"], small, 0), ("l.mtx", text["large.mtx"], large, 1),
             ("s.mtx.gz", gzip.compress(text["small.mtx"]), small, 0)]
    for name, data, want, calls in cases:
        before = mmread.call_count
        assert np.array_equal(io.read_matrix(pipes(tmp_path / name, data), "mtx"), want)
        assert mmread.call_count == before + calls
    with pytest.raises(DimensionError, match="no rows"):
        io.read_matrix(pipes(tmp_path / "e.mtx", body(size="0 3").encode()))


def test_small_reads_leave_scipy_io_unimported(tmp_path):
    # scipy.io takes tens of milliseconds to import; neither the CLI's
    # import nor a solve of small MatrixMarket inputs without --out needs it.
    rng = np.random.default_rng(3)
    io.write_matrix(tmp_path / "D.mtx", rng.standard_normal((20, 6)))
    io.write_matrix(tmp_path / "T.mtx", rng.standard_normal((20, 6)))
    script = (
        "import sys\n"
        "from pdtls import cli\n"
        "print('scipy.io' in sys.modules)\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, 'scipy.io' in sys.modules)\n"
    )
    args = ["solve", "--data", tmp_path / "D.mtx", "--target", tmp_path / "T.mtx",
            "--report", tmp_path / "report.json"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.split() == ["False", "0", "False"]
    assert json.loads((tmp_path / "report.json").read_text())["kkt_residual"] <= 1e-9

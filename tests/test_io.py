import numpy as np
import pytest
from numpy.testing import assert_allclose

from pdtls import io


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

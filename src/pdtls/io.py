"""Matrix file I/O: MatrixMarket dense array format and headerless CSV.

Format is inferred from the file extension (.mtx / .csv) unless given
explicitly.  MatrixMarket files use the dense "array" layout with
column-major values; CSV files are one row per line, comma separated.
Writes are deterministic (17 significant digits), so identical matrices
produce byte-identical files.

A small, plain MatrixMarket file (at most 16 KiB, exactly the layout the
writer produces) is parsed in-process with numpy; every other one goes to
scipy's reader.  scipy's reader costs about 90 us per call however small
the file, and slows the solve after it as a 2 MiB memset in its place
does, while Python parses at about 250-300 ns per value: for small fits
the in-process parse is the cheaper, past about 16 KiB scipy's is.  Both
give the same array, bit for bit.  Writes stay on scipy's writer, which
a Python writer matched at 8x8 and lost to at 40x8.  scipy.io itself is
imported only where its reader or writer runs.
"""

import os
import stat
import warnings
from pathlib import Path

import numpy as np

from .errors import DimensionError
from .linalg import as_matrix

__all__ = ["read_matrix", "write_matrix", "infer_format"]

FORMATS = ("mtx", "csv")

# The in-process reader's size limit.  A CLI solve of two such files breaks
# even at about 12 KB with scipy's reader on one thread and at about 20 KB
# with its default thread per core.
_SMALL_MTX_BYTES = 16 * 1024
_SMALL_MTX_BANNER = b"%%MatrixMarket matrix array real general"
# The only bytes the in-process reader accepts after the size line: those
# of decimal floats, one per line.  Python and scipy's parser agree on every
# token made of these that Python parses, except one with a leading "+",
# which scipy refuses.
_VALUE_BYTES = b"0123456789.-+eE\n"


def infer_format(path, fmt: str | None = None) -> str:
    if fmt is not None:
        if fmt not in FORMATS:
            raise ValueError(f"unknown matrix format {fmt!r}; expected one of {FORMATS}")
        return fmt
    suffix = Path(path).suffix.lower().lstrip(".")
    if suffix in FORMATS:
        return suffix
    raise ValueError(f"cannot infer matrix format from {path!r}; pass an explicit format")


def write_matrix(path, a, fmt: str | None = None) -> None:
    a = as_matrix(a)
    fmt = infer_format(path, fmt)
    if fmt == "mtx":
        # Pass an open handle: scipy appends ".mtx" to bare filenames, and
        # given a path into a missing directory scipy 1.17's mmwrite returns
        # None and writes nothing, where open() raises FileNotFoundError
        # (`pdtls solve --out` into a missing directory exits 3).  The path
        # form writes in about 0.6-0.8x the time, but would make that a
        # silent success.
        import scipy.io

        with open(path, "wb") as fh:
            scipy.io.mmwrite(fh, a, comment="", precision=17, symmetry="general")
    else:
        np.savetxt(path, a, delimiter=",", fmt="%.17g")


def _read_small_mtx(path) -> np.ndarray | None:
    """The matrix of a small, plain dense MatrixMarket file, or None.

    None leaves the file to scipy's reader: anything but a regular file of
    at most _SMALL_MTX_BYTES with no compressed name, exactly the banner
    scipy writes, "%" lines, a size line "m n" and then m * n lines of one
    token each, made of _VALUE_BYTES only, none starting with "+", that
    numpy parses.  The values are column-major, and the result is C-ordered
    and bit for bit scipy's.
    """
    name = os.fspath(path)
    if name.endswith((".gz", ".bz2")):
        return None
    try:  # scipy's reader raises its own error on a file it cannot open
        info = os.stat(name)
        if not stat.S_ISREG(info.st_mode) or info.st_size > _SMALL_MTX_BYTES:
            return None
        with open(name, "rb") as fh:
            text = fh.read()
    except OSError:
        return None
    banner, _, rest = text.partition(b"\n")
    if banner != _SMALL_MTX_BANNER:
        return None
    while rest.startswith(b"%"):
        rest = rest.partition(b"\n")[2]
    size, _, body = rest.partition(b"\n")
    dims = size.split(b" ")
    if len(dims) != 2 or not all(d.isdigit() for d in dims):
        return None
    m, n = map(int, dims)
    if body.translate(None, _VALUE_BYTES) or body.startswith(b"+") or b"\n+" in body:
        return None
    tokens = body.split(b"\n")
    if tokens[-1] == b"":
        tokens.pop()
    if len(tokens) != m * n:
        return None
    try:
        values = np.array(tokens, dtype=np.float64)
    except ValueError:
        return None
    values += 0.0  # -0.0 to 0.0, as scipy's reader reads it; no other value moves
    return np.ascontiguousarray(values.reshape(n, m).T)


def read_matrix(path, fmt: str | None = None) -> np.ndarray:
    fmt = infer_format(path, fmt)
    if fmt == "mtx":
        a = _read_small_mtx(path)
        if a is None:
            import scipy.io

            # Pass the path, not a handle: scipy's reader then opens the
            # file itself rather than pulling it through a Python stream.
            a = scipy.io.mmread(os.fspath(path))
            if hasattr(a, "toarray"):  # coordinate-format file
                a = a.toarray()
    else:
        # numpy warns on a file without data (empty, blank or comments
        # only), then returns no rows.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            a = np.loadtxt(path, delimiter=",", ndmin=2)
        if not a.shape[0]:
            raise DimensionError(f"{path}: the file holds no data")
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{path}: expected a 2-D matrix, got shape {a.shape}")
    return as_matrix(a)

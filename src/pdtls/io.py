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
give the same array, bit for bit.  A stream (a pipe, a FIFO) cannot be
read twice, so it is read once, in full: parsed in-process when small and
plain, handed to scipy's reader as a BytesIO of its bytes otherwise.  A
regular file reaches scipy's reader by path, which it reads faster than
a BytesIO.  Writes stay on scipy's writer, which a Python writer matched
at 8x8 and lost to at 40x8.  scipy.io itself is imported only where its
reader or writer runs.
"""

import os
import re
import stat
import warnings
import zlib
from io import BytesIO
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


def _has_no_rows(fh) -> bool:
    """Whether the size line of a MatrixMarket file, the first line after
    the banner that is neither blank nor a "%" comment, counts no rows."""
    fh.readline()  # the banner
    for line in fh:
        fields = line.split()
        if fields and not fields[0].startswith(b"%"):
            return re.fullmatch(rb"-?0+", fields[0]) is not None
    return False


def _decompressor(name: str):
    """The module that decompresses a file of this name as scipy's reader
    does, gzip or bz2, or None."""
    if name.endswith(".gz"):
        import gzip

        return gzip
    if name.endswith(".bz2"):
        import bz2

        return bz2
    return None


def _read_head(name: str) -> tuple[bytes | None, bool, object]:
    """(text, no_rows, source): the bytes to parse in-process or None,
    whether the size line counts no rows, and what scipy's reader reads.

    A regular file stays on disk for scipy, by path: text is its bytes
    when it is at most _SMALL_MTX_BYTES without a compressed name, and
    no_rows is read from its head as scipy's reader decompresses it.  A
    file that cannot be read is left to scipy.  A stream (a pipe, a FIFO)
    cannot be read twice, so it is read once, in full, and decompressed by
    its name: text is all of it, parsed in-process when small, and source
    a BytesIO of the same bytes.
    """
    codec = _decompressor(name)
    try:
        info = os.stat(name)
    except OSError:
        return None, False, name
    if not stat.S_ISREG(info.st_mode):
        with open(name, "rb") as fh:
            text = fh.read()
        if codec is not None:
            try:
                text = codec.decompress(text)
            except (EOFError, zlib.error) as exc:
                raise ValueError(f"{name}: cannot decompress: {exc}") from None
        return text, _has_no_rows(BytesIO(text)), BytesIO(text)
    try:
        if codec is not None:
            fh = codec.open(name)
        elif info.st_size <= _SMALL_MTX_BYTES:
            with open(name, "rb") as fh:
                text = fh.read()
            return text, _has_no_rows(BytesIO(text)), name
        else:
            fh = open(name, "rb")
        with fh:
            return None, _has_no_rows(fh), name
    except (OSError, EOFError, zlib.error):
        return None, False, name


def _parse_small_mtx(text: bytes) -> np.ndarray | None:
    """The matrix of a small, plain dense MatrixMarket file's text, or None.

    None leaves the file to scipy's reader: anything but exactly the banner
    scipy writes, "%" lines, a size line "m n" and then m * n lines of one
    token each, made of _VALUE_BYTES only, none starting with "+", that
    numpy parses.  The values are column-major, and the result is C-ordered
    and bit for bit scipy's.
    """
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
        name = os.fspath(path)
        text, no_rows, source = _read_head(name)
        if no_rows:  # scipy 1.17's reader dies of SIGFPE on an array with no rows
            raise DimensionError(f"{path}: the matrix has no rows")
        small = text is not None and len(text) <= _SMALL_MTX_BYTES
        a = _parse_small_mtx(text) if small else None
        if a is None:
            import scipy.io

            # A regular file goes by path: scipy's reader then opens it
            # itself rather than pulling it through a Python stream.
            a = scipy.io.mmread(source)
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
    return as_matrix(a)

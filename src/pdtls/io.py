"""Matrix file I/O: MatrixMarket dense array format and headerless CSV.

Format is inferred from the file extension (.mtx / .csv) unless given
explicitly.  MatrixMarket files use the dense "array" layout with
column-major values; CSV files are one row per line, comma separated.
Writes are deterministic (17 significant digits), so identical matrices
produce byte-identical files.
"""

import os
import warnings
from pathlib import Path

import numpy as np
import scipy.io

from .errors import DimensionError
from .linalg import as_matrix

__all__ = ["read_matrix", "write_matrix", "infer_format"]

FORMATS = ("mtx", "csv")


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
        with open(path, "wb") as fh:
            scipy.io.mmwrite(fh, a, comment="", precision=17, symmetry="general")
    else:
        np.savetxt(path, a, delimiter=",", fmt="%.17g")


def read_matrix(path, fmt: str | None = None) -> np.ndarray:
    fmt = infer_format(path, fmt)
    if fmt == "mtx":
        # Pass the path, not a handle: scipy's reader then opens the file
        # itself rather than pulling it through a Python stream.
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

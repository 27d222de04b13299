"""Vector file formats used by the command line interface.

Two formats, chosen by file extension:

* ``.csv``: text, one value per line, read/written at full precision.
* ``.f64``: raw little-endian float64, no header; a file whose size
  is not a multiple of 8 bytes is rejected rather than truncated.

These exist for the CLI only; library callers pass arrays directly.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["read_vector", "write_vector", "vector_format"]


def vector_format(path) -> str:
    """The format of the vector file ``path``, ``".csv"`` or ``".f64"``,
    read off its extension; any other extension raises ValueError."""
    suffix = Path(path).suffix.lower()
    if suffix not in (".csv", ".f64"):
        raise ValueError(f"unsupported vector format {suffix!r} (use .csv or .f64)")
    return suffix


def read_vector(path) -> np.ndarray:
    path = Path(path)
    if vector_format(path) == ".csv":
        return np.loadtxt(path, dtype=np.float64, ndmin=1)
    size = path.stat().st_size
    if size % 8:
        raise ValueError(f"{path}: size {size} bytes is not a multiple of 8, "
                         "so it is not a float64 vector")
    return np.fromfile(path, dtype="<f8")


def write_vector(path, x, file=None) -> None:
    """Write ``x`` in the format of ``path``'s extension: to ``path``,
    or into ``file`` when given, a binary file already open for it."""
    x = np.asarray(x, dtype=np.float64)
    target = path if file is None else file
    if vector_format(path) == ".csv":
        np.savetxt(target, x, fmt="%.17g")
    else:
        x.astype("<f8").tofile(target)

"""Deterministic Halton sequences for simulating choice-probability integrals."""

from __future__ import annotations

import csv

import numpy as np

from .basis import Domain

# First 20 primes; one base per supported dimension.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)

MAX_DIM = len(_PRIMES)
DEFAULT_BURN_IN = 20
# Rows per write of write_csv_columns: bounds the Python strings alive at once
_CSV_CHUNK_ROWS = 1 << 16


def radical_inverse(n: int, base: int) -> float:
    """Digit reversal of ``n`` around the radix point in the given base.

    For n >= 1 the result lies strictly inside (0, 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    inv, f = 0.0, 1.0 / base
    while n > 0:
        inv += f * (n % base)
        n //= base
        f /= base
    return inv


def _radical_inverse_array(ns: np.ndarray, base: int) -> np.ndarray:
    out = np.zeros(ns.shape, dtype=float)
    f = 1.0 / base
    n = ns.copy()
    while np.any(n > 0):
        out += f * (n % base)
        n //= base
        f /= base
    # past 2**53 the float digit sum can round up to 1.0; the exact value is below it
    return np.minimum(out, np.nextafter(1.0, 0.0), out=out)


def halton_draws(
    n_draws: int,
    dim: int,
    burn_in: int = DEFAULT_BURN_IN,
    domain: Domain | None = None,
) -> np.ndarray:
    """Halton points ``burn_in + 1 .. burn_in + n_draws`` mapped into a domain,
    as a read-only ``(n_draws, dim)`` array.

    Base of dimension ``d`` is the d-th prime; dimensions above 20 are not
    supported.  Without a domain the points stay in the open unit cube.  The
    draws are deterministic, and extending the count keeps every earlier row.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    if dim < 1 or dim > MAX_DIM:
        raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {dim}")
    if burn_in < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in}")
    last = 2**63 - 1 - n_draws  # the point indices are 64-bit integers
    if burn_in > last:
        raise ValueError(f"burn_in must be <= {last} for {n_draws} draws, got {burn_in}")
    if domain is None:
        domain = Domain.cube(dim, 0.0, 1.0)
    if domain.dim != dim:
        raise ValueError("domain dimension mismatch")
    ns = np.arange(burn_in + 1, burn_in + n_draws + 1, dtype=np.int64)
    unit = np.empty((n_draws, dim))
    for d in range(dim):
        unit[:, d] = _radical_inverse_array(ns, _PRIMES[d])
    draws = domain.from_unit(unit)
    draws.setflags(write=False)
    return draws


def read_csv_rows(path, header_width, parse_row) -> list:
    """``parse_row(row)`` of each data row of a CSV file, in file order.

    ``header_width(header)`` checks the first row (``[]`` in an empty file)
    and returns the column count every data row must have.  A ``ValueError``
    from either names the file, and one from a data row its line number too;
    so do a row of the wrong width and a file without data rows.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            width = header_width(next(reader, []))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(f"{path}: line {lineno}: expected {width} columns")
            try:
                rows.append(parse_row(row))
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def write_csv_columns(path, header, columns) -> None:
    """Write a CSV file of ``header``, then row ``i`` of every column per line.

    A float64 array column is written by ``repr`` of each value, made once per
    distinct bit pattern (a lattice or a dataset repeats its values); any
    other value by ``str``.  The bytes are those of a ``csv.writer`` given
    the same strings, none of which needs quoting: rows end in ``\\r\\n``.
    Rows are joined into one string per ``_CSV_CHUNK_ROWS`` of them.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            cells = []
            for column in columns:
                chunk = column[start:start + _CSV_CHUNK_ROWS]
                if isinstance(chunk, np.ndarray) and chunk.dtype == np.float64:
                    bits, inverse = np.unique(chunk.view(np.int64), return_inverse=True)
                    reprs = np.array([repr(v) for v in bits.view(float).tolist()], dtype=object)
                    cells.append(reprs[inverse].tolist())
                else:
                    cells.append([str(v) for v in chunk])
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))


def _point(row) -> list:
    point = [float(v) for v in row]
    if np.isnan(point).any():
        raise ValueError("NaN coordinate")
    return point


def read_draws_csv(path) -> np.ndarray:
    """Read a CSV of points (a header, then one point per row) into an
    ``(R, D)`` array; malformed rows and NaN coordinates raise with their
    line number (infinite ones are kept: the CDF is defined there)."""
    return np.asarray(read_csv_rows(path, len, _point), dtype=float)

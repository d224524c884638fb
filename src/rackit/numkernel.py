"""Symmetric-matrix primitives backing the layerwise solvers.

Gram accumulators are plain float64 arrays that take blocks of activation
columns in arrival order. A block updates each entry as the sum of one
product per column, added left to right, so the bits never depend on how a
column sequence is cut into blocks. Factorization, solves and inversion go
through LAPACK (dpotrf/dpotrs/dpotri) so the solvers only ever see explicitly
symmetric matrices. Every routine works in 64-bit floats regardless of how
model weights are stored. :func:`single_blas_thread` runs a block with the
loaded OpenBLAS builds on one thread. OpenBLAS's dpotrf and dpotri round
differently at different thread counts, so inside the block their bits no
longer depend on the count the host would pick.

Accumulators are single-writer: nothing here locks, callers must not share a
matrix between concurrent updates.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs

from .errors import CholeskyError, NumericalError, ValidationError

__all__ = [
    "accumulate_gram",
    "check_damp_fraction",
    "dampen",
    "cholesky",
    "solve_spd",
    "inverse_via_cholesky",
    "single_blas_thread",
]


# Row strip height and columns per chunk of the tiled Gram update; one strip
# buffer holds (_CHUNK_COLS + 1) * (_STRIP_ROWS + 1) * dim floats, 1.2 MB at
# dim 512.
_STRIP_ROWS = 8
_CHUNK_COLS = 32


def accumulate_gram(acc: np.ndarray, columns) -> np.ndarray:
    """Add ``x xᵀ`` for each column ``x`` of ``columns`` to ``acc``, in place.

    ``acc`` is a square float64 array of width ``d``. ``columns`` is one
    column of length ``d`` or a ``(T, d)`` block of T columns in arrival
    order. Every entry gets the left fold
    ``((H + x1_i x1_j) + x2_i x2_j) + ...``, the bits of one rank-1 update
    per column, so a column sequence gives the same Gram however it is cut
    into blocks. An empty block changes nothing. An ``acc`` that is not a
    square float64 array, or a block with a wrong shape or a non-finite
    entry, raises :class:`ValidationError` before ``acc`` is touched.

    Only the upper triangle is computed, in strips of ``_STRIP_ROWS`` rows
    from the diagonal rightwards. For each chunk of ``_CHUNK_COLS`` columns a
    buffer holds the strip followed by the chunk's products, and one
    ``np.add.reduce`` over the buffer's first axis adds them in order into
    the strip. The strip is then mirrored into the lower triangle, which is
    exact because ``x_i x_j == x_j x_i`` in IEEE arithmetic.

    No strip may be a single 1x1 tile, the last row on its own when ``d``
    is 1 more than a multiple of ``_STRIP_ROWS``: numpy would then reduce
    the one-element rows as a contiguous run, summing pairwise instead of
    left to right, and the diagonal entry would change bits. That last row
    joins the strip above it, and a 1-wide Gram takes one update per column.
    """
    if not (isinstance(acc, np.ndarray) and acc.dtype == np.float64
            and acc.ndim == 2 and acc.shape[0] == acc.shape[1]):
        raise ValidationError("accumulator must be a square float64 array")
    d = acc.shape[0]
    x = np.asarray(columns, dtype=np.float64)
    block = x[None, :] if x.ndim == 1 else x
    if block.ndim != 2 or block.shape[1] != d:
        raise ValidationError(
            f"columns have shape {x.shape}, accumulator dimension is {d}"
        )
    if not np.isfinite(block).all():
        raise ValidationError("column entries must be finite")
    if d == 1:
        for col in block:
            acc += col[:, None] * col[None, :]
        return acc
    starts = list(range(0, d, _STRIP_ROWS))
    if d % _STRIP_ROWS == 1:
        del starts[-1]
    buf = np.empty((min(_CHUNK_COLS, len(block)) + 1) * (_STRIP_ROWS + 1) * d)
    for i0, i1 in zip(starts, starts[1:] + [d]):
        strip = acc[i0:i1, i0:]
        for t0 in range(0, len(block), _CHUNK_COLS):
            chunk = block[t0 : t0 + _CHUNK_COLS]
            n = len(chunk)
            tile = buf[: (n + 1) * strip.size].reshape(n + 1, *strip.shape)
            tile[0] = strip
            np.multiply(chunk[:, i0:i1, None], chunk[:, None, i0:], out=tile[1:])
            np.add.reduce(tile, axis=0, out=strip)
        acc[i1:, i0:i1] = acc[i0:i1, i1:].T
    return acc


def check_damp_fraction(fraction: float) -> None:
    """Raise :class:`ValidationError` unless ``fraction`` is finite and >= 0."""
    if not (math.isfinite(fraction) and fraction >= 0):
        raise ValidationError(f"dampening fraction must be finite and >= 0, got {fraction}")


def dampen(m: np.ndarray, fraction: float) -> np.ndarray:
    """Return a copy with ``fraction * mean(diag)`` added to every diagonal entry.

    A zero mean diagonal falls back to adding ``fraction * 1.0`` so that a
    positive fraction always moves the matrix toward positive definiteness.
    """
    check_damp_fraction(fraction)
    if m.size == 0:
        raise ValidationError(f"cannot dampen an empty matrix of shape {m.shape}")
    mean_diag = float(np.trace(m)) / m.shape[0]
    shift = fraction * (mean_diag if mean_diag != 0.0 else 1.0)
    out = m.copy()
    out[np.diag_indices(m.shape[0])] += shift
    return out


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    dpotrf reads only the lower triangle of ``a``; the factor's upper
    triangle is zeroed. Raises :class:`CholeskyError` carrying the 0-based
    index of the first non-positive pivot. dpotrf lets NaN and infinity
    through with no error, so a factor whose diagonal is not finite and
    positive raises :class:`NumericalError`.
    """
    c, info = dpotrf(a, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise CholeskyError(info - 1)
    if info < 0:
        raise NumericalError(f"dpotrf rejected argument {-info}")
    diag = np.diag(c)
    if not (np.isfinite(diag) & (diag > 0)).all():
        raise NumericalError("Cholesky factor must have a finite positive diagonal")
    return c


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for a symmetric positive definite ``a`` (dpotrf, dpotrs).

    Only the lower triangle of ``a`` is read. ``b`` is one right-hand side or
    a ``(n, k)`` block of them; ``x`` has its shape. A factorization that
    fails raises as :func:`cholesky` does, and a ``b`` whose length is not
    the order of ``a`` raises :class:`ValidationError`.
    """
    if np.ndim(b) not in (1, 2) or np.shape(b)[0] != a.shape[0]:
        raise ValidationError(
            f"right-hand side has shape {np.shape(b)}, matrix has order {a.shape[0]}"
        )
    x, info = dpotrs(cholesky(a), b, lower=1)
    if info != 0:
        raise NumericalError(f"dpotrs rejected argument {-info}")
    return x


def inverse_via_cholesky(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via its Cholesky factor."""
    inv, info = dpotri(cholesky(m), lower=1)
    if info != 0:
        raise NumericalError(f"dpotri failed with info={info}")
    # dpotri fills one triangle only; mirror it so symmetry is exact.
    lower = np.tril(inv)
    full = lower + np.tril(inv, -1).T
    if not np.isfinite(full).all():
        raise NumericalError("inverse contains non-finite entries")
    return full


# The OpenBLAS builds that numpy and scipy wheels bundle sit in the
# ``numpy.libs`` and ``scipy.libs`` directories next to the packages, as
# ``libscipy_openblas*.so``. Each is opened with RTLD_NOLOAD, which only
# returns a handle to a library the process has already loaded (and raises
# OSError otherwise), so the lookup never loads anything. numpy's ILP64 build
# exports the thread setter and getter with a ``64_`` suffix, scipy's without.
_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(setter, getter) of every loaded OpenBLAS; looked up once, on first use."""
    controls = []
    for package in (np, scipy):
        libdir = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for path in sorted(libdir.glob("libscipy_openblas*.so")):
            try:
                lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
            except OSError:
                continue
            for set_name, get_name in _THREAD_SYMBOLS:
                if hasattr(lib, set_name) and hasattr(lib, get_name):
                    setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    controls.append((setter, getter))
                    break
    return tuple(controls)


@contextmanager
def single_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread.

    Each library gets its own thread count back on exit, also when the block
    raises. Where no library or symbol is found this does nothing. On the
    small matrices of the layerwise solvers, handing work to a second thread
    costs more than it saves.
    """
    controls = _openblas_thread_controls()
    saved = [getter() for _, getter in controls]
    try:
        for setter, _ in controls:
            setter(1)
        yield
    finally:
        for (setter, _), count in zip(controls, saved):
            setter(count)

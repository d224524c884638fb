"""Symmetric-matrix primitives backing the layerwise solvers.

Gram accumulators are plain float64 arrays that take blocks of activation
columns in arrival order. A block updates each entry as the sum of one
product per column, added left to right, so the bits never depend on how a
column sequence is cut into blocks. Factorization, solves and inversion go
through LAPACK (dpotrf/dpotrs/dpotri) so the solvers only ever see explicitly
symmetric matrices. Every routine works in 64-bit floats regardless of how
model weights are stored.

LAPACK is called through the f2py wrappers that ``scipy.linalg.lapack``
exports, with ``lower=1`` as ``scipy.linalg``'s Cholesky routines pass it,
so the bits are scipy's. :func:`_scipy_module` is the one place that loads
scipy's compiled code: one extension module from its file, here
``linalg/_flapack`` and, for the runtime's GELU, ``special/_special_ufuncs``,
so that no command pays for ``import scipy.linalg`` (0.3-0.4 s) or
``import scipy.special`` (0.2-0.3 s).

:func:`single_blas_thread` runs a block with the loaded OpenBLAS builds on
one thread. OpenBLAS's dpotrf and dpotri round differently at different
thread counts, so inside the block their bits no longer depend on the count
the host would pick. The thread setters have no Python API and are called
through ctypes. The lookup only finds libraries already loaded, so it loads
LAPACK first; otherwise, in a fresh process, scipy's OpenBLAS would be
loaded after the pin and run on the host's count.

:func:`usable_cpus` is the one count of the CPUs this process may use, for
every pool that spreads work over them: the affinity mask, lowered to the
CPU quota of the process's own cgroup (:func:`_cgroup_cpu_limit` parses it).

Accumulators are single-writer: nothing here locks, callers must not share a
matrix between concurrent updates.
"""

from __future__ import annotations

import functools
import importlib.util
import math
import os
import sys
from contextlib import contextmanager, suppress
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .errors import CholeskyError, NumericalError, ValidationError

__all__ = [
    "accumulate_gram",
    "check_damp_fraction",
    "dampen",
    "cholesky",
    "solve_spd",
    "inverse_via_cholesky",
    "single_blas_thread",
    "usable_cpus",
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

    ``np.einsum`` writes the products, with its default ``optimize=False``
    so that no BLAS call computes one; it runs about twice as fast as the
    equivalent broadcast ``np.multiply``, which numpy runs without SIMD.
    einsum stores ``0 + x_i x_j``, so a ``-0.0`` product becomes ``+0.0``,
    and no bit moves: numpy's ``np.add.reduce`` starts each entry's fold
    from ``+0.0``, so the fold never holds ``-0.0`` and the sign of a zero
    term never reaches it. The same start turns a ``-0.0`` entry of ``acc``
    that gains only zero products into ``+0.0``; a Gram started from
    ``np.zeros`` holds no ``-0.0``.

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
            np.einsum("ti,tj->tij", chunk[:, i0:i1], chunk[:, i0:], out=tile[1:])
            np.add.reduce(tile, axis=0, out=strip)
        acc[i1:, i0:i1] = acc[i0:i1, i1:].T
    return acc


def check_damp_fraction(fraction: float) -> None:
    """Raise :class:`ValidationError` unless ``fraction`` is finite and >= 0."""
    if not (math.isfinite(fraction) and fraction >= 0):
        raise ValidationError(f"dampening fraction must be finite and >= 0, got {fraction}")


def _check_square(m) -> np.ndarray:
    """``m`` as a float64 array; :class:`ValidationError` unless it is a
    non-empty square matrix. The LAPACK helpers call it before any call."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise ValidationError(f"matrix of shape {m.shape} is empty or not square")
    return m


def dampen(m: np.ndarray, fraction: float) -> np.ndarray:
    """Return a copy with ``fraction * mean(diag)`` added to every diagonal entry.

    A zero mean diagonal falls back to adding ``fraction * 1.0`` so that a
    positive fraction always moves the matrix toward positive definiteness.
    A matrix that is empty or not square raises :class:`ValidationError`.
    """
    check_damp_fraction(fraction)
    m = _check_square(m)
    mean_diag = float(np.trace(m)) / m.shape[0]
    shift = fraction * (mean_diag if mean_diag != 0.0 else 1.0)
    out = m.copy()
    out[np.diag_indices(m.shape[0])] += shift
    return out


def _factor(a: np.ndarray, clean: int = 0) -> np.ndarray:
    """dpotrf's lower factor of a :func:`_check_square` matrix, as a new array.

    dpotrs and dpotri never read the upper triangle, so only the public
    :func:`cholesky` has dpotrf zero it (``clean=1``). f2py sizes every
    LAPACK argument from the arrays, so no routine can reject one.
    """
    c, info = _flapack().dpotrf(a, lower=1, clean=clean)
    if info > 0:
        raise CholeskyError(info - 1)
    diag = c.diagonal()
    if not (np.isfinite(diag) & (diag > 0)).all():
        raise NumericalError("Cholesky factor must have a finite positive diagonal")
    return c


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    dpotrf reads only the lower triangle of ``a``; the factor's upper
    triangle is zeroed. A matrix that is empty or not square raises
    :class:`ValidationError`. A non-positive pivot raises
    :class:`CholeskyError` carrying its 0-based index. dpotrf lets NaN and
    infinity through with no error, so a factor whose diagonal is not finite
    and positive raises :class:`NumericalError`.
    """
    return _factor(_check_square(a), clean=1)


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a x = b`` for a symmetric positive definite ``a`` (dpotrf, dpotrs).

    Only the lower triangle of ``a`` is read. ``b`` is one right-hand side or
    a ``(n, k)`` block of them; ``x`` has its shape. A factorization that
    fails raises as :func:`cholesky` does, and a ``b`` whose length is not
    the order of ``a`` raises :class:`ValidationError`.
    """
    a = _check_square(a)
    if np.ndim(b) not in (1, 2) or np.shape(b)[0] != a.shape[0]:
        raise ValidationError(
            f"right-hand side has shape {np.shape(b)}, matrix has order {a.shape[0]}"
        )
    x, _ = _flapack().dpotrs(_factor(a), b, lower=1)
    return x


def inverse_via_cholesky(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite matrix via its Cholesky factor."""
    # The factor is a private array, so dpotri may overwrite it with the inverse.
    inv, info = _flapack().dpotri(_factor(_check_square(m)), lower=1, overwrite_c=1)
    if info:
        raise NumericalError(f"dpotri failed with info={info}")
    # dpotri fills the lower triangle only; mirror it so symmetry is exact.
    full = np.tril(inv) + np.tril(inv, -1).T
    if not np.isfinite(full).all():
        raise NumericalError("inverse contains non-finite entries")
    return full


def _package_dir(name: str) -> Path | None:
    """Directory of an installed package, found without importing it."""
    spec = importlib.util.find_spec(name)
    return Path(spec.origin).parent if spec is not None and spec.origin else None


def _scipy_module(subpackage: str, name: str):
    """scipy's compiled extension ``scipy.<subpackage>.<name>``, or None.

    The file is found from scipy's directory and the interpreter's extension
    suffixes, loaded alone and registered under its own name, so that a
    later scipy import reuses it; one already registered is returned.
    """
    full_name = f"scipy.{subpackage}.{name}"
    module = sys.modules.get(full_name)
    if module is not None:
        return module
    scipy_dir = _package_dir("scipy")
    if scipy_dir is None:
        return None
    path = next((path for suffix in EXTENSION_SUFFIXES
                 if (path := scipy_dir / subpackage / f"{name}{suffix}").is_file()), None)
    if path is None:
        return None
    spec = importlib.util.spec_from_file_location(full_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[full_name] = module
    return module


@functools.cache
def _flapack():
    """scipy's ``linalg/_flapack``, the f2py wrappers of ``scipy.linalg.lapack``.

    Loading it loads scipy's OpenBLAS, for :func:`_openblas_thread_controls`.
    Where it is missing, :class:`NumericalError` names the file.
    """
    module = _scipy_module("linalg", "_flapack")
    if module is None:
        tried = ", ".join(f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES)
        raise NumericalError(f"cannot load LAPACK: scipy's linalg has none of {tried}")
    return module


# The OpenBLAS builds that numpy and scipy wheels bundle sit in the
# ``numpy.libs`` and ``scipy.libs`` directories next to the packages, as
# ``libscipy_openblas*.so``. Each is opened with RTLD_NOLOAD, which only
# returns a handle to a library the process has already loaded (and raises
# OSError otherwise), so the lookup itself loads nothing: scipy's build is
# loaded by :func:`_flapack`, called first. numpy's ILP64 build exports the
# thread setter and getter with a ``64_`` suffix, scipy's without.
_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """(setter, getter) of every loaded OpenBLAS; looked up once, on first use."""
    import ctypes

    with suppress(NumericalError):  # no LAPACK: its first call raises instead
        _flapack()
    controls = []
    for name in ("numpy", "scipy"):
        package_dir = _package_dir(name)
        if package_dir is None:
            continue
        libdir = package_dir.parent / f"{name}.libs"
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


def _cgroup_cpu_limit(text: str) -> int | None:
    """CPUs a cgroup quota allows, from its ``"<quota> <period>"`` text.

    That is cgroup v2's ``cpu.max``, or v1's ``cpu.cfs_quota_us`` and
    ``cpu.cfs_period_us`` joined by a space. The limit is the quota over the
    period, rounded up. ``max``, a negative quota, or text that does not hold
    both numbers means no quota: None.
    """
    try:
        quota, period = (int(field) for field in text.split()[:2])
    except ValueError:
        return None
    return math.ceil(quota / period) if quota > 0 and period > 0 else None


def _cgroup_quota_text() -> str:
    """The CPU quota of this process's own cgroup as :func:`_cgroup_cpu_limit`
    reads it; empty where no quota file can be read."""
    try:
        lines = Path("/proc/self/cgroup").read_text().splitlines()
    except OSError:
        return ""
    for line in lines:
        try:
            _, controllers, path = line.split(":", 2)
            here = path.lstrip("/")
            if controllers == "":  # cgroup v2: one unified hierarchy
                return (Path("/sys/fs/cgroup") / here / "cpu.max").read_text()
            if "cpu" in controllers.split(","):
                base = Path("/sys/fs/cgroup/cpu") / here
                return " ".join((base / name).read_text()
                                for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
        except (OSError, ValueError):
            continue
    return ""


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, lowered to the CPU
    quota of its own cgroup where one is set; 1 where the platform cannot
    say."""
    count = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return min(count, _cgroup_cpu_limit(_cgroup_quota_text()) or count)

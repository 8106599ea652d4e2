"""Compiled ``GF(p)`` kernels: build once, cache, load through ctypes.

``native.c`` holds three entry points — the elementwise
multiply-reduce behind :func:`repro.field.vector.vmul`, the factored
stage DFT behind the ``compiled`` NTT kernel (:mod:`repro.ntt.kernels`)
and the one-pass row carry behind
:func:`repro.ssa.carry.carry_recover_many`.  It is compiled on first
use with the C compiler Python's own extension build uses
(``sysconfig``'s ``CC``, overridable by the ``CC`` environment
variable) and portable flags, then loaded with stdlib :mod:`ctypes`.

The shared library is cached in ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``) under a name keyed by a hash of the source, the
compiler command, the flags and the machine, so a cache hit never runs
the compiler.  A build writes a private temporary file and renames it
into place, so concurrent processes (spawn workers, a serve
subprocess, parallel tests) only ever load a complete library.

When the build fails, :func:`load` raises :class:`CompileError` naming
the compiler failure and :func:`available` is ``False``; callers then
keep the numpy paths.  Every wrapper validates dtype, contiguity,
shape and overlap in Python before any pointer reaches C.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import subprocess
import sysconfig
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

SOURCE = Path(__file__).with_name("native.c")
#: Portable flags: no ``-march=native``, so one cached library serves
#: every host that shares the cache directory.
FLAGS = ("-O3", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120

_lock = threading.Lock()
_state: dict = {}


class CompileError(RuntimeError):
    """The compiled kernels could not be built or loaded."""


def compiler() -> list:
    """The compiler command: ``$CC``, else ``sysconfig``'s ``CC``."""
    command = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shlex.split(command)


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/repro``, defaulting to ``~/.cache/repro``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(root) / "repro"


def library_path() -> Path:
    """Where the library for the current source/compiler/flags lives."""
    key = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        "\0".join(compiler()).encode(),
        "\0".join(FLAGS).encode(),
        platform.machine().encode(),
    ):
        key.update(part)
        key.update(b"\0\1")
    return cache_dir() / f"native-{key.hexdigest()[:24]}.so"


def _build(target: Path) -> None:
    """Compile ``SOURCE`` to ``target`` atomically."""
    command = compiler()
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=target.parent, prefix=".build-", suffix=".so"
        )
    except OSError as exc:
        raise CompileError(f"cannot write to {target.parent}: {exc}") from exc
    os.close(fd)
    try:
        try:
            done = subprocess.run(
                [*command, *FLAGS, "-o", tmp, str(SOURCE)],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=_BUILD_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise CompileError(
                f"compiler {shlex.join(command)!r} failed to run: {exc}"
            ) from exc
        if done.returncode != 0:
            detail = (done.stderr or done.stdout).strip()[-2000:]
            raise CompileError(
                f"compiler {shlex.join(command)!r} exited "
                f"{done.returncode} building {SOURCE.name}"
                + (f": {detail}" if detail else "")
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    size, ptr = ctypes.c_size_t, ctypes.c_void_p
    lib.mul_reduce.argtypes = [ptr, ptr, ptr, size, size]
    lib.mul_reduce.restype = None
    lib.stage_dft.argtypes = [ptr, ptr, size, size, size, ptr, ptr, ptr]
    lib.stage_dft.restype = ctypes.c_int
    lib.carry_rows.argtypes = [ptr, ptr, size, size, size, ctypes.c_uint]
    lib.carry_rows.restype = None
    return lib


def _open() -> ctypes.CDLL:
    try:
        path = library_path()
    except OSError as exc:  # the source was not installed
        raise CompileError(f"cannot read {SOURCE}: {exc}") from exc
    if not path.exists():
        _build(path)
    try:
        return _declare(ctypes.CDLL(str(path)))
    except OSError as exc:
        raise CompileError(
            f"cannot load {path} (delete it to rebuild): {exc}"
        ) from exc


def load() -> ctypes.CDLL:
    """The loaded library, building it on a cache miss.

    The outcome is remembered for the life of the process: a failure
    raises the same :class:`CompileError` on every later call without
    invoking the compiler again.
    """
    with _lock:
        if not _state:
            try:
                _state["lib"] = _open()
            except CompileError as exc:
                _state["error"] = exc
        if "error" in _state:
            raise _state["error"]
        return _state["lib"]


def available() -> bool:
    """Whether the compiled kernels build and load on this host."""
    try:
        load()
    except CompileError:
        return False
    return True


def _loaded() -> Optional[ctypes.CDLL]:
    """The library, or ``None`` when it does not build (no raise)."""
    if not _state:
        available()
    return _state.get("lib")


def _period(x: np.ndarray, shape: tuple) -> int:
    """Element count of the C-contiguous block ``x`` repeats along the
    leading axes of ``shape`` (``x.size`` for a C-contiguous operand of
    the full shape), or 0 when ``x`` is laid out any other way."""
    pad = len(shape) - x.ndim
    sizes = (1,) * pad + x.shape
    strides = (0,) * pad + x.strides
    axis, period = len(shape), 1
    while axis and sizes[axis - 1] == shape[axis - 1] and (
        sizes[axis - 1] == 1 or strides[axis - 1] == 8 * period
    ):
        axis -= 1
        period *= sizes[axis]
    for size, stride in zip(sizes[:axis], strides[:axis]):
        if size != 1 and stride != 0:
            return 0
    return period


def mul_reduce(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> Optional[np.ndarray]:
    """Compiled ``(a * b) mod p``, or ``None`` for layouts it does not take.

    Taken: uint64 operands where one is C-contiguous of the full
    broadcast shape and the other is either the same or a C-contiguous
    block repeated along leading axes (a twiddle table, one spectrum,
    a broadcast scalar).  ``out``, when given, must be C-contiguous of
    the full shape and may only overlap a full-shape operand it
    coincides with.  ``None`` also when the library is unavailable.
    """
    if not (
        isinstance(a, np.ndarray)
        and isinstance(b, np.ndarray)
        and a.dtype == np.uint64
        and b.dtype == np.uint64
    ):
        return None
    lib = _loaded()
    if lib is None:
        return None
    shape = a.shape if a.shape == b.shape else np.broadcast_shapes(
        a.shape, b.shape
    )
    size = 1
    for extent in shape:
        size *= extent
    period_a, period_b = _period(a, shape), _period(b, shape)
    if period_a != size:
        a, b, period_a, period_b = b, a, period_b, period_a
    if period_a != size or period_b == 0:
        return None
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    else:
        if not (
            isinstance(out, np.ndarray)
            and out.dtype == np.uint64
            and out.shape == shape
            and out.flags.c_contiguous
            and out.flags.writeable
        ):
            return None
        # Element i is read before it is written, so out may be a
        # full-shape operand itself, but must not overlap any other way.
        target = out.ctypes.data
        for operand, period in ((a, period_a), (b, period_b)):
            if np.may_share_memory(out, operand) and not (
                period == size and operand.ctypes.data == target
            ):
                return None
    if size:
        lib.mul_reduce(
            a.ctypes.data, b.ctypes.data, out.ctypes.data, size, period_b
        )
    return out


def carry_rows(
    coefficients: np.ndarray, m: int, width: int
) -> Optional[np.ndarray]:
    """Compiled carry of each row of ``coefficients`` into ``width``
    ``m``-bit digits, or ``None`` for inputs it does not take.

    Taken: a C-contiguous 2-D uint64 ``(batch, n)`` matrix, an int
    ``0 < m < 64`` and an int ``width >= n``.  Row ``b`` of the
    ``(batch, width)`` result holds the low ``width`` digits of
    ``Σ_j coefficients[b, j]·2**(m·j)``, least significant first.
    ``None`` also when the library is unavailable.
    """
    if not (
        isinstance(coefficients, np.ndarray)
        and coefficients.dtype == np.uint64
        and coefficients.ndim == 2
        and coefficients.flags.c_contiguous
        and isinstance(m, (int, np.integer))
        and 0 < m < 64
        and isinstance(width, (int, np.integer))
        and width >= coefficients.shape[1]
    ):
        return None
    lib = _loaded()
    if lib is None:
        return None
    batch, n = coefficients.shape
    out = np.empty((batch, width), dtype=np.uint64)
    if batch:
        lib.carry_rows(
            coefficients.ctypes.data, out.ctypes.data, batch, n, width, m
        )
    return out


@dataclass(frozen=True)
class StageFactors:
    """A stage matrix as ``diag(row_scale)·F_R(ω)·diag(col_scale)``, in
    the table form :func:`stage_dft` takes.

    The C kernel trusts these tables, so they are checked once, here:
    C-contiguous uint64 arrays, ``R/2`` powers for a power-of-two radix
    ``R ≥ 2`` and ``R`` entries per scale.
    """

    #: ``ω^j`` for ``j < R/2``.
    powers: np.ndarray
    #: Column scales ``c``, ``None`` when all ones.
    col_scale: Optional[np.ndarray] = None
    #: Row scales ``r``, ``None`` when all ones.
    row_scale: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        half = (
            len(self.powers)
            if isinstance(self.powers, np.ndarray) and self.powers.ndim == 1
            else 0
        )
        tables = [(self.powers, half)] + [
            (scale, 2 * half)
            for scale in (self.col_scale, self.row_scale)
            if scale is not None
        ]
        if half == 0 or half & (half - 1) or not all(
            isinstance(table, np.ndarray)
            and table.dtype == np.uint64
            and table.shape == (length,)
            and table.flags.c_contiguous
            for table, length in tables
        ):
            raise ValueError(
                "stage factor tables must be C-contiguous uint64 arrays: "
                "R/2 powers for a power-of-two radix R >= 2 and R-entry "
                "scales"
            )

    @property
    def radix(self) -> int:
        return 2 * len(self.powers)


def stage_dft(x: np.ndarray, out: np.ndarray, factors: StageFactors) -> bool:
    """Run one factored stage into ``out``; ``False`` (nothing written)
    when ``x``/``out`` are not non-overlapping C-contiguous uint64
    ``(blocks, factors.radix, tail)`` arrays of one shape."""
    if not (
        isinstance(factors, StageFactors)
        and isinstance(x, np.ndarray)
        and isinstance(out, np.ndarray)
        and x.dtype == np.uint64
        and out.dtype == np.uint64
        and x.ndim == 3
        and out.shape == x.shape
        and x.shape[1] == factors.radix
        and x.flags.c_contiguous
        and out.flags.c_contiguous
        and out.flags.writeable
        and not np.may_share_memory(x, out)
    ):
        return False
    blocks, radix, tail = x.shape
    if blocks == 0 or tail == 0:
        return True
    col_scale, row_scale = factors.col_scale, factors.row_scale
    status = load().stage_dft(
        x.ctypes.data,
        out.ctypes.data,
        blocks,
        radix,
        tail,
        factors.powers.ctypes.data,
        None if col_scale is None else col_scale.ctypes.data,
        None if row_scale is None else row_scale.ctypes.data,
    )
    if status:
        raise MemoryError(f"no tile buffer for a radix-{radix} stage")
    return True

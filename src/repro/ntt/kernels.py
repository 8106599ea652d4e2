"""Stage-DFT kernel backends: ``loop``, ``limb-matmul`` and ``compiled``.

The hardware FFT-64 unit evaluates a radix-64 DFT as a dense web of
shift-and-add partial products in one pipelined pass (paper Eq. 3/5).
The software analogue has three interchangeable realizations of the
same stage contract ``out[b, k, m] = Σ_i  M[k, i] · x[b, i, m]  (mod p)``:

``loop``
    The reference kernel: ``radix²`` interpreted iterations of
    scalar-broadcast :func:`repro.field.vector.vmul` /
    :func:`~repro.field.vector.vadd`.  Bit-exact by construction and
    kept as the exactness oracle for the fast paths.

``limb-matmul``
    The numpy throughput kernel.  Matrix and data are decomposed into
    four 16-bit limbs and the stage becomes 16 dense matmuls carried
    out in *float64* (BLAS):

    - every limb product is ``< 2**32`` and a row sums ``radix ≤ 64``
      of them, so each partial-product accumulation is ``< 2**38``;
    - limb planes of equal weight ``w = j + l`` combine at most four
      accumulations, so every weight plane ``T_w < 2**40`` — far below
      the ``2**53`` float64 exactness horizon, hence every matmul and
      every plane sum is *exact* integer arithmetic;
    - the seven weight planes fold back through the word-level
      Goldilocks identities: ``Σ_{w≤5} T_w·2**(16w) < 2**128`` is
      assembled as a (hi, lo) pair for
      :func:`repro.field.vector._reduce_wide` (paper Eq. 4), and the
      ``w = 6`` plane uses ``2**96 ≡ −1 (mod p)``.

``compiled``
    The C kernel of :mod:`repro.native`.  Every stage matrix our plans
    build has the form ``diag(r)·F_R(ω)·diag(c)``: the pure R-point DFT
    with the fused negacyclic ψ column scales ``c`` and the ψ⁻¹ /
    ``n^{-1}`` row scales ``r``.  :func:`factor_stage` recovers
    ``(ω, c, r)`` once per stage and checks the factorisation entry by
    entry; the kernel then runs an in-place radix-2 FFT along the radix
    axis, ``O(R log R)`` instead of ``O(R²)`` per column, with
    twiddles from a table of precomputed powers of ω, applying ``c``
    on load and ``r`` on store.  The tables are a
    :class:`repro.native.StageFactors`, checked at construction before
    any pointer reaches C.
    A matrix that does not factor (a hand-built spec) runs on
    ``limb-matmul``.  Field arithmetic is exact, so the result is
    bit-identical to the other two kernels.

The backend is chosen per plan (``plan_for_size(..., kernel=...)``),
with the :data:`KERNEL_ENV_VAR` environment variable overriding the
default for unpinned callers.  The default is ``compiled`` whenever
the library builds and loads on this host, else ``limb-matmul``; an
explicit ``compiled`` request on a host where it does not build raises
:class:`repro.native.CompileError` instead of falling back.

All kernels are *constant-agnostic*: a stage matrix is any canonical
uint64 residue matrix, so the fused negacyclic stage specs
(:func:`repro.ntt.plan._fuse_negacyclic` scales DFT columns/rows and
twiddle tables by ψ-twist factors mod p) run through the identical
code paths — limb products and weight-plane sums depend only on the
16-bit limb geometry and the radix, never on which constants fill the
matrix, so every fused accumulation stays below the same
``2**40 ≪ 2**53`` bound, and the fused scales are exactly the ``c``
and ``r`` of the compiled kernel's factorisation.  The
permutation-free DIT inverse stages (:func:`repro.ntt.plan._decimate`
transposes each inverse matrix and folds ψ⁻¹/``n^{-1}`` row scales
into it) lean on the same property: ``StageSpec`` rebuilds the limb
planes and the factorisation of whatever matrix it is handed, and the
kernels never ask where the constants came from.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Tuple

import numpy as np

from repro import native
from repro.field.roots import is_primitive_root
from repro.field.solinas import P, inverse
from repro.field.vector import _reduce_wide, vadd, vmul, vsub
from repro.native import StageFactors

KERNEL_LOOP = "loop"
KERNEL_LIMB_MATMUL = "limb-matmul"
KERNEL_COMPILED = "compiled"
#: Environment variable overriding the default backend for plans built
#: without an explicit ``kernel=`` argument.
KERNEL_ENV_VAR = "REPRO_NTT_KERNEL"

#: Limb geometry of the fast kernel: 4 × 16-bit planes cover uint64.
LIMB_BITS = 16
LIMB_COUNT = 4
_LIMB_MASK = np.uint64((1 << LIMB_BITS) - 1)
#: Provably safe radix ceiling for the fast kernel.  The binding
#: constraint is the uint64 fold, not float64 exactness: a weight
#: plane is ``≤ 4·radix·(2**16−1)²`` and ``tw[5] << 16`` plus the
#: other ``hi`` contributions must stay below ``2**64``, which holds
#: for ``radix ≤ 2**14`` (then ``T_w < 2**48 < 2**53``, so the float
#: matmuls are exact too, and ``hi < 2**63 + 2**49`` never wraps).
MAX_LIMB_MATMUL_RADIX = 1 << 14
#: Stage chunks are sized to keep the float64 limb planes cache-resident
#: (measured sweet spot; larger chunks go memory-bound).
_CHUNK_ELEMS = 1 << 15


def available_kernels() -> Tuple[str, ...]:
    """The selectable stage-kernel backend names on this host:
    ``compiled`` is listed only when :mod:`repro.native` loads."""
    names = (KERNEL_LOOP, KERNEL_LIMB_MATMUL)
    return names + (KERNEL_COMPILED,) if native.available() else names


def default_kernel() -> str:
    """The backend used when a plan does not pin one.

    Honors :data:`KERNEL_ENV_VAR`, falling back to ``compiled`` when
    the library loads and to ``limb-matmul`` otherwise.
    """
    name = os.environ.get(KERNEL_ENV_VAR)
    if name:
        return resolve_kernel(name)
    return KERNEL_COMPILED if native.available() else KERNEL_LIMB_MATMUL


def resolve_kernel(name: Optional[str]) -> str:
    """Validate a backend name; ``None`` resolves to the default.

    ``compiled`` on a host where the library does not build raises
    :class:`repro.native.CompileError` with the compiler's failure.
    """
    if name is None:
        return default_kernel()
    if name == KERNEL_COMPILED:
        native.load()
        return name
    if name not in available_kernels():
        raise ValueError(
            f"unknown NTT kernel {name!r}; "
            f"expected one of {available_kernels()}"
        )
    return name


def _scale_or_none(values: np.ndarray) -> Optional[np.ndarray]:
    return None if np.all(values == 1) else np.ascontiguousarray(values)


def factor_stage(matrix: np.ndarray) -> Optional[StageFactors]:
    """Factor a radix-R stage matrix for the compiled kernel.

    Gauge: when row 0 is constant the whole scale goes to the rows
    (``c = 1``, ``r_k = M[k, 0]``), else ``r_0 = 1``, ``c = M[0, :]``
    and ``r_k = M[k, 0] / c_0``; then ``ω = M[1, 1] / (r_1·c_1)``.  The
    factorisation is accepted only when ``R`` is a power of two, ω is a
    primitive R-th root of unity and the rebuilt matrix equals
    ``matrix`` entry by entry; otherwise ``None``.
    """
    matrix = np.asarray(matrix)
    radix = len(matrix) if matrix.ndim else 0
    if (
        matrix.dtype != np.uint64
        or matrix.shape != (radix, radix)
        or radix < 2
        or radix & (radix - 1)
        or matrix[0, 0] == 0
        or matrix[1, 0] == 0
        or matrix[0, 1] == 0
    ):
        return None
    if np.all(matrix[0] == matrix[0, 0]):
        cols = np.ones(radix, dtype=np.uint64)
        rows = matrix[:, 0].copy()
    else:
        cols = matrix[0].copy()
        rows = vmul(
            matrix[:, 0],
            np.broadcast_to(np.uint64(inverse(int(cols[0]))), (radix,)),
        )
    omega = int(matrix[1, 1]) * inverse(int(rows[1]) * int(cols[1])) % P
    if not is_primitive_root(omega, radix):
        return None
    powers = np.empty(radix, dtype=np.uint64)
    value = 1
    for j in range(radix):
        powers[j] = value
        value = value * omega % P
    index = np.arange(radix)
    dft = powers[np.outer(index, index) % radix]
    rebuilt = vmul(
        vmul(dft, np.broadcast_to(rows[:, np.newaxis], dft.shape)),
        np.broadcast_to(cols[np.newaxis, :], dft.shape),
    )
    if not np.array_equal(rebuilt, matrix):
        return None
    return StageFactors(
        powers=np.ascontiguousarray(powers[: radix // 2]),
        col_scale=_scale_or_none(cols),
        row_scale=_scale_or_none(rows),
    )


def limb_decompose_matrix(matrix: np.ndarray) -> np.ndarray:
    """``(LIMB_COUNT, R, R)`` float64 planes of 16-bit matrix limbs.

    Plan construction caches this next to the twiddle tables so the
    fast kernel never re-decomposes a DFT matrix at execute time.
    """
    matrix = np.ascontiguousarray(matrix, dtype=np.uint64)
    planes = np.empty((LIMB_COUNT,) + matrix.shape, dtype=np.float64)
    for j in range(LIMB_COUNT):
        planes[j] = (matrix >> np.uint64(LIMB_BITS * j)) & _LIMB_MASK
    return planes


def stage_dft_loop(
    block_view: np.ndarray,
    matrix: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Reference kernel: radix² scalar-broadcast multiply-accumulates.

    ``out`` must not alias ``block_view`` (every output row reads every
    input row).  Two ``(B, M)`` scratch rows are the only allocations.
    """
    b, radix, tail = block_view.shape
    if out is None:
        out = np.empty_like(block_view)
    term = np.empty((b, tail), dtype=np.uint64)
    for k in range(radix):
        row = matrix[k]
        acc = out[:, k, :]
        np.copyto(acc, block_view[:, 0, :])
        if row[0] != 1:
            vmul(acc, np.broadcast_to(row[0], (b, tail)), out=acc)
        for i in range(1, radix):
            w = row[i]
            if w == 1:
                vadd(acc, block_view[:, i, :], out=acc)
            else:
                vmul(
                    block_view[:, i, :],
                    np.broadcast_to(w, (b, tail)),
                    out=term,
                )
                vadd(acc, term, out=acc)
    return out


def stage_dft_limb_matmul(
    block_view: np.ndarray,
    matrix_limbs: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Fast kernel: 16-bit-limb float64 matmuls + Eq. 4 limb fold.

    ``matrix_limbs`` is :func:`limb_decompose_matrix` of the stage DFT
    matrix.  ``out`` must not alias ``block_view``.  Bit-identical to
    :func:`stage_dft_loop` for canonical inputs (see the module
    docstring for the exactness argument).
    """
    b, radix, tail = block_view.shape
    if radix > MAX_LIMB_MATMUL_RADIX:
        raise ValueError(
            f"radix {radix} exceeds the float64-exactness bound of the "
            f"limb-matmul kernel ({MAX_LIMB_MATMUL_RADIX})"
        )
    if out is None:
        out = np.empty_like(block_view)
    if b == 0:
        return out
    # Process the block axis in cache-sized chunks: the limb planes are
    # 8× the uint64 working set, and keeping them resident is worth
    # ~2.5× at large batches.  Scratch buffers are allocated once for
    # the largest chunk and sliced per iteration, so the hot loop does
    # not churn the allocator.
    rows = min(b, max(1, _CHUNK_ELEMS // (radix * tail)))
    n_weights = 2 * LIMB_COUNT - 1
    shape = (rows, radix, tail)
    planes = np.empty((LIMB_COUNT,) + shape, dtype=np.float64)
    partial = np.empty_like(planes)
    weights = np.empty((n_weights,) + shape, dtype=np.float64)
    tw = np.empty((n_weights,) + shape, dtype=np.uint64)
    u64_a = np.empty(shape, dtype=np.uint64)
    u64_b = np.empty(shape, dtype=np.uint64)
    for start in range(0, b, rows):
        count = min(rows, b - start)
        _limb_matmul_chunk(
            block_view[start : start + count],
            matrix_limbs,
            out[start : start + count],
            planes[:, :count],
            partial[:, :count],
            weights[:, :count],
            tw[:, :count],
            u64_a[:count],
            u64_b[:count],
        )
    return out


def _limb_matmul_chunk(
    x: np.ndarray,
    matrix_limbs: np.ndarray,
    out: np.ndarray,
    planes: np.ndarray,
    partial: np.ndarray,
    weights: np.ndarray,
    tw: np.ndarray,
    u64_a: np.ndarray,
    u64_b: np.ndarray,
) -> None:
    # Data limbs, float64: planes[l] = (x >> 16l) & 0xFFFF.
    for l in range(LIMB_COUNT):
        np.right_shift(x, np.uint64(LIMB_BITS * l), out=u64_a)
        np.bitwise_and(u64_a, _LIMB_MASK, out=u64_a)
        planes[l] = u64_a

    # weight[w] = Σ_{j+l=w} M_j @ x_l — each matmul accumulation is
    # < 2**38 and each weight plane < 2**40: exact in float64.
    weights[...] = 0.0
    for j in range(LIMB_COUNT):
        # One stacked BLAS call per matrix limb: (R, R) @ (4, b, R, T).
        np.matmul(matrix_limbs[j], planes, out=partial)
        for l in range(LIMB_COUNT):
            np.add(weights[j + l], partial[l], out=weights[j + l])

    # Fold Σ_w T_w · 2**(16w).  Weights 0..5 assemble an exact 128-bit
    # (hi, lo) pair (< 2**104 + 2**121 < 2**128); shifted-out top bits
    # and carries land in hi, which stays < 2**57 and never wraps.
    np.copyto(tw, weights, casting="unsafe")  # exact: every T_w < 2**53
    lo = tw[0]
    hi = u64_a
    hi[...] = 0
    shifted = u64_b
    for w in (1, 2, 3):
        np.left_shift(tw[w], np.uint64(LIMB_BITS * w), out=shifted)
        hi += tw[w] >> np.uint64(64 - LIMB_BITS * w)
        lo += shifted
        hi += lo < shifted  # carry out of the low word
    hi += tw[4]
    np.left_shift(tw[5], np.uint64(LIMB_BITS), out=shifted)
    hi += shifted
    _reduce_wide(hi, lo, out=lo)
    # Weight 6 sits at 2**96 ≡ −1 (mod p): subtract its plane
    # (< 2**40 < p, hence canonical).
    vsub(lo, tw[6], out=out)


def _run_loop(block_view: np.ndarray, stage, out: np.ndarray) -> np.ndarray:
    return stage_dft_loop(block_view, stage.dft_matrix, out=out)


def _run_limb_matmul(
    block_view: np.ndarray, stage, out: np.ndarray
) -> np.ndarray:
    # StageSpec.__post_init__ guarantees the cached limb planes exist.
    return stage_dft_limb_matmul(block_view, stage.dft_limbs, out=out)


def _run_compiled(block_view: np.ndarray, stage, out: np.ndarray) -> np.ndarray:
    factors = stage.factors
    if factors is None or not native.stage_dft(block_view, out, factors):
        return _run_limb_matmul(block_view, stage, out)
    return out


_EXECUTORS: dict = {
    KERNEL_LOOP: _run_loop,
    KERNEL_LIMB_MATMUL: _run_limb_matmul,
    KERNEL_COMPILED: _run_compiled,
}


def stage_executor(
    name: Optional[str],
) -> Callable[[np.ndarray, object, np.ndarray], np.ndarray]:
    """The ``(block_view, stage, out) -> out`` executor for a backend."""
    return _EXECUTORS[resolve_kernel(name)]

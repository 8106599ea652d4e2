"""Vectorized execution of mixed-radix transform plans.

Implements the staged dataflow of paper Eq. 2: at every stage the
working set is viewed as ``(blocks, radix, tail)``; a small DFT is
applied along the ``radix`` axis for all blocks/columns at once, the
inter-stage twiddles are applied, and the block axis grows by the
radix.  After the last stage a single digit-reversal permutation
restores natural output order — unless the plan is *decimated*
(``plan.ordering == ORDER_DECIMATED``): a decimation-in-frequency
forward then simply keeps the decimated block order (no gather), and
its decimation-in-time inverse companion (``plan.dit``) walks the
reversed stage schedule with each twiddle diagonal applied *before*
its DFT, consuming decimated spectra and emitting natural-order
coefficients with no gather either.  Convolution pipelines pair the
two and never permute at all.

The stage DFT itself dispatches on the plan's *kernel backend*
(:mod:`repro.ntt.kernels`): the ``compiled`` backend runs it as a
radix-2 FFT in C, and hosts without a compiler evaluate the same web
as a handful of exact 16-bit-limb float64 matmuls (``limb-matmul``) —
the software analogues of the FFT-64 unit computing a radix-64 DFT in
one pipelined pass.  The ``loop`` reference, which walks the
``radix²`` multiply-accumulate web in interpreted iterations, runs
only where a test or benchmark pins it.
The executor ping-pongs between two preallocated working buffers and
applies twiddles in place, so a transform allocates O(batch·n) once
instead of churning per-stage temporaries.

The executor is *batched*: the native operand is a ``(batch, n)``
uint64 matrix whose rows are independent transforms.  Because every
stage treats blocks identically, a batch row is simply one more level
of the block axis, so throughput-oriented callers amortize the
remaining per-stage overhead across the whole batch.

``execute_plan``/``execute_plan_inverse`` accept either a flat length-n
vector (the historical API, returned flat) or a ``(batch, n)`` matrix;
the single-vector path is a thin ``batch=1`` wrapper and is bit-exact
against :func:`repro.ntt.reference.dft_reference`.

These functions are the ``software`` compute backend of the
:class:`repro.engine.Engine` façade; prefer ``engine.ring(n)`` for new
code — it is the same executor behind a shape-polymorphic surface with
per-engine plan caching.
"""

from __future__ import annotations

import numpy as np

from repro.field.vector import vmul
from repro.ntt.kernels import stage_executor
from repro.ntt.plan import ORDER_DECIMATED, TransformPlan


def execute_plan_batch(values: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Row-wise forward NTT of a ``(batch, n)`` uint64 matrix.

    Each row is transformed exactly as :func:`execute_plan` would
    transform it alone; the batch axis rides along as the slowest
    dimension of the block axis, so every stage's small-DFT and twiddle
    multiply run vectorized across the whole batch.
    """
    data = np.ascontiguousarray(values, dtype=np.uint64)
    if data.ndim != 2 or data.shape[1] != plan.n:
        raise ValueError(f"expected a (batch, {plan.n}) uint64 matrix")
    batch = data.shape[0]
    kernel = stage_executor(plan.kernel or None)
    if plan.dit:
        return _execute_dit_batch(data, plan, kernel)

    # Two ping-pong buffers cover every stage: the kernels write `dst`
    # from `src` without aliasing, and stage output shapes all hold
    # batch·n elements.  The caller's array is only ever read.
    src = data
    bufs = [np.empty_like(data), None]
    which = 0
    for stage in plan.stages:
        rows, length = src.shape
        radix = stage.radix
        tail = length // radix
        if bufs[which] is None:
            bufs[which] = np.empty_like(data)
        dst = bufs[which].reshape(rows, radix, tail)
        kernel(src.reshape(rows, radix, tail), stage, dst)
        if stage.twiddles is not None:
            vmul(dst, stage.twiddles[np.newaxis, :, :], out=dst)
        src = dst.reshape(rows * radix, tail)
        which = 1 - which
    out = src.reshape(batch, plan.n)
    if plan.ordering == ORDER_DECIMATED:
        # Permutation-free: the decimated block order *is* the output.
        # `out` is one of the freshly allocated ping-pong buffers, so
        # the caller owns it outright.
        return out
    return out[:, plan.output_permutation]


def _execute_dit_batch(
    data: np.ndarray, plan: TransformPlan, kernel
) -> np.ndarray:
    """Decimation-in-time walk: pre-twiddles, growing tail, no gather.

    Stage ``j`` views the working set as ``(groups, radix, tail)`` with
    ``tail`` the product of the radices already executed; the stage's
    twiddle diagonal multiplies the *input* view (the transpose of the
    DIF schedule, where it followed the DFT), then the — transposed,
    already folded into the plan's constants — stage DFT runs along the
    radix axis.  Input is a decimated spectrum; output is natural-order
    coefficients, with the ``n^{-1}`` scale folded into the plan.
    """
    batch = data.shape[0]
    src = data
    bufs = [np.empty_like(data), None]
    which = 0
    tail = 1
    for stage in plan.stages:
        radix = stage.radix
        groups = (batch * plan.n) // (radix * tail)
        view = src.reshape(groups, radix, tail)
        if stage.twiddles is not None:
            tw = stage.twiddles[np.newaxis, :, :]
            if src is data:
                # Never write the caller's array: pre-twiddle into the
                # idle ping-pong buffer instead of in place.
                if bufs[1 - which] is None:
                    bufs[1 - which] = np.empty_like(data)
                view = vmul(
                    view, tw, out=bufs[1 - which].reshape(groups, radix, tail)
                )
            else:
                vmul(view, tw, out=view)
        if bufs[which] is None:
            bufs[which] = np.empty_like(data)
        kernel(view, stage, bufs[which].reshape(groups, radix, tail))
        src = bufs[which]
        which = 1 - which
        tail *= radix
    return src.reshape(batch, plan.n)


def execute_plan_inverse_batch(
    values: np.ndarray, plan: TransformPlan
) -> np.ndarray:
    """Row-wise inverse NTT of a ``(batch, n)`` uint64 matrix.

    For a fused negacyclic plan (``plan.twist``) the inverse companion
    already carries the ``n^{-1}`` scale (and the ψ⁻¹-untwist) in its
    last-stage constants, so the plan execution *is* the whole inverse
    — no trailing scale pass.  Decimated pairs fold ``n^{-1}`` into the
    DIT inverse's last-executed stage the same way.
    """
    if plan.inverse_plan is None:
        raise ValueError("plan was built without an inverse companion")
    spectrum = execute_plan_batch(values, plan.inverse_plan)
    if plan.twist or plan.ordering == ORDER_DECIMATED:
        return spectrum
    # `spectrum` is freshly owned: scale in place.
    return vmul(
        spectrum,
        np.broadcast_to(plan.n_inv, spectrum.shape),
        out=spectrum,
    )


def execute_plan(values: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Forward NTT under ``plan``.

    A flat length-n array transforms to a flat array; a ``(batch, n)``
    matrix transforms row-wise to a matrix of the same shape.
    """
    arr = np.ascontiguousarray(values, dtype=np.uint64)
    if arr.ndim == 2:
        return execute_plan_batch(arr, plan)
    if arr.shape != (plan.n,):
        raise ValueError(f"expected a flat array of length {plan.n}")
    return execute_plan_batch(arr.reshape(1, plan.n), plan)[0]


def execute_plan_inverse(values: np.ndarray, plan: TransformPlan) -> np.ndarray:
    """Inverse NTT: forward with the conjugate plan, scaled by ``n^{-1}``.

    Accepts the same flat-vector / ``(batch, n)`` shapes as
    :func:`execute_plan`.
    """
    arr = np.ascontiguousarray(values, dtype=np.uint64)
    if arr.ndim == 2:
        return execute_plan_inverse_batch(arr, plan)
    if arr.shape != (plan.n,):
        raise ValueError(f"expected a flat array of length {plan.n}")
    return execute_plan_inverse_batch(arr.reshape(1, plan.n), plan)[0]

"""Cyclic convolution over ``GF(p)`` — the heart of SSA multiplication.

``c = IFFT(FFT(a) ∘ FFT(b))`` where ``∘`` is the component-wise product
(the accelerator's "dot-product" phase, run on 32 extra modular
multipliers per Section V).  Because the paper's coefficients are 24-bit
and there are 2**15 of them, every convolution sum is below ``p`` and
the modular convolution *equals* the integer convolution — the property
SSA correctness rests on.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.field.vector import vmul
from repro.ntt.plan import TransformPlan, decimated_companion, plan_for_size
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch


def pointwise_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Component-wise product of two spectra (uint64 field arrays)."""
    if a.shape != b.shape:
        raise ValueError("spectra must have identical shapes")
    return vmul(a, b)


def cyclic_convolution(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Length-preserving cyclic convolution of two coefficient vectors.

    Both inputs must already be padded to the transform length; SSA
    zero-pads 32K coefficient vectors to 64K points so the cyclic
    convolution coincides with the acyclic one.
    """
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length flat arrays")
    result = cyclic_convolution_many(
        np.asarray(a, dtype=np.uint64).reshape(1, -1),
        np.asarray(b, dtype=np.uint64).reshape(1, -1),
        plan,
    )
    return result[0]


def cyclic_convolution_many(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Row-wise cyclic convolutions of two ``(batch, n)`` matrices.

    All ``2·batch`` operand rows go through one batched forward NTT, a
    batched pointwise product and one batched inverse — identical per
    row to :func:`cyclic_convolution`, but with the per-stage Python
    overhead amortized across the whole batch.

    When no plan is given, the default plan is the *decimated*
    (permutation-free) pair: the pointwise sandwich is order-agnostic,
    so the DIF forward / DIT inverse skip both digit-reversal gathers
    at bit-identical output.  An explicit plan runs as given.
    """
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("inputs must be equal-shape (batch, n) matrices")
    batch, n = a.shape
    if plan is None:
        plan = decimated_companion(plan_for_size(n))
    if plan.n != n:
        raise ValueError("plan size does not match input length")
    if plan.twist:
        # A fused plan computes the *negacyclic* transform directly;
        # running it here would silently wrap with the wrong sign.
        raise ValueError(
            "cyclic convolution requires an untwisted plan; got a "
            f"{plan.twist!r}-fused plan"
        )
    spectra = execute_plan_batch(np.concatenate([a, b], axis=0), plan)
    spectrum = pointwise_mul(spectra[:batch], spectra[batch:])
    return execute_plan_inverse_batch(spectrum, plan)

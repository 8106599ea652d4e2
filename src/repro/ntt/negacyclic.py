"""Negacyclic convolution: polynomial products in ``Z_p[x]/(x^n + 1)``.

Section III notes that ultralong multiplication "plays a central role in
different fully homomorphic schemes, such as ... solutions based on
Lattice problems and Learning with Errors, which may thus be
implemented on top of the accelerator".  RLWE schemes multiply in the
negacyclic ring ``Z_q[x]/(x^n + 1)`` — implemented here with the
classic ψ-twist: scale input ``i`` by ``ψ^i`` (ψ a primitive 2n-th
root, ``ψ² = ω``), run the ordinary cyclic NTT of size ``n``, and
untwist by ``ψ^{-i}``.  The same FFT hardware serves both convolution
flavors; only the twiddle constants change.

By default every function here executes a *fused* plan
(:data:`repro.ntt.plan.TWIST_NEGACYCLIC`): the ψ-twist lives in the
first-stage DFT/twiddle constants and the ψ⁻¹-untwist plus ``n^{-1}``
in the inverse companion's stages, so a negacyclic transform is one
plain plan execution — the two full-vector twist ``vmul`` passes (and
the inverse scale pass) disappear.  Passing a cyclic plan selects the
explicit-twist route instead, the timed baseline of the fused plans.

The *convolution* entry points default to the fused plan's
:func:`~repro.ntt.plan.decimated_companion`: their
forward→pointwise→inverse sandwich never looks at spectrum order, so
the digit-reversal gathers drop too.  The explicit-spectra pair
:func:`negacyclic_transform_many` / :func:`negacyclic_inverse_many`
keeps natural-order spectra by default — callers who inspect spectra
see the natural layout unless they pass a decimated plan themselves
(see :mod:`repro.ntt.order`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.field.roots import root_of_unity
from repro.field.solinas import P, inverse, pow_mod
from repro.field.vector import vmul
from repro.ntt.plan import (
    TWIST_NEGACYCLIC,
    TransformPlan,
    decimated_companion,
    plan_for_size,
)
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch


@lru_cache(maxsize=None)
def twist_tables(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(ψ^i, ψ^{-i})`` tables for the forward and inverse twist.

    Public so backend-polymorphic callers (notably
    :class:`repro.engine.Ring`) can wrap any plain cyclic transform
    into a negacyclic one; the tables are cached per ``n``.
    """
    psi = root_of_unity(2 * n)
    if pow_mod(psi, 2) != root_of_unity(n):
        raise ArithmeticError("psi is not a square root of omega")
    forward = np.empty(n, dtype=np.uint64)
    backward = np.empty(n, dtype=np.uint64)
    psi_inv = inverse(psi)
    f = b = 1
    for i in range(n):
        forward[i] = f
        backward[i] = b
        f = f * psi % P
        b = b * psi_inv % P
    return forward, backward


def _negacyclic_plan(
    n: int, plan: Optional[TransformPlan], convolution: bool = False
) -> TransformPlan:
    """Resolve the plan for an ``n``-point negacyclic operation.

    ``None`` is the (cached) fused negacyclic plan — its decimated
    companion for a ``convolution``; an explicit plan — fused or not,
    natural or decimated — is validated and used as given, so a cyclic
    plan selects the explicit-twist route.
    """
    if plan is None:
        plan = plan_for_size(n, twist=TWIST_NEGACYCLIC)
        return decimated_companion(plan) if convolution else plan
    if plan.n != n:
        raise ValueError("plan size does not match input length")
    return plan


def negacyclic_convolution(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Coefficients of ``a(x)·b(x) mod (x^n + 1)`` over ``GF(p)``.

    Unlike the SSA path there is no zero-padding: the wrap-around terms
    pick up the ``−1`` sign that the twist encodes.
    """
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("inputs must be equal-length flat arrays")
    result = negacyclic_convolution_many(
        np.asarray(a, dtype=np.uint64).reshape(1, -1),
        np.asarray(b, dtype=np.uint64).reshape(1, -1),
        plan,
    )
    return result[0]


def negacyclic_convolution_many(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Row-wise negacyclic products of two ``(batch, n)`` matrices.

    All ``2·batch`` twisted rows go through one batched forward NTT,
    then a batched pointwise product, one batched inverse and the
    untwist — identical per row to :func:`negacyclic_convolution`.
    This is the ring-product engine behind the batched RLWE APIs.

    The default plan is the fused *decimated* pair: the spectra stay in
    decimated order through the order-agnostic pointwise product, so
    neither transform pays a digit-reversal gather.  An explicit plan
    runs as given.
    """
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    if a.ndim != 2 or a.shape != b.shape:
        raise ValueError("inputs must be equal-shape (batch, n) matrices")
    batch, n = a.shape
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    plan = _negacyclic_plan(n, plan, convolution=True)
    spectra = negacyclic_transform_many(np.concatenate([a, b], axis=0), plan)
    # The pointwise product may overwrite the first half of the owned
    # spectra matrix instead of allocating a fresh one.
    product = vmul(spectra[:batch], spectra[batch:], out=spectra[:batch])
    return negacyclic_inverse_many(product, plan)


def negacyclic_convolution_broadcast(
    a: np.ndarray,
    b: np.ndarray,
    plan: Optional[TransformPlan] = None,
) -> np.ndarray:
    """Negacyclic product of every row of ``(batch, n)`` ``a`` with one
    fixed polynomial ``b``.

    The fixed operand is transformed once and its spectrum broadcast
    across the batch — ``batch + 1`` forward transforms instead of the
    ``2·batch`` a tiled :func:`negacyclic_convolution_many` would pay.
    This is the shape of RLWE key operations, where one secret meets
    many ciphertext polynomials.  Like
    :func:`negacyclic_convolution_many`, the default plan is the fused
    decimated (permutation-free) pair.
    """
    a = np.ascontiguousarray(a, dtype=np.uint64)
    b = np.ascontiguousarray(b, dtype=np.uint64)
    if a.ndim != 2 or b.shape != (a.shape[1],):
        raise ValueError(
            "expected a (batch, n) matrix and a length-n polynomial"
        )
    plan = _negacyclic_plan(a.shape[1], plan, convolution=True)
    spectra = negacyclic_transform_many(
        np.concatenate([a, b[np.newaxis, :]], axis=0), plan
    )
    return negacyclic_inverse_many(vmul(spectra[:-1], spectra[-1:]), plan)


def negacyclic_transform_many(
    polys: np.ndarray, plan: Optional[TransformPlan] = None
) -> np.ndarray:
    """Twisted forward spectra of a ``(batch, n)`` coefficient matrix.

    Together with :func:`negacyclic_inverse_many` this exposes the two
    halves of the convolution so callers can reuse spectra (e.g. one
    plaintext spectrum against both halves of an RLWE ciphertext).
    Spectra are identical bits whichever plan flavor computes them: a
    fused plan folds the twist into its first stage, an unfused plan
    pays the explicit twist ``vmul`` first.  The default plan keeps
    *natural* spectrum order; pass a decimated plan for
    permutation-free spectra.
    """
    polys = np.ascontiguousarray(polys, dtype=np.uint64)
    if polys.ndim != 2:
        raise ValueError("expected a (batch, n) matrix")
    n = polys.shape[1]
    if n == 0 or n & (n - 1):
        raise ValueError("length must be a power of two")
    plan = _negacyclic_plan(n, plan)
    if plan.twist == TWIST_NEGACYCLIC:
        return execute_plan_batch(polys, plan)
    forward, _ = twist_tables(n)
    return execute_plan_batch(vmul(polys, forward[np.newaxis, :]), plan)


def negacyclic_inverse_many(
    spectra: np.ndarray, plan: Optional[TransformPlan] = None
) -> np.ndarray:
    """Inverse of :func:`negacyclic_transform_many`: untwisted rows.

    On a fused plan the untwist (and ``n^{-1}``) live in the inverse
    stages, so this is one plain plan execution with no trailing
    vector passes.
    """
    spectra = np.ascontiguousarray(spectra, dtype=np.uint64)
    if spectra.ndim != 2:
        raise ValueError("expected a (batch, n) matrix")
    n = spectra.shape[1]
    plan = _negacyclic_plan(n, plan)
    if plan.twist == TWIST_NEGACYCLIC:
        return execute_plan_inverse_batch(spectra, plan)
    _, backward = twist_tables(n)
    product = execute_plan_inverse_batch(spectra, plan)
    # `product` is freshly owned by this call: untwist in place.
    return vmul(product, backward[np.newaxis, :], out=product)

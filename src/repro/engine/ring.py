"""``engine.ring(n)`` — one polymorphic surface over transform twins.

Before the engine façade, every ring operation came in scalar/batch
pairs (``execute_plan`` / ``execute_plan_batch``,
``negacyclic_convolution`` / ``_many`` / ``_broadcast``, ...).  A
:class:`Ring` retires the twin explosion: every method accepts either a
flat ``(n,)`` vector or a ``(batch, n)`` matrix and answers in kind —
flat in, flat out; matrix in, matrix out.  Convolutions additionally
broadcast: a ``(batch, n)`` operand against a single ``(n,)``
polynomial transforms the fixed operand once and reuses its spectrum
across the batch (the RLWE secret-key shape).

All transforms are routed through the owning engine's backend, so the
same ring runs on the staged software executor or on the cycle-counted
accelerator model — bit-identically.

Negacyclic operations execute *fused* plans
(:data:`repro.ntt.plan.TWIST_NEGACYCLIC`): the ψ-twist/untwist lives in
the stage constants, so ``negacyclic_forward`` / ``negacyclic_inverse``
and ``convolve(negacyclic=True)`` are plain plan executions with zero
extra vector passes, on every backend.  The fused companion plan is
built lazily from the engine's cache the first time a ring touches the
``x^n + 1`` algebra.

:meth:`Ring.convolve` additionally runs the *decimated*
(permutation-free) plan pair — DIF forward spectra stay in decimated
order through the pointwise product and the DIT inverse consumes them
directly, so convolutions skip every digit-reversal gather.  The
explicit transform methods (``forward`` / ``inverse`` /
``negacyclic_forward`` / ``negacyclic_inverse``) keep natural-order
spectra, so code that inspects spectra sees the historical layout.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.field.vector import vmul
from repro.ntt.plan import (
    TWIST_NEGACYCLIC,
    TransformPlan,
    decimated_companion,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.core import Engine


def _as_rows(values: np.ndarray, n: int) -> Tuple[np.ndarray, bool]:
    """Coerce to a ``(batch, n)`` uint64 matrix; report flat inputs."""
    arr = np.ascontiguousarray(values, dtype=np.uint64)
    if arr.ndim == 1:
        if arr.shape != (n,):
            raise ValueError(f"expected a flat array of length {n}")
        return arr.reshape(1, n), True
    if arr.ndim == 2 and arr.shape[1] == n:
        return arr, False
    raise ValueError(f"expected a (n,) vector or (batch, {n}) matrix")


class Ring:
    """Cyclic and negacyclic arithmetic in one transform length.

    Obtained from :meth:`repro.engine.Engine.ring`; holds the engine's
    cached :class:`~repro.ntt.plan.TransformPlan` and dispatches every
    transform through the engine's compute backend.
    """

    def __init__(self, engine: "Engine", plan: TransformPlan):
        self._engine = engine
        self._plan = plan
        self._nega_plan: Optional[TransformPlan] = None

    @property
    def n(self) -> int:
        """Transform length (ring dimension)."""
        return self._plan.n

    @property
    def plan(self) -> TransformPlan:
        """The underlying precomputed transform plan."""
        return self._plan

    @property
    def negacyclic_plan(self) -> TransformPlan:
        """The fused negacyclic companion plan (built on first use)."""
        if self._nega_plan is None:
            self._nega_plan = self._engine.plan(
                self.n, self._plan.radices, twist=TWIST_NEGACYCLIC
            )
        return self._nega_plan

    @property
    def convolution_plan(self) -> TransformPlan:
        """The decimated (permutation-free) cyclic convolution pair.

        :meth:`convolve` runs it instead of the natural plan: the
        pointwise sandwich never looks at spectrum order, so both
        digit-reversal gathers drop at bit-identical output.
        """
        return decimated_companion(self._plan)

    @property
    def negacyclic_convolution_plan(self) -> TransformPlan:
        """The fused *and* decimated negacyclic convolution pair."""
        return decimated_companion(self.negacyclic_plan)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Ring(n={self.n}, radices={self._plan.radices}, "
            f"kernel={self._plan.kernel!r}, "
            f"backend={self._engine.backend.name!r})"
        )

    # -- transforms -------------------------------------------------------

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Forward NTT; ``(n,)`` or ``(batch, n)``, answered in kind."""
        rows, flat = _as_rows(values, self.n)
        out = self._engine._transform(self._plan, rows, inverse=False)
        return out[0] if flat else out

    def inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse NTT (scaled by ``n^{-1}``), shape-polymorphic."""
        rows, flat = _as_rows(values, self.n)
        out = self._engine._transform(self._plan, rows, inverse=True)
        return out[0] if flat else out

    def negacyclic_forward(self, values: np.ndarray) -> np.ndarray:
        """ψ-twisted forward spectrum (for explicit spectrum reuse).

        One fused plan execution — the twist is baked into the plan's
        first-stage constants, not paid as a vector pass.
        """
        rows, flat = _as_rows(values, self.n)
        out = self._engine._transform(
            self.negacyclic_plan, rows, inverse=False
        )
        return out[0] if flat else out

    def negacyclic_inverse(self, values: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`negacyclic_forward` (untwisted rows).

        One fused plan execution — untwist and ``n^{-1}`` live in the
        inverse companion's stage constants.
        """
        rows, flat = _as_rows(values, self.n)
        out = self._engine._transform(
            self.negacyclic_plan, rows, inverse=True
        )
        return out[0] if flat else out

    def pointwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Component-wise spectrum product (broadcasting rows)."""
        return vmul(
            np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
        )

    # -- convolutions -----------------------------------------------------

    def convolve(
        self, a: np.ndarray, b: np.ndarray, negacyclic: bool = False
    ) -> np.ndarray:
        """Cyclic (or negacyclic) convolution, shape-polymorphic.

        Shapes: ``(n,)·(n,)`` → ``(n,)``; ``(B, n)·(B, n)`` row-wise →
        ``(B, n)``; ``(B, n)·(n,)`` (either order) broadcasts the fixed
        operand's spectrum across the batch, paying ``B + 1`` forward
        transforms instead of ``2B``.

        The negacyclic flavor dispatches the fused plan — same transform
        count as the cyclic one, with the twist folded into the stage
        constants instead of costing per-operand vector passes.

        Both flavors run the *decimated* plan pair: the intermediate
        spectra stay in decimated order through the order-agnostic
        pointwise product, so no transform pays a digit-reversal
        gather.  Use :meth:`forward` / :meth:`negacyclic_forward` when
        you need natural-order spectra explicitly.
        """
        rows_a, flat_a = _as_rows(a, self.n)
        rows_b, flat_b = _as_rows(b, self.n)
        plan = (
            self.negacyclic_convolution_plan
            if negacyclic
            else self.convolution_plan
        )

        batch_a, batch_b = rows_a.shape[0], rows_b.shape[0]
        if batch_a == batch_b:
            spectra = self._engine._transform(
                plan, np.concatenate([rows_a, rows_b], axis=0)
            )
            spectrum = vmul(
                spectra[:batch_a],
                spectra[batch_a:],
                out=spectra[:batch_a],
            )
        elif batch_b == 1 or batch_a == 1:
            if batch_a == 1:  # symmetric: keep the batch first
                rows_a, rows_b = rows_b, rows_a
                batch_a, batch_b = batch_b, batch_a
            spectra = self._engine._transform(
                plan, np.concatenate([rows_a, rows_b], axis=0)
            )
            spectrum = vmul(spectra[:-1], spectra[-1:], out=spectra[:-1])
        else:
            raise ValueError(
                "operand batches must match (or one operand be a single "
                f"polynomial); got {batch_a} and {batch_b} rows"
            )

        product = self._engine._transform(plan, spectrum, inverse=True)
        return product[0] if flat_a and flat_b else product

    def negacyclic_convolve(
        self, a: np.ndarray, b: np.ndarray
    ) -> np.ndarray:
        """``a(x)·b(x) mod (x^n + 1)`` — :meth:`convolve` shorthand."""
        return self.convolve(a, b, negacyclic=True)


__all__ = ["Ring"]

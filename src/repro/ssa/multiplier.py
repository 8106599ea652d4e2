"""The Schönhage–Strassen multiplier (paper Section III pipeline).

``SSAMultiplier`` ties together operand decomposition, the 64K-point
NTT plan, the component-wise product and carry recovery.  The default
configuration is the paper's: 786,432-bit operands, 32K coefficients of
24 bits, a three-stage radix-64/64/16 transform over
``p = 2**64 − 2**32 + 1``.

The multiplier is a *functional* model — bit-exact, validated against
Python big-int multiplication.  The cycle/resource behaviour of the
same pipeline on the FPGA is modeled in :mod:`repro.hw.accelerator`,
which reuses this code for its datapath values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ntt.convolution import pointwise_mul
from repro.ntt.plan import (
    ORDER_DECIMATED,
    TransformPlan,
    decimated_companion,
    plan_for_size,
)
from repro.ntt.staged import (
    execute_plan,
    execute_plan_batch,
    execute_plan_inverse,
    execute_plan_inverse_batch,
)
from repro.ssa.carry import carry_recover, carry_recover_many
from repro.ssa.encode import (
    PAPER_PARAMETERS,
    SSAParameters,
    decompose,
    decompose_many,
    params_for_bits,
    recompose,
    recompose_many,
)


@dataclass
class SSAMultiplier:
    """Reusable SSA multiplication context.

    Parameters
    ----------
    params:
        Operand sizing; defaults to the paper's 786,432-bit setting.
    radices:
        NTT stage factorization; defaults to the paper's
        ``(64, 64, 16)`` when the transform size is 64K, otherwise a
        greedy high-radix plan.
    plan:
        A prebuilt natural-ordering
        :class:`~repro.ntt.plan.TransformPlan` to use instead of
        consulting the module-global plan cache — this is how
        :class:`repro.engine.Engine` pins its multipliers to a
        per-engine cache.  Must match ``params.transform_size``.

    ``multiply``/``multiply_many``/``square`` always convolve on the
    plan's permutation-free :func:`~repro.ntt.plan.decimated_companion`
    (:attr:`convolution_plan`), zero digit-reversal gathers;
    :meth:`forward_transform` returns *natural-order* spectra.

    Examples
    --------
    >>> mul = SSAMultiplier.for_bits(4096)
    >>> mul.multiply(3, 5)
    15
    """

    params: SSAParameters = PAPER_PARAMETERS
    radices: Optional[Sequence[int]] = None
    plan: Optional[TransformPlan] = field(
        default=None, repr=False, compare=False
    )
    #: The decimated pair the convolution sandwich executes.
    convolution_plan: TransformPlan = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.params.validate()
        if self.plan is None:
            self.plan = plan_for_size(
                self.params.transform_size,
                tuple(self.radices) if self.radices is not None else None,
            )
        else:
            if self.plan.n != self.params.transform_size:
                raise ValueError(
                    f"plan is {self.plan.n}-point but params need "
                    f"{self.params.transform_size}"
                )
            if self.radices is not None and self.plan.radices != tuple(
                self.radices
            ):
                raise ValueError("plan radices disagree with radices=")
            if self.plan.ordering == ORDER_DECIMATED:
                raise ValueError(
                    "pass the natural-ordering plan; the multiplier "
                    "convolves on its decimated companion"
                )
        self.convolution_plan = decimated_companion(self.plan)

    @classmethod
    def for_bits(
        cls, operand_bits: int, coefficient_bits: int = 24
    ) -> "SSAMultiplier":
        """Build a multiplier able to handle ``operand_bits`` operands.

        Rounds the coefficient count up to the next power of two so the
        transform size stays a power of two
        (:func:`repro.ssa.encode.params_for_bits`).
        """
        return cls(params=params_for_bits(operand_bits, coefficient_bits))

    def forward_transform(self, value: int) -> np.ndarray:
        """Decompose an operand and return its *natural-order* spectrum."""
        return execute_plan(decompose(value, self.params), self.plan)

    def multiply(self, a: int, b: int) -> int:
        """Exact product ``a · b`` on the scalar tail: the reference.

        :func:`carry_recover` and :func:`recompose` finish the
        convolution, so the batch tail of :meth:`multiply_many` has a
        second route to be checked against.
        """
        operands = decompose_many([int(a), int(b)], self.params)
        spectra = execute_plan_batch(operands, self.convolution_plan)
        convolution = execute_plan_inverse(
            pointwise_mul(spectra[0], spectra[1]), self.convolution_plan
        )
        digits = carry_recover(convolution, self.params.coefficient_bits)
        return recompose(digits, self.params.coefficient_bits)

    def multiply_many(self, pairs: Sequence[Tuple[int, int]]) -> List[int]:
        """Exact products ``[a·b for (a, b) in pairs]``, batched.

        The whole batch runs through one batched decompose, a single
        forward NTT over all ``2·B`` operand rows, a batched pointwise
        product, one batched inverse NTT, and vectorized carry
        recovery/recompose — bit-exact against looping
        :meth:`multiply`, but with the per-stage interpreter overhead
        amortized across the batch (the software counterpart of the
        Section V batch macro-pipeline).
        """
        pairs = [(int(a), int(b)) for a, b in pairs]
        if not pairs:
            return []
        count = len(pairs)
        operands = decompose_many(
            [a for a, _ in pairs] + [b for _, b in pairs], self.params
        )
        spectra = execute_plan_batch(operands, self.convolution_plan)
        return self._products(pointwise_mul(spectra[:count], spectra[count:]))

    def square(self, a: int) -> int:
        """Exact square ``a²`` using a single forward transform."""
        spectrum = execute_plan_batch(
            decompose_many([a], self.params), self.convolution_plan
        )
        return self._products(pointwise_mul(spectrum, spectrum))[0]

    def _products(self, spectra: np.ndarray) -> List[int]:
        """The batch tail: one product per ``(batch, n)`` spectrum row."""
        convolutions = execute_plan_inverse_batch(
            spectra, self.convolution_plan
        )
        digit_rows = carry_recover_many(
            convolutions, self.params.coefficient_bits
        )
        return recompose_many(digit_rows, self.params.coefficient_bits)


def split_batch(count: int, shards: int) -> List[slice]:
    """Balanced contiguous slices covering ``range(count)``.

    The batch axis is the parallelism unit of the stack (every
    ``multiply_many`` / ``(batch, n)`` transform is independent per
    item), and contiguous slices keep each shard's operands adjacent —
    the shape the ``software-mp`` backend ships to worker processes.
    The first ``count % shards`` slices are one item longer, no slice
    is empty, and at most ``count`` slices are returned.

    >>> split_batch(7, 3)
    [slice(0, 3, None), slice(3, 5, None), slice(5, 7, None)]
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if shards < 1:
        raise ValueError("shards must be positive")
    shards = min(shards, count)
    if shards == 0:
        return []
    base, extra = divmod(count, shards)
    slices: List[slice] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        slices.append(slice(start, stop))
        start = stop
    return slices


def ssa_multiply(
    a: int, b: int, params: Optional[SSAParameters] = None
) -> int:
    """One-shot SSA multiplication.

    Sizes the transform automatically when ``params`` is omitted.
    """
    if params is None:
        bits = max(a.bit_length(), b.bit_length(), 1)
        return SSAMultiplier.for_bits(bits).multiply(a, b)
    return SSAMultiplier(params=params).multiply(a, b)

"""Operand encoding for SSA: integers ↔ coefficient vectors.

The paper decomposes 786,432-bit operands into ``32K`` coefficients of
``m = 24`` bits and transforms over ``64K`` points "in order to
accommodate the multiplication result" (Section III).  The parameter
set is captured by :class:`SSAParameters`, with the paper's operating
point exported as :data:`PAPER_PARAMETERS`.

Encoding and decoding avoid quadratic big-int shifting by going through
the byte representation whenever the coefficient width is a whole
number of bytes (24 bits = 3 bytes at the paper's operating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.field.solinas import P


@dataclass(frozen=True)
class SSAParameters:
    """Sizing of one SSA multiplication.

    Attributes
    ----------
    coefficient_bits:
        Bits per polynomial coefficient (``m`` in the paper; 24).
    operand_coefficients:
        Coefficients per operand (32K in the paper).
    """

    coefficient_bits: int
    operand_coefficients: int

    @property
    def operand_bits(self) -> int:
        """Maximum operand width in bits (786,432 for the paper)."""
        return self.coefficient_bits * self.operand_coefficients

    @property
    def transform_size(self) -> int:
        """NTT length: twice the coefficient count, to fit the product."""
        return 2 * self.operand_coefficients

    @property
    def max_convolution_term(self) -> int:
        """Upper bound on any acyclic convolution coefficient."""
        max_coeff = (1 << self.coefficient_bits) - 1
        return self.operand_coefficients * max_coeff * max_coeff

    def validate(self) -> None:
        """Check the no-overflow condition that makes SSA exact mod p."""
        if self.transform_size & (self.transform_size - 1):
            raise ValueError("transform size must be a power of two")
        if self.max_convolution_term >= P:
            raise ValueError(
                "convolution terms may overflow the field: "
                f"{self.max_convolution_term} >= p"
            )


#: The paper's operating point: 786,432-bit operands, 32K × 24-bit
#: coefficients, 64K-point transform (Section III).
PAPER_PARAMETERS = SSAParameters(coefficient_bits=24, operand_coefficients=32768)


def params_for_bits(
    operand_bits: int,
    coefficient_bits: int = 24,
    min_coefficients: int = 1,
) -> SSAParameters:
    """Size an :class:`SSAParameters` for ``operand_bits`` operands.

    Rounds the coefficient count up to the next power of two (so the
    transform size stays a power of two), never below
    ``min_coefficients`` — the one sizing rule shared by
    :meth:`repro.ssa.SSAMultiplier.for_bits` and
    :meth:`repro.engine.Engine.multiplier`.
    """
    count = -(-max(operand_bits, 1) // coefficient_bits)
    size = max(1, min_coefficients)
    while size < count:
        size *= 2
    return SSAParameters(
        coefficient_bits=coefficient_bits, operand_coefficients=size
    )


def decompose(value: int, params: SSAParameters) -> np.ndarray:
    """Split ``value`` into ``transform_size`` coefficients of ``m`` bits.

    The top half of the returned vector is the zero padding that turns
    the cyclic convolution into an acyclic one.
    """
    if value < 0:
        raise ValueError("operands must be non-negative")
    if value.bit_length() > params.operand_bits:
        raise ValueError(
            f"operand of {value.bit_length()} bits exceeds the "
            f"{params.operand_bits}-bit limit of these parameters"
        )
    m = params.coefficient_bits
    coeffs = np.zeros(params.transform_size, dtype=np.uint64)
    if m % 8 == 0:
        _decompose_via_bytes(value, m, coeffs, params.operand_coefficients)
    else:
        mask = (1 << m) - 1
        index = 0
        while value:
            coeffs[index] = value & mask
            value >>= m
            index += 1
    return coeffs


def decompose_many(values: Sequence[int], params: SSAParameters) -> np.ndarray:
    """Decompose a batch of operands into a ``(batch, transform_size)`` matrix.

    Row ``i`` equals ``decompose(values[i], params)``; on the
    byte-aligned fast path all operands are serialized into one byte
    buffer, written into the low bytes of each little-endian word of
    the output in one strided copy.
    """
    values = [int(v) for v in values]
    m = params.coefficient_bits
    count = params.operand_coefficients
    for value in values:
        if value < 0:
            raise ValueError("operands must be non-negative")
        if value.bit_length() > params.operand_bits:
            raise ValueError(
                f"operand of {value.bit_length()} bits exceeds the "
                f"{params.operand_bits}-bit limit of these parameters"
            )
    # Little-endian words whatever the host's byte order, so the byte
    # view below puts byte ``j`` of a digit at weight ``2**(8j)``.
    out = np.zeros((len(values), params.transform_size), dtype="<u8")
    if not values:
        return out
    if m % 8 == 0:
        step = m // 8
        raw = b"".join(v.to_bytes(count * step, "little") for v in values)
        chunks = np.frombuffer(raw, dtype=np.uint8).reshape(
            len(values), count, step
        )
        words = out.view(np.uint8).reshape(len(values), -1, 8)
        words[:, :count, :step] = chunks
    else:
        for row, value in enumerate(values):
            out[row] = decompose(value, params)
    return out


def _decompose_via_bytes(
    value: int, m: int, out: np.ndarray, count: int
) -> None:
    """Byte-aligned fast path: slice the little-endian byte string."""
    step = m // 8
    raw = value.to_bytes(count * step, "little")
    chunks = np.frombuffer(raw, dtype=np.uint8).reshape(count, step)
    acc = np.zeros(count, dtype=np.uint64)
    for byte_index in range(step):
        acc |= chunks[:, byte_index].astype(np.uint64) << np.uint64(
            8 * byte_index
        )
    out[:count] = acc


def recompose(coefficients: Sequence[int], coefficient_bits: int) -> int:
    """Shifted sum ``Σ c_i · 2**(m·i)`` — inverse of :func:`decompose`.

    Accepts arbitrary non-negative coefficient magnitudes (the raw
    convolution output has up-to-63-bit entries before carry recovery);
    a byte-aligned fast path handles the common post-carry case where
    every coefficient fits its ``m`` bits.
    """
    if isinstance(coefficients, np.ndarray):
        # One C-level pass instead of a per-element int() loop.
        coeffs = coefficients.tolist()
    else:
        coeffs = [int(c) for c in coefficients]
    return _recompose_ints(coeffs, coefficient_bits)


def _recompose_ints(coeffs: "list[int]", m: int) -> int:
    """:func:`recompose` for a list already holding Python ints."""
    if any(c < 0 for c in coeffs):
        raise ValueError("coefficients must be non-negative")
    if m % 8 == 0 and all(c < (1 << m) for c in coeffs):
        return _recompose_via_bytes(coeffs, m)
    value = 0
    for c in reversed(coeffs):
        value = (value << m) + c
    return value


def recompose_many(
    digit_rows: np.ndarray, coefficient_bits: int
) -> "list[int]":
    """Batch inverse of :func:`decompose`: one integer per digit row.

    ``digit_rows`` is a ``(batch, digits)`` uint64 matrix, normally the
    normalized output of
    :func:`repro.ssa.carry.carry_recover_many`.  On the byte-aligned
    fast path (digits already within ``m`` bits) the whole matrix is
    re-serialized with one vectorized byte-slice; otherwise each row
    falls back to :func:`recompose`.
    """
    m = coefficient_bits
    digits = np.ascontiguousarray(digit_rows, dtype=np.uint64)
    if digits.ndim != 2:
        raise ValueError("expected a (batch, digits) matrix")
    batch, width = digits.shape
    if batch == 0 or width == 0:
        return [0] * batch
    if m % 8 == 0 and m < 64 and not (digits >> np.uint64(m)).any():
        step = m // 8
        le_bytes = digits.astype("<u8").view(np.uint8)
        le_bytes = le_bytes.reshape(batch, width, 8)[:, :, :step]
        raw = np.ascontiguousarray(le_bytes).reshape(batch, width * step)
        return [int.from_bytes(row.tobytes(), "little") for row in raw]
    # Slow path: one ndarray→list conversion per row (C-level), not a
    # per-element Python round-trip feeding recompose's own int() loop.
    return [_recompose_ints(row, m) for row in digits.tolist()]


def _recompose_via_bytes(coeffs: Sequence[int], m: int) -> int:
    step = m // 8
    raw = bytearray(len(coeffs) * step)
    for i, c in enumerate(coeffs):
        raw[i * step : (i + 1) * step] = c.to_bytes(step, "little")
    return int.from_bytes(bytes(raw), "little")

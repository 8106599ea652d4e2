"""Carry recovery: from convolution coefficients to the final integer.

The last SSA step (Section III: "compute the final result c performing
the shifted sum of the components of c'").  Raw convolution
coefficients are up to ``log2(32K) + 48 = 63`` bits wide; the shifted
sum ``Σ c_i·2**(24·i)`` overlaps neighbouring terms, so carries ripple
upward.  The hardware performs this with a dedicated adder structure
budgeted at ≈20 µs (Section V); functionally it is the digit
normalization implemented here.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro import native


def carry_recover(
    coefficients: Sequence[int], coefficient_bits: int
) -> List[int]:
    """Normalize convolution output into proper ``m``-bit digits.

    Returns the digit vector of ``Σ c_i · 2**(m·i)`` (least significant
    first), each entry in ``[0, 2**m)``.  The vector is extended as
    needed for the final carry-out.
    """
    m = coefficient_bits
    mask = (1 << m) - 1
    digits: List[int] = []
    carry = 0
    for c in coefficients:
        total = int(c) + carry
        digits.append(total & mask)
        carry = total >> m
    while carry:
        digits.append(carry & mask)
        carry >>= m
    return digits


def carry_recover_many(
    coefficients: np.ndarray, coefficient_bits: int
) -> np.ndarray:
    """Vectorized carry recovery over a ``(batch, n)`` uint64 matrix.

    Row ``i`` of the returned ``(batch, n + ceil(64/m) + 1)`` matrix
    holds the normalized ``m``-bit digits of ``Σ_j c_ij · 2**(m·j)`` —
    identical (up to trailing zeros) to :func:`carry_recover` applied
    per row.  The carry is linear in the row length on every input:
    the compiled kernel (:func:`repro.native.carry_rows`) carries each
    row in one sequential pass, and hosts without it run
    :func:`_carry_lookahead`, whose pass count depends on ``m`` only.
    """
    m = coefficient_bits
    if not 0 < m < 64:
        raise ValueError("coefficient width must be in (0, 64)")
    coeffs = np.ascontiguousarray(coefficients, dtype=np.uint64)
    if coeffs.ndim != 2:
        raise ValueError("expected a (batch, n) matrix")
    # Headroom for the final carry-out: entries are < 2**64, so the row
    # value is < 2**(m·(n-1) + 65) and ceil(64/m) + 1 extra digits
    # always suffice.
    width = coeffs.shape[1] + -(-64 // m) + 1
    digits = native.carry_rows(coeffs, m, width)
    if digits is None:
        digits = _carry_lookahead(coeffs, m, width)
    return digits


def _carry_lookahead(coeffs: np.ndarray, m: int, width: int) -> np.ndarray:
    """The numpy carry: split passes, then one carry-lookahead.

    Each pass splits every column into digit and carry and adds the
    carries one column up.  Digit plus carry is below ``2**m + 2**(64-m)``,
    so about ``64/m`` passes bring every column to at most ``2**m``,
    however long the rows are.  A column of exactly ``2**m`` then
    *generates* a carry, one of ``2**m - 1`` *propagates* its carry-in
    and any smaller one *stops* it; each column's carry-out is the
    generate bit of the last generate-or-stop column at or below it.
    """
    batch, n = coeffs.shape
    work = np.zeros((batch, width), dtype=np.uint64)
    work[:, :n] = coeffs
    top = np.uint64(1 << m)
    mask = np.uint64((1 << m) - 1)
    shift = np.uint64(m)
    while work.max(initial=0) > top:
        # digit + carry < 2**m + 2**(64-m) <= 2**64: never overflows,
        # and the caller's width keeps the last column clean.
        carry = work >> shift
        work &= mask
        work[:, 1:] += carry[:, :-1]
    generate = work == top
    if not generate.any():
        return work
    stops = np.where(generate | (work < mask), np.arange(width), -1)
    last = np.maximum.accumulate(stops, axis=1)
    carry_out = np.take_along_axis(generate, np.maximum(last, 0), axis=1)
    carry_out &= last >= 0
    work[:, 1:] += carry_out[:, :-1]
    work &= mask
    return work


def carry_recover_blocked(
    coefficients: Sequence[int], coefficient_bits: int, block_size: int = 64
) -> List[int]:
    """Carry recovery in the blocked style of the hardware adder.

    The paper's carry-recovery adder is only sketched ("an ad-hoc adder
    structure ... maximum delay approximately 20 µs").  We model the
    natural blocked/carry-select design: digits are normalized inside
    fixed-size blocks in parallel, then single-bit block carries ripple
    between blocks.  The result is identical to :func:`carry_recover`;
    the block structure exists so the timing model can count block
    stages (see :mod:`repro.hw.timing`).
    """
    m = coefficient_bits
    mask = (1 << m) - 1
    n = len(coefficients)
    blocks = [
        list(coefficients[start : start + block_size])
        for start in range(0, n, block_size)
    ]
    normalized: List[List[int]] = []
    block_carries: List[int] = []
    for block in blocks:
        digits = []
        carry = 0
        for c in block:
            total = int(c) + carry
            digits.append(total & mask)
            carry = total >> m
        normalized.append(digits)
        block_carries.append(carry)

    # Ripple the inter-block carries (the carry-select stage).
    out: List[int] = []
    carry = 0
    for digits, block_carry in zip(normalized, block_carries):
        for d in digits:
            total = d + carry
            out.append(total & mask)
            carry = total >> m
        carry += block_carry
    while carry:
        out.append(carry & mask)
        carry >>= m
    return out

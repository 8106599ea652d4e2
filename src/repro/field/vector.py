"""Vectorized ``GF(p)`` arithmetic on numpy ``uint64`` arrays.

Pure-Python big-int arithmetic is the correctness oracle but is far too
slow for 64K-point transforms.  :func:`vmul` runs the compiled
``unsigned __int128`` multiply-reduce of :mod:`repro.native` whenever
that library loads and the operand layout is one it takes; otherwise
the numpy path emulates the 64×64→128-bit multiply with 32-bit limb
products (exactly the schoolbook decomposition the paper's DSP-based
modular multiplier uses, Section IV-d).  Both reduce with the
word-level identities behind Equation 4 and return the same bits.

All arrays hold canonical residues (``< p``) as ``uint64``.  Overflow
wrapping of numpy unsigned arithmetic is exploited deliberately and
each helper documents the ranges involved.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro import native
from repro.field.solinas import P

_P64 = np.uint64(P)
_MASK32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
#: 2**32 - 1, the "epsilon" of the Goldilocks reduction (2**64 ≡ epsilon).
_EPSILON = np.uint64(0xFFFFFFFF)


def to_field_array(values: Iterable[int]) -> np.ndarray:
    """Convert an iterable of Python ints into a canonical uint64 array."""
    reduced = [int(v) % P for v in values]
    return np.array(reduced, dtype=np.uint64)


def from_field_array(array: np.ndarray) -> List[int]:
    """Convert a uint64 field array back to a list of Python ints."""
    return [int(v) for v in array]


def to_field_matrix(rows) -> np.ndarray:
    """Convert a sequence of equal-length int rows to a canonical
    ``(batch, n)`` uint64 matrix.

    Fast paths: ``uint64`` rows canonicalize with one conditional
    subtraction (``x < 2**64 < 2p``, so ``x mod p`` is ``x`` or
    ``x − p``); rows of any other integer dtype convert through
    ``int64`` in one vectorized pass — non-negative values are
    canonical as-is (``2**63 − 1 < p``), and a negative ``x`` lands at
    ``x + 2**64`` after the unsigned cast, which is
    ``x + epsilon (mod p)``, so subtracting ``epsilon`` restores
    ``x + p``, canonical for any ``x ≥ −2**63``.  Everything else
    (Python ints beyond int64, ragged input, floats) falls back to the
    exact per-element :func:`to_field_array` route.
    """
    try:
        arr = np.asarray(rows)
    except ValueError:  # ragged rows — let np.stack report it
        arr = None
    if arr is not None and arr.dtype.kind in "iu":
        if arr.dtype == np.uint64:
            out = arr.astype(np.uint64, copy=True)
            out[out >= _P64] -= _P64
            return out
        signed = arr.astype(np.int64)  # every other int dtype fits
        out = signed.astype(np.uint64)
        return np.where(signed < 0, out - _EPSILON, out)
    return np.stack([to_field_array(row) for row in rows])


def vadd(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Elementwise ``(a + b) mod p`` for canonical inputs.

    ``a + b < 2p < 2**65`` may wrap; wrapping happened iff the unsigned
    sum is smaller than an operand, and a wrapped value needs
    ``+ 2**64 mod p = + epsilon``.

    ``out`` (optional) receives the result and is returned; it may
    alias ``a`` and/or ``b``, letting accumulation loops run without
    allocating per-iteration temporaries.
    """
    if out is None:
        s = a + b
        wrapped = s < a
        s = np.where(wrapped, s + _EPSILON, s)
        # The +epsilon correction cannot wrap again: a wrapped s is < p - 1.
        s = np.where(s >= _P64, s - _P64, s)
        return s
    # a + b wraps 2**64 iff a > ~b, decided *before* the add so that
    # out may alias either operand through any view, not just the same
    # array object.
    wrapped = a > np.bitwise_not(b)
    np.add(a, b, out=out)
    np.add(out, _EPSILON, out=out, where=wrapped)
    np.subtract(out, _P64, out=out, where=out >= _P64)
    return out


def vsub(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Elementwise ``(a - b) mod p`` for canonical inputs.

    ``out`` (optional) receives the result and is returned; it may
    alias ``a`` and/or ``b``.
    """
    if out is None:
        d = a - b
        borrowed = a < b
        # A borrow means the true value is d - 2**64 ≡ d - epsilon (mod p).
        d = np.where(borrowed, d - _EPSILON, d)
        return np.where(d >= _P64, d - _P64, d)
    borrowed = a < b  # read before the subtract may clobber a or b
    np.subtract(a, b, out=out)
    np.subtract(out, _EPSILON, out=out, where=borrowed)
    np.subtract(out, _P64, out=out, where=out >= _P64)
    return out


def vneg(a: np.ndarray) -> np.ndarray:
    """Elementwise ``-a mod p``."""
    return np.where(a == 0, a, _P64 - a)


def _mul_wide(a: np.ndarray, b: np.ndarray):
    """Full 128-bit product of canonical operands as ``(hi, lo)`` uint64.

    Mirrors the DSP decomposition: four 32×32 partial products combined
    schoolbook-style (paper Section IV-d).
    """
    a0 = a & _MASK32
    a1 = a >> _SHIFT32
    b0 = b & _MASK32
    b1 = b >> _SHIFT32

    p00 = a0 * b0  # < 2**64, exact
    p01 = a0 * b1
    p10 = a1 * b0
    p11 = a1 * b1

    # mid collects bits [32, 96): ≤ 3·(2**32 - 1) so it fits easily.
    mid = (p00 >> _SHIFT32) + (p01 & _MASK32) + (p10 & _MASK32)
    lo = (p00 & _MASK32) | ((mid & _MASK32) << _SHIFT32)
    hi = p11 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, lo


def _reduce_wide(
    hi: np.ndarray, lo: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Reduce a 128-bit value ``hi·2**64 + lo`` to a canonical residue.

    Word-level form of the paper's Equation 4: with ``hi = h1·2**32 + h0``,
    ``x ≡ lo − h1 + h0·(2**32 − 1) (mod p)``.

    ``out`` (optional) receives the result and is returned; it may
    alias ``hi`` or ``lo``.
    """
    h0 = hi & _MASK32
    h1 = hi >> _SHIFT32

    if out is None:
        # t = lo - h1 (mod p); on borrow the wrapped value needs -epsilon.
        t = lo - h1
        borrowed = lo < h1
        t = np.where(borrowed, t - _EPSILON, t)

        # t += h0 * epsilon; h0*epsilon < 2**64 always, sum may wrap once.
        t2 = t + h0 * _EPSILON
        wrapped = t2 < t
        t2 = np.where(wrapped, t2 + _EPSILON, t2)

        return np.where(t2 >= _P64, t2 - _P64, t2)

    # In-place pipeline: h0/h1 were extracted above, so out may freely
    # clobber hi or lo from here on.
    borrowed = lo < h1
    np.subtract(lo, h1, out=out)
    np.subtract(out, _EPSILON, out=out, where=borrowed)
    np.multiply(h0, _EPSILON, out=h0)  # exact: h0·epsilon < 2**64
    np.add(out, h0, out=out)
    # The sum wrapped iff it ended up below the (still intact) addend.
    np.add(out, _EPSILON, out=out, where=out < h0)
    np.subtract(out, _P64, out=out, where=out >= _P64)
    return out


def vmul(
    a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Elementwise ``(a * b) mod p`` for canonical inputs.

    ``out`` (optional) receives the result and is returned; it may
    alias ``a`` and/or ``b`` (the wide product is formed before the
    reduction writes anything).
    """
    product = native.mul_reduce(a, b, out)
    if product is not None:
        return product
    hi, lo = _mul_wide(a, b)
    return _reduce_wide(hi, lo, out=out)


def vmul_scalar(
    a: np.ndarray, scalar: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Elementwise ``(a * scalar) mod p`` with a Python-int scalar.

    The scalar is broadcast as a zero-stride view, not materialized as
    a full array.
    """
    s = np.broadcast_to(np.uint64(scalar % P), a.shape)
    return vmul(a, s, out=out)

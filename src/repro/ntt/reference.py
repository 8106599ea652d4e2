"""Reference oracles for every transform route — the test oracles.

- :func:`dft_reference` / :func:`idft_reference` compute
  ``F[k] = sum_n f[n] · ω^{nk} (mod p)`` directly from the definition
  (paper Eq. 1, left-hand side).  Deliberately unoptimized, O(n²).
- :func:`convolution_reference` computes cyclic and negacyclic
  convolutions with one CPython big-integer product, fast enough for
  the sizes where the O(n²) DFT is not.

Neither shares any code with the NTT plans, kernels or field vectors.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.field.roots import root_of_unity
from repro.field.solinas import P, inverse, pow_mod


def dft_reference(
    values: Sequence[int], omega: Optional[int] = None
) -> List[int]:
    """Direct evaluation of the length-``n`` number-theoretic DFT.

    Parameters
    ----------
    values:
        Input vector (canonical residues); its length must be a power
        of two dividing ``2**32`` unless ``omega`` is supplied.
    omega:
        Primitive n-th root of unity to use.  Defaults to the canonical
        compatible root from :func:`repro.field.roots.root_of_unity`.
    """
    n = len(values)
    if omega is None:
        omega = root_of_unity(n)
    out = []
    for k in range(n):
        acc = 0
        wk = pow_mod(omega, k)
        w = 1
        for x in values:
            acc = (acc + x * w) % P
            w = (w * wk) % P
        out.append(acc)
    return out


def idft_reference(
    values: Sequence[int], omega: Optional[int] = None
) -> List[int]:
    """Direct inverse DFT: forward DFT with ``ω^{-1}`` scaled by ``n^{-1}``."""
    n = len(values)
    if omega is None:
        omega = root_of_unity(n)
    spectrum = dft_reference(values, inverse(omega))
    n_inv = inverse(n)
    return [(x * n_inv) % P for x in spectrum]


def convolution_reference(
    a: Sequence[int], b: Sequence[int], negacyclic: bool = False
) -> List[int]:
    """Cyclic (or negacyclic) convolution of two length-``n`` vectors.

    Kronecker substitution: each operand is packed into one integer
    with a coefficient every ``width`` bytes — wide enough that a sum
    of ``n`` products ``< p²`` never carries into the next slot — and
    the slots of the single integer product are the acyclic
    convolution.  Folding slot ``k + n`` onto slot ``k`` with ``+``
    (``x^n = 1``) or ``−`` (``x^n = −1``) gives the result mod ``p``.
    """
    n = len(a)
    if len(b) != n:
        raise ValueError("operands must have equal length")
    width = (2 * P.bit_length() + n.bit_length() + 7) // 8

    def pack(values: Sequence[int]) -> int:
        return int.from_bytes(
            b"".join((int(x) % P).to_bytes(width, "little") for x in values),
            "little",
        )

    product = (pack(a) * pack(b)).to_bytes(2 * n * width, "little")
    slots = [
        int.from_bytes(product[k * width : (k + 1) * width], "little")
        for k in range(2 * n)
    ]
    sign = -1 if negacyclic else 1
    return [(slots[k] + sign * slots[k + n]) % P for k in range(n)]

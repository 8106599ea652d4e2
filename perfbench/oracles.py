"""Output checkers that share no code with the library under test.

Every check here uses only CPython integers and numpy: nothing from
``repro`` is imported, so a defect in the NTT, SSA or RLWE code cannot
hide itself by also breaking its own oracle.
"""

from __future__ import annotations

import random
from typing import List, Sequence

import numpy as np

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_primes(rng: random.Random, count: int, bits: int) -> List[int]:
    """``count`` distinct random primes of exactly ``bits`` bits."""
    primes: List[int] = []
    while len(primes) < count:
        q = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if q not in primes and is_prime(q):
            primes.append(q)
    return primes


class ResidueCheck:
    """Checks big products by their residues modulo secret primes.

    A wrong product passes only if every prime divides the error.  The
    error of a 2·786,432-bit product has at most ~26,000 distinct 61-bit
    prime factors out of ~2.7e16 such primes, so one prime already lets
    a given wrong product through with probability below 1e-12, and two
    below 1e-24.
    """

    def __init__(self, primes: Sequence[int]):
        self.primes = tuple(primes)

    def expect(self, a: int, b: int) -> tuple:
        return tuple(a % q * (b % q) % q for q in self.primes)

    def ok(self, product: int, expected: tuple) -> bool:
        return all(product % q == e for q, e in zip(self.primes, expected))


def negacyclic(a, b, modulus: int) -> np.ndarray:
    """Schoolbook ``a·b mod (x^n + 1)`` with coefficients mod ``modulus``.

    Exact in int64 while ``n · max|a| · max|b| < 2**63``: messages mod
    17 and a ternary secret times 27-bit residues both fit.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = a.shape[0]
    full = np.convolve(a, b)
    out = full[:n].copy()
    out[: n - 1] -= full[n:]
    return out % modulus


def depth2_plain(m1, m2, m3, t: int) -> np.ndarray:
    """The plaintext of ``(m1·m2)·m3`` in ``Z_t[x]/(x^n + 1)``."""
    return negacyclic(negacyclic(m1, m2, t), m3, t)


def rlwe_decrypt(c0, c1, secret, primes: Sequence[int], t: int) -> np.ndarray:
    """Decrypt a degree-1 RNS ciphertext with the signed secret.

    ``c0``/``c1`` hold one residue row per prime of the ciphertext's
    level.  The phase ``c0 + c1·s`` is formed per residue channel,
    CRT-combined to an integer mod ``q = Π primes``, centred, and
    reduced mod ``t``.
    """
    level = len(c0)
    primes = [int(q) for q in primes[:level]]
    q_total = 1
    for q in primes:
        q_total *= q
    coefficients = []
    for q in primes:
        q_hat = q_total // q
        coefficients.append(q_hat * pow(q_hat % q, -1, q) % q_total)
    phases = [
        (np.asarray(c0[i], dtype=np.int64) + negacyclic(c1[i], secret, q)) % q
        for i, q in enumerate(primes)
    ]
    out = []
    for column in zip(*(p.tolist() for p in phases)):
        x = sum(r * c for r, c in zip(column, coefficients)) % q_total
        if x > q_total // 2:
            x -= q_total
        out.append(x % t)
    return np.array(out, dtype=np.int64)

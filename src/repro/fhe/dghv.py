"""The DGHV scheme over the integers, with a pluggable multiplier.

Somewhat-homomorphic encryption of bits (van Dijk et al., EUROCRYPT
2010):

- secret key: a random odd ``eta``-bit integer ``p``;
- symmetric encryption of ``m ∈ {0,1}``: ``c = q·p + 2r + m``;
- public key: ``x_i = q_i·p + 2r_i`` with ``x_0 = q_0·p`` an *exact*
  noise-free multiple of ``p`` (the Coron et al. variant the paper
  cites as [33]/[34]), so ciphertexts — including the 2·gamma-bit
  homomorphic products — can be reduced modulo ``x_0`` without
  affecting the noise; public encryption:
  ``c = (m + 2r + 2·Σ_{i∈S} x_i) mod x_0``;
- decryption: ``(c mod p) mod 2`` with ``c mod p`` the *centered*
  residue.

Every ciphertext-by-ciphertext product goes through the instance's
``multiplier`` strategy — a plain callable ``(int, int) -> int`` — so
the same scheme runs on Python ints, on :class:`repro.ssa.SSAMultiplier`
or on the accelerator model, which is how the benchmarks measure the
paper's workload end to end.  The preferred way to build a scheme is
:meth:`repro.engine.Engine.fhe`, which injects an engine-backed
strategy (batched SSA on ``software``, cycle-counted products on
``hw-model``) automatically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.fhe.params import FHEParams, TOY

Multiplier = Callable[[int, int], int]


@dataclass(frozen=True)
class KeyPair:
    """DGHV key material."""

    secret: int
    public: tuple  # (x_0, x_1, ..., x_tau)

    @property
    def x0(self) -> int:
        return self.public[0]


@dataclass
class Ciphertext:
    """A DGHV ciphertext with a tracked noise-budget estimate.

    ``noise_bits`` is an upper bound on ``log2 |c mod p|`` maintained
    through homomorphic operations; decryption is guaranteed while it
    stays below ``eta - 2``.
    """

    value: int
    noise_bits: float
    params: FHEParams

    @property
    def decryptable(self) -> bool:
        return self.noise_bits < self.params.eta - 2

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        from repro.fhe.ops import _he_add

        return _he_add(self, other)


def _centered_mod(value: int, modulus: int) -> int:
    """Residue in ``(-modulus/2, modulus/2]``."""
    r = value % modulus
    if r > modulus // 2:
        r -= modulus
    return r


class DGHV:
    """A DGHV instance: key generation, encryption, decryption.

    Parameters
    ----------
    params:
        Parameter set (see :mod:`repro.fhe.params`).
    multiplier:
        Big-integer multiplication strategy used by homomorphic
        multiplication; defaults to Python's built-in product.
    rng:
        Source of randomness (``random.Random``), injectable for
        reproducible tests; ``None`` draws from ``random.SystemRandom``,
        since the Mersenne Twister's state can be rebuilt from its
        outputs.
    """

    def __init__(
        self,
        params: FHEParams = TOY,
        multiplier: Optional[Multiplier] = None,
        rng: Optional[random.Random] = None,
    ):
        params.validate()
        self.params = params
        self.multiplier = multiplier or (lambda a, b: a * b)
        self.rng = rng or random.SystemRandom()

    # -- key generation ----------------------------------------------------

    def generate_keys(self) -> KeyPair:
        """Draw a secret key and the ``tau + 1`` public elements."""
        p = self._random_odd(self.params.eta)
        # x_0 = q_0 · p exactly (q_0 odd so x_0 is odd).  In a secure
        # instantiation q_0 must additionally be rough (free of small
        # prime factors); that check is omitted here as it does not
        # affect the accelerator workload.
        q0_bits = self.params.gamma - p.bit_length()
        q0 = self._random_odd(q0_bits)
        x0 = q0 * p
        others = [
            self._public_element(p, bound=x0)
            for _ in range(self.params.tau)
        ]
        return KeyPair(secret=p, public=tuple([x0] + others))

    def _random_odd(self, bits: int) -> int:
        return self.rng.getrandbits(bits - 1) | (1 << (bits - 1)) | 1

    def _public_element(
        self, p: int, force_odd: bool = False, bound: int = 0
    ) -> int:
        """One ``x_i = q_i·p + 2r_i`` (kept below ``bound`` if given).

        ``x_i mod p`` is automatically even (it equals ``2r_i``);
        ``force_odd`` additionally makes the element itself odd, the
        DGHV requirement on ``x_0``.
        """
        gamma, rho = self.params.gamma, self.params.rho
        while True:
            q_bits = gamma - p.bit_length()
            q = self.rng.getrandbits(q_bits) | (1 << (q_bits - 1))
            r = self.rng.getrandbits(rho) - (1 << (rho - 1))
            x = q * p + 2 * r
            if x <= 0:
                continue
            if force_odd and x % 2 == 0:
                continue
            if bound and x >= bound:
                continue
            return x

    # -- encryption / decryption --------------------------------------------

    def encrypt_symmetric(self, keys: KeyPair, message: int) -> Ciphertext:
        """``c = q·p + 2r + m`` under the secret key."""
        self._check_bit(message)
        gamma, rho = self.params.gamma, self.params.rho
        p = keys.secret
        q_bits = gamma - p.bit_length()
        q = self.rng.getrandbits(q_bits) | (1 << (q_bits - 1))
        r = self.rng.getrandbits(rho) - (1 << (rho - 1))
        value = q * p + 2 * r + message
        return Ciphertext(
            value=value, noise_bits=rho + 1, params=self.params
        )

    def encrypt(self, keys: KeyPair, message: int) -> Ciphertext:
        """Public-key encryption: random subset sum modulo ``x_0``."""
        self._check_bit(message)
        rho, tau = self.params.rho, self.params.tau
        r = self.rng.getrandbits(rho) - (1 << (rho - 1))
        subset_sum = 0
        picked = 0
        for x in keys.public[1:]:
            if self.rng.getrandbits(1):
                subset_sum += x
                picked += 1
        value = (message + 2 * r + 2 * subset_sum) % keys.x0
        # |noise| ≤ 2^rho·(4·tau + 2): fresh noise plus subset noise
        # (x_0 wraps are noise-free since x_0 = q_0·p).
        noise = rho + (4 * self.params.tau + 2).bit_length()
        return Ciphertext(value=value, noise_bits=noise, params=self.params)

    def decrypt(self, keys: KeyPair, ciphertext: Ciphertext) -> int:
        """``(c mod p) mod 2`` with the centered residue."""
        return _centered_mod(ciphertext.value, keys.secret) % 2

    # -- HEScheme protocol ---------------------------------------------------

    def keygen(self) -> KeyPair:
        """:class:`repro.fhe.ops.HEScheme` spelling of
        :meth:`generate_keys`."""
        return self.generate_keys()

    def encrypt_many(
        self, keys: KeyPair, messages: List[int]
    ) -> List[Ciphertext]:
        """Encrypt a batch of bits (fresh randomness per bit)."""
        return [self.encrypt(keys, message) for message in messages]

    def decrypt_many(
        self, keys: KeyPair, ciphertexts: List[Ciphertext]
    ) -> List[int]:
        return [self.decrypt(keys, ciphertext) for ciphertext in ciphertexts]

    def add(self, x: Ciphertext, y: Ciphertext) -> Ciphertext:
        """Homomorphic XOR (unreduced — pass through gates or
        ``multiply`` with keys to fold mod ``x_0``)."""
        from repro.fhe.ops import _he_add

        return _he_add(x, y)

    def multiply(
        self, keys: KeyPair, x: Ciphertext, y: Ciphertext
    ) -> Ciphertext:
        """Homomorphic AND through the multiplier strategy, reduced
        modulo ``x_0``."""
        from repro.fhe.ops import _he_mult

        return _he_mult(self, x, y, x0=keys.x0)

    def multiply_many(self, keys: KeyPair, pairs) -> List[Ciphertext]:
        """Batched homomorphic AND (one batched multiplier pass)."""
        from repro.fhe.ops import _he_mult_many

        return _he_mult_many(self, pairs, x0=keys.x0)

    def noise_budget(self, keys: KeyPair, ciphertext: Ciphertext) -> float:
        """Remaining headroom in bits below the ``eta - 2`` ceiling."""
        return (self.params.eta - 2) - ciphertext.noise_bits

    def xor_and_eval(
        self, keys: KeyPair, bits_a, bits_b
    ) -> List[int]:
        """Demo circuit (see :func:`repro.fhe.ops._he_xor_and_eval`)."""
        from repro.fhe.ops import _he_xor_and_eval

        return _he_xor_and_eval(self, keys, bits_a, bits_b)

    def noise_of(self, keys: KeyPair, ciphertext: Ciphertext) -> int:
        """Exact noise magnitude (test/diagnostic use — needs the key)."""
        return abs(_centered_mod(ciphertext.value, keys.secret))

    @staticmethod
    def _check_bit(message: int) -> None:
        if message not in (0, 1):
            raise ValueError("DGHV encrypts single bits")

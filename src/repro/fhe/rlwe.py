"""A full RLWE (ring-LWE) homomorphic pipeline over the accelerator field.

The paper positions the multiplier as a substrate for "solutions based
on Lattice problems and Learning with Errors" besides integer FHE
(Section III, citing Brakerski–Vaikuntanathan [2], [3]).  This module
realizes that claim end to end: a symmetric BV-style scheme over
``R_q = Z_q[x]/(x^n + 1)`` in which every polynomial product is a
negacyclic convolution on exactly the NTT machinery the accelerator
implements.

Two modulus representations share one API:

- **single-modulus** (``rns_primes=None``): ``q = p = 2^64 − 2^32 + 1``,
  ciphertext components are flat ``(n,)`` residue vectors and ring
  products run directly in ``GF(p)``;
- **RNS/CRT** (``rns_primes=(q_1, ..., q_k)``): ``q = Π q_i`` and a
  ciphertext component is a ``(k, n)`` matrix of residue channels —
  each channel is *just another batched negacyclic ring over the same
  engine* (residues stack on the existing batch axis).  Channel
  products are computed exactly: a mod-``p`` convolution whose integer
  value is at most ``(p − 1)/2`` lifts to its centered integer and
  reduces mod ``q_j``.  Three bounds let every operand be
  forward-transformed at most once per call:

  1. secret products multiply every channel row by *one* ``GF(p)`` row
     holding the signed ternary secret: ``|conv| ≤ n·(q − 1)``;
  2. a key-switching digit ``[c2_i·(q/q_i)^{-1}]_{q_i}`` is exact
     against every channel's key without reduction mod ``q_j``:
     ``n·(q_i − 1)(q_j − 1) ≤ (p − 1)/2`` follows from the validated
     ``n·(q − 1)² ≤ (p − 1)/2``.  Against centered keys, groups of
     :attr:`RLWEParams.relin_group` digit products (2 for every
     :func:`default_rns_primes` chain) sum in the spectrum before one
     inverse;
  3. centered tensor operands let ``c0·d1 + c1·d0`` sum in the
     spectrum: ``|c0·d1 + c1·d0| ≤ n·(q − 1)²/2``.

  At batch ``B``, level ``L`` and group ``g``, ``multiply_many`` runs
  ``4BL + BL + 2L²`` forward and ``3BL + 2BL·⌈L/g⌉`` inverse rows;
  ``encrypt_many`` of ``M`` messages runs ``ML + 1`` forward and
  ``ML`` inverse rows, and ``decrypt_many`` ``BL + 1`` and ``BL``.

Plaintexts use the BV **LSB encoding**: ``c0 + c1·s = m + t·e (mod q)``
with ``m ∈ Z_t[x]/(x^n + 1)``.  Decryption lifts the phase to its
centered representative and reduces mod ``t``; homomorphic operations
are then *pure ring arithmetic* — no rational rounding — which is what
lets ciphertext-by-ciphertext multiplication run on the integer NTT
datapath.

Supported operations: ``keygen``/``encrypt``/``decrypt`` (and batched
``*_many`` forms), homomorphic addition, plaintext products,
ciphertext-by-ciphertext products via :meth:`RLWE.tensor` +
:meth:`RLWE.relinearize` (base-decomposition key switching in
single-modulus mode, per-channel RNS decomposition otherwise), BGV
modulus switching (:meth:`RLWE.mod_switch`) for noise management, and
a ``noise_budget`` query.  An :class:`RLWE` instance bound to an
:class:`repro.engine.Engine` routes every ring product through the
engine's compute backend, so the same pipeline runs sharded on
``software-mp`` and cycle-counted on ``hw-model`` — bit-identically.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.field.solinas import P
from repro.field.vector import (
    to_field_array,
    to_field_matrix,
    vadd,
    vmul,
    vmul_scalar,
    vsub,
)
from repro.ntt.plan import (
    ORDER_DECIMATED,
    TWIST_NEGACYCLIC,
    TransformPlan,
    plan_for_size,
)
from repro.ntt.negacyclic import (
    negacyclic_convolution_broadcast,
    negacyclic_inverse_many,
    negacyclic_transform_many,
)

_HALF = np.uint64(P >> 1)
_EPSILON = np.uint64(0xFFFFFFFF)  # 2**64 - P


def _centered_lift(rows: np.ndarray) -> np.ndarray:
    """Centered signed representatives of canonical mod-``p`` values.

    ``v ≤ (p−1)/2`` maps to ``v``; larger residues map to ``v − p``.
    Both branches fit ``int64`` (``p/2 < 2^63``), and the negative
    branch exploits unsigned wrap-around: ``v + (2^64 − p)`` overflows
    to the two's-complement pattern of ``v − p``.
    """
    return np.where(rows > _HALF, rows + _EPSILON, rows).view(np.int64)


def _centered_field(rows: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """``GF(p)`` images of the centered representatives of ``[0, q)``
    residues (``primes`` broadcasts against ``rows``): ``r > q/2``
    maps to ``r − q + p``."""
    q = primes.astype(np.uint64)
    return np.where(rows > q >> np.uint64(1), rows + (np.uint64(P) - q), rows)


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for 64-bit integers."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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


def default_rns_primes(n: int, t: int, count: int = 3) -> Tuple[int, ...]:
    """The ``count`` largest residue-channel primes for ``(n, t)``.

    Each prime satisfies the three structural requirements of the RNS
    representation: ``q_i ≡ 1 (mod t)`` (so BGV modulus switching
    preserves the plaintext), ``q_i > t``, and
    ``n·(q_i − 1)² ≤ (p − 1)/2`` (so per-channel negacyclic products
    lift exactly from one mod-``p`` convolution).
    """
    if count < 1:
        raise ValueError("count must be positive")
    ceiling = math.isqrt((P - 1) // (2 * n)) + 1
    # Largest candidate ≡ 1 (mod t) at or below the exactness ceiling.
    q = ceiling - (ceiling - 1) % t
    primes: List[int] = []
    while len(primes) < count and q > t:
        if n * (q - 1) * (q - 1) <= (P - 1) // 2 and _is_prime(q):
            primes.append(q)
        q -= t
    if len(primes) < count:
        raise ValueError(
            f"could not find {count} channel primes for n={n}, t={t}"
        )
    return tuple(primes)


@dataclass(frozen=True)
class RLWEParams:
    """Ring dimension, plaintext modulus, noise width and modulus chain.

    ``rns_primes=None`` selects the single-modulus scheme over
    ``q = p``; a tuple of primes selects the RNS/CRT representation
    with ``q = Π q_i`` (the *modulus chain* — ``mod_switch`` drops
    primes from the end).  ``relin_base`` is the log2 digit width of
    the base-decomposition relinearization keys in single-modulus
    mode (RNS mode decomposes per channel instead).

    Frozen, hashable and pickle-stable like
    :class:`repro.engine.config.ExecutionConfig`, so ``software-mp``
    workers and ``repro.serve`` coalesce keys can carry it.
    """

    n: int = 1024
    t: int = 256
    noise_bound: int = 8
    rns_primes: Optional[Tuple[int, ...]] = None
    relin_base: int = 16

    def __post_init__(self) -> None:
        if self.rns_primes is not None and not isinstance(
            self.rns_primes, tuple
        ):
            object.__setattr__(
                self, "rns_primes", tuple(int(q) for q in self.rns_primes)
            )

    def validate(self) -> None:
        if self.n & (self.n - 1):
            raise ValueError("ring dimension must be a power of two")
        if not 2 <= self.t < 1 << 32:
            raise ValueError("plaintext modulus out of range")
        if self.noise_bound < 1:
            raise ValueError("noise bound must be positive")
        if not 1 <= self.relin_base <= 32:
            raise ValueError("relin_base must be in [1, 32] bits")
        if self.rns_primes is None:
            return
        primes = self.rns_primes
        if len(primes) < 1:
            raise ValueError("rns_primes must name at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError("rns_primes must be distinct")
        for q in primes:
            if q <= self.t:
                raise ValueError(
                    f"channel prime {q} must exceed the plaintext "
                    f"modulus {self.t}"
                )
            if q % self.t != 1:
                raise ValueError(
                    f"channel prime {q} must be ≡ 1 (mod t={self.t}) "
                    "for modulus switching to preserve the plaintext"
                )
            if self.n * (q - 1) * (q - 1) > (P - 1) // 2:
                raise ValueError(
                    f"channel prime {q} too large: n·(q−1)² must not "
                    "exceed (p−1)/2 for exact channel products"
                )
            if not _is_prime(q):
                raise ValueError(f"rns_primes entry {q} is not prime")

    @property
    def delta(self) -> int:
        """Legacy MSB scaling factor ``Δ = floor(p / t)`` (kept for
        API compatibility; the LSB encoding does not use it)."""
        return P // self.t

    @property
    def is_rns(self) -> bool:
        return self.rns_primes is not None

    @property
    def level_count(self) -> int:
        """Length of the modulus chain (1 in single-modulus mode)."""
        return len(self.rns_primes) if self.rns_primes else 1

    def modulus(self, level: Optional[int] = None) -> int:
        """The ciphertext modulus ``q`` at ``level`` active primes."""
        if self.rns_primes is None:
            return P
        if level is None:
            level = len(self.rns_primes)
        if not 1 <= level <= len(self.rns_primes):
            raise ValueError(f"level must be in [1, {len(self.rns_primes)}]")
        q = 1
        for prime in self.rns_primes[:level]:
            q *= prime
        return q

    @property
    def relin_group(self) -> int:
        """RNS key-switching digit products that sum exactly in one
        spectrum: each is at most ``n·(q_max − 1)·⌊(q_max − 1)/2⌋``
        against a centered key, and the sum must stay within
        ``(p − 1)/2``."""
        q = max(self.rns_primes)
        return ((P - 1) // 2) // (self.n * (q - 1) * ((q - 1) // 2))

    def channel_residues(self, rows, level: int) -> np.ndarray:
        """``level`` rows of channel residues from the wire, as a
        ``(level, n)`` uint64 matrix.

        Every exact channel product relies on ``0 ≤ r < q_j``, so a
        residue outside that range raises ``ValueError`` naming its
        channel instead of yielding a wrong product.
        """
        matrix = np.asarray(rows)
        if (
            not 1 <= level <= self.level_count
            or matrix.shape != (level, self.n)
            or matrix.dtype.kind not in "iufO"
        ):
            raise ValueError(
                f"channel rows must be ({level}, {self.n}) integers"
            )
        primes = np.array(self.rns_primes[:level]).reshape(-1, 1)
        bad = ((matrix < 0) | (matrix >= primes)).any(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(
                f"channel {j} holds a residue outside [0, {primes[j, 0]})"
            )
        if matrix.dtype.kind not in "iu":
            raise ValueError("channel residues must be integers")
        return matrix.astype(np.uint64)


@dataclass
class RLWECiphertext:
    """``(c0, c1[, c2])`` with ``c0 + c1·s + c2·s² = m + t·e (mod q)``.

    Components are ``(n,)`` vectors in single-modulus mode and
    ``(level, n)`` residue-channel matrices in RNS mode.  ``c2`` is
    only present on the degree-2 output of :meth:`RLWE.tensor`, before
    relinearization folds it back into ``(c0, c1)``.
    """

    c0: np.ndarray
    c1: np.ndarray
    params: RLWEParams
    c2: Optional[np.ndarray] = None
    level: Optional[int] = None

    def __post_init__(self) -> None:
        if self.level is None:
            self.level = self.params.level_count

    @property
    def degree(self) -> int:
        """Polynomial degree in ``s`` plus one (2, or 3 pre-relin)."""
        return 2 if self.c2 is None else 3


class RelinKeys:
    """Relinearization (key-switching) key material, secret-free.

    ``levels`` maps a modulus-chain level to its digit keys: a tuple of
    ``(k0, k1)`` pairs, one per decomposition digit, each component an
    RNS element at that level (or a flat mod-``p`` vector in
    single-modulus mode, under level 1).  Safe to ship to an untrusted
    evaluator — :meth:`RLWE.multiply` needs only this, never the
    secret.
    """

    def __init__(
        self,
        params: RLWEParams,
        levels: Dict[int, Tuple[Tuple[np.ndarray, np.ndarray], ...]],
    ):
        self.params = params
        self.levels = levels
        self._digest: Optional[str] = None

    def for_level(self, level: int):
        try:
            return self.levels[level]
        except KeyError:
            raise ValueError(
                f"no relinearization key for level {level} — in RNS mode "
                "multiply before the final modulus switch (level 1 has "
                "no headroom for key-switching noise)"
            ) from None

    def digest(self) -> str:
        """A stable content hash (used in service coalesce keys)."""
        if self._digest is None:
            h = hashlib.sha256()
            h.update(repr(self.params).encode())
            for level in sorted(self.levels):
                h.update(level.to_bytes(4, "little"))
                for k0, k1 in self.levels[level]:
                    h.update(np.ascontiguousarray(k0).tobytes())
                    h.update(np.ascontiguousarray(k1).tobytes())
            self._digest = h.hexdigest()
        return self._digest

    # -- wire format -------------------------------------------------------

    def to_payload(self) -> dict:
        """JSON-encodable form (see :class:`repro.serve` ``rlwe-multiply``)."""

        def encode(component: np.ndarray):
            if component.ndim == 1:
                return [int(v) for v in component]
            return [[int(v) for v in row] for row in component]

        return {
            "levels": {
                str(level): [
                    [encode(k0), encode(k1)] for k0, k1 in keys
                ]
                for level, keys in self.levels.items()
            }
        }

    @classmethod
    def from_payload(cls, params: RLWEParams, raw: dict) -> "RelinKeys":
        raw_levels = raw.get("levels")
        if not isinstance(raw_levels, dict) or not raw_levels:
            raise ValueError("relin payload must carry a levels object")

        def decode(component, level: int) -> np.ndarray:
            if params.is_rns:
                return params.channel_residues(component, level)
            vector = to_field_array(component)
            if vector.shape != (params.n,):
                raise ValueError(
                    f"relin component must have {params.n} coefficients"
                )
            return vector

        levels: Dict[int, Tuple[Tuple[np.ndarray, np.ndarray], ...]] = {}
        for key, raw_keys in raw_levels.items():
            level = int(key)
            levels[level] = tuple(
                (decode(k0, level), decode(k1, level))
                for k0, k1 in raw_keys
            )
        return cls(params=params, levels=levels)


@dataclass(eq=False)
class RLWEKeyPair:
    """Secret key plus the evaluator-facing relinearization keys."""

    secret: np.ndarray  # signed ternary (n,) int64
    params: RLWEParams
    relin: RelinKeys

    @property
    def secret_field(self) -> np.ndarray:
        """The secret as a canonical mod-``p`` field vector (the shape
        legacy single-modulus call sites pass around)."""
        return to_field_matrix(self.secret.reshape(1, -1))[0]


class RLWE:
    """Symmetric RLWE encryption with NTT-backed ring products.

    The preferred constructor is :meth:`repro.engine.Engine.fhe`, which
    binds the scheme to the engine's fused, permutation-free negacyclic
    plan *and* to its compute backend — ring products then shard on
    ``software-mp`` and are cycle-counted on ``hw-model``.  A free
    instance (no engine) runs the module-level convolution helpers on
    the process-global plan cache; all routes are bit-identical.
    """

    def __init__(
        self,
        params: RLWEParams = RLWEParams(),
        rng: Optional[random.Random] = None,
        plan: Optional[TransformPlan] = None,
        engine: Optional[Any] = None,
    ):
        """``plan`` (optional) pins every ring product to a prebuilt
        transform plan; ``engine`` (optional) additionally routes every
        transform through that engine's compute backend.  ``None`` for
        both consults the module-global plan cache per convolution,
        which resolves to the fused decimated plan; passing an unfused
        cyclic plan pins the explicit-twist oracle route instead — all
        routes are bit-identical."""
        params.validate()
        if engine is not None and plan is None:
            plan = engine.plan(
                params.n, twist=TWIST_NEGACYCLIC, ordering=ORDER_DECIMATED
            )
        if plan is not None and plan.n != params.n:
            raise ValueError(
                f"plan is {plan.n}-point but the ring dimension is {params.n}"
            )
        self.params = params
        self.rng = rng or random.Random()
        self.plan = plan
        self.engine = engine
        if params.is_rns:
            self._primes = np.array(params.rns_primes, dtype=np.int64)
        else:
            self._primes = None

    # -- transform plumbing ------------------------------------------------

    def _transform_rows(
        self, rows: np.ndarray, inverse: bool = False
    ) -> np.ndarray:
        """One batched (inverse) negacyclic transform, engine-routed.

        Bound schemes dispatch through ``engine._transform`` so the
        backend sees the pass (sharded on ``software-mp``,
        cycle-counted on ``hw-model``); free schemes run the module
        helpers on ``self.plan`` (default: the fused decimated plan).
        """
        if self.engine is not None and self.plan is not None:
            return self.engine._transform(self.plan, rows, inverse=inverse)
        plan = self.plan
        if plan is None:
            plan = plan_for_size(
                self.params.n, twist=TWIST_NEGACYCLIC, ordering=ORDER_DECIMATED
            )
        if inverse:
            return negacyclic_inverse_many(rows, plan)
        return negacyclic_transform_many(rows, plan)

    def _conv_broadcast(
        self, rows: np.ndarray, poly: np.ndarray
    ) -> np.ndarray:
        """Every row of ``(R, n)`` against one fixed polynomial."""
        if self.engine is not None:
            return self.engine.ring(self.params.n).convolve(
                rows, poly, negacyclic=True
            )
        return negacyclic_convolution_broadcast(rows, poly, self.plan)

    # -- RNS channel arithmetic --------------------------------------------

    def _prime_column(self, level: int, repeat: int = 1) -> np.ndarray:
        """``(repeat·level, 1)`` column of channel primes, cycled."""
        return np.tile(self._primes[:level], repeat).reshape(-1, 1)

    def _channel_reduce(
        self, product_rows: np.ndarray, prime_column: np.ndarray
    ) -> np.ndarray:
        """Exact lift-and-reduce of mod-``p`` channel products.

        Each product's integer value must lie within ``(p − 1)/2`` (see
        the module docstring for the bounds every caller relies on):
        the centered lift is then the true integer, which reduces mod
        the row's channel prime.
        """
        return (
            _centered_lift(product_rows) % prime_column
        ).astype(np.uint64)

    @staticmethod
    def _secret_for(key) -> np.ndarray:
        """The signed secret as one canonical ``GF(p)`` row (from an
        :class:`RLWEKeyPair` or a legacy mod-``p`` secret vector)."""
        if isinstance(key, RLWEKeyPair):
            return key.secret_field
        return np.ascontiguousarray(key, dtype=np.uint64)

    # -- key and noise sampling -----------------------------------------

    def generate_secret(self) -> np.ndarray:
        """Ternary secret polynomial with coefficients in {-1, 0, 1},
        as a canonical mod-``p`` field vector (legacy single-modulus
        shape; prefer :meth:`keygen`, which also builds the
        relinearization keys)."""
        return to_field_array(
            [self.rng.choice((-1, 0, 1)) for _ in range(self.params.n)]
        )

    def _ternary(self) -> np.ndarray:
        return np.array(
            [self.rng.choice((-1, 0, 1)) for _ in range(self.params.n)],
            dtype=np.int64,
        )

    def _noise_signed(self, count: int = 1) -> np.ndarray:
        bound = self.params.noise_bound
        return np.array(
            [
                [
                    self.rng.randint(-bound, bound)
                    for _ in range(self.params.n)
                ]
                for _ in range(count)
            ],
            dtype=np.int64,
        )

    def _uniform_field(self, count: int = 1) -> np.ndarray:
        return to_field_matrix(
            [
                [self.rng.randrange(P) for _ in range(self.params.n)]
                for _ in range(count)
            ]
        )

    def _uniform_channels(self, level: int, count: int = 1) -> np.ndarray:
        """``(count·level, n)`` uniform residue rows (a uniform element
        of ``Z_q`` *is* independent uniform residues per channel)."""
        rows = []
        for _ in range(count):
            for prime in self.params.rns_primes[:level]:
                rows.append(
                    [self.rng.randrange(prime) for _ in range(self.params.n)]
                )
        return np.array(rows, dtype=np.uint64)

    def keygen(self) -> RLWEKeyPair:
        """Draw a ternary secret and all relinearization keys.

        Single-modulus mode builds the base-``2^relin_base`` digit
        keys ``rlk_j = (−(a_j·s) + t·e_j + T^j·s², a_j)``.  RNS mode
        builds one key pair per residue channel and per modulus-chain
        level ≥ 2: ``rlk_i = (−(a_i·s) + t·e_i + q̂_i·s², a_i)`` with
        ``q̂_i = q/q_i`` (keys are per level because ``q`` shrinks at
        every :meth:`mod_switch`).
        """
        params = self.params
        secret = self._ternary()
        s_field = to_field_matrix(secret.reshape(1, -1))[0]
        s_sq = self._conv_broadcast(s_field.reshape(1, -1), s_field)[0]
        if not params.is_rns:
            digits = -(-64 // params.relin_base)  # ceil(64 / base)
            a_rows = self._uniform_field(digits)
            noises = self._noise_signed(digits)
            a_s = self._conv_broadcast(a_rows, s_field)
            keys = []
            for j in range(digits):
                body = vadd(
                    to_field_array(
                        [params.t * int(e) for e in noises[j]]
                    ),
                    vmul_scalar(s_sq, 1 << (j * params.relin_base)),
                )
                keys.append((vsub(body, a_s[j]), a_rows[j]))
            relin = RelinKeys(params, {1: tuple(keys)})
            return RLWEKeyPair(secret=secret, params=params, relin=relin)

        # RNS: s² as the exact (small) signed integer polynomial, then
        # per-level key material.
        s_sq_int = _centered_lift(s_sq)
        levels: Dict[int, Tuple[Tuple[np.ndarray, np.ndarray], ...]] = {}
        for level in range(2, params.level_count + 1):
            primes = params.rns_primes[:level]
            q = self.params.modulus(level)
            a_rows = self._uniform_channels(level, count=level)
            a_s = self._channel_reduce(
                self._conv_broadcast(a_rows, s_field),
                self._prime_column(level, repeat=level),
            )
            keys = []
            for i in range(level):
                qhat = q // primes[i]
                noise = self._noise_signed(1)[0]
                k0 = np.empty((level, params.n), dtype=np.uint64)
                for j, prime in enumerate(primes):
                    body = (
                        params.t * noise
                        + (qhat % prime) * s_sq_int
                        - a_s[i * level + j].astype(np.int64)
                    )
                    k0[j] = (body % prime).astype(np.uint64)
                keys.append((k0, a_rows[i * level : (i + 1) * level]))
            levels[level] = tuple(keys)
        relin = RelinKeys(params, levels)
        return RLWEKeyPair(secret=secret, params=params, relin=relin)

    # -- encryption --------------------------------------------------------

    def _check_messages(
        self, messages: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        params = self.params
        checked = [list(message) for message in messages]
        for message in checked:
            if len(message) != params.n:
                raise ValueError(
                    f"message must have {params.n} coefficients"
                )
            if any(not 0 <= m < params.t for m in message):
                raise ValueError("message coefficients must lie in [0, t)")
        return checked

    def encrypt(self, key, message: Sequence[int]) -> RLWECiphertext:
        """Encrypt a length-n message polynomial over ``Z_t``.

        ``c0 = -(a·s) + m + t·e``, ``c1 = a`` (LSB encoding).  ``key``
        is an :class:`RLWEKeyPair` or a legacy mod-``p`` secret vector.
        """
        return self.encrypt_many(key, [message])[0]

    def decrypt(self, key, ct: RLWECiphertext) -> List[int]:
        """Recover the message: centered phase lift, reduced mod ``t``."""
        return self.decrypt_many(key, [ct])[0]

    def encrypt_many(
        self, key, messages: Sequence[Sequence[int]]
    ) -> List[RLWECiphertext]:
        """Encrypt a batch of message polynomials in one NTT pass.

        Semantically a loop of :meth:`encrypt` (fresh randomness per
        ciphertext), but all ``a·s`` ring products run through a single
        batched pass against one signed-secret row (RNS channels ride
        the same batch axis).
        """
        params = self.params
        messages = self._check_messages(messages)
        if not messages:
            return []
        batch = len(messages)
        noise = self._noise_signed(batch)
        payload = np.array(messages, dtype=np.int64) + params.t * noise
        secret = self._secret_for(key)

        if not params.is_rns:
            a = self._uniform_field(batch)
            a_s = self._conv_broadcast(a, secret)
            c0 = vsub(to_field_matrix(payload), a_s)
            return [
                RLWECiphertext(c0=c0[i], c1=a[i], params=params)
                for i in range(batch)
            ]

        level = params.level_count
        a = self._uniform_channels(level, count=batch)
        prime_col = self._prime_column(level, repeat=batch)
        a_s = self._channel_reduce(self._conv_broadcast(a, secret), prime_col)
        payload_rows = np.repeat(payload, level, axis=0)
        c0 = (
            (payload_rows - a_s.astype(np.int64)) % prime_col
        ).astype(np.uint64)
        return [
            RLWECiphertext(
                c0=c0[i * level : (i + 1) * level],
                c1=a[i * level : (i + 1) * level],
                params=params,
            )
            for i in range(batch)
        ]

    def _check_ciphertexts(
        self, cts: Sequence[RLWECiphertext]
    ) -> List[RLWECiphertext]:
        cts = list(cts)
        for ct in cts:
            if ct.params != self.params:
                raise ValueError("parameter mismatch")
            if ct.level != cts[0].level:
                raise ValueError("ciphertexts at different levels")
        return cts

    def _phase_rows(self, key, cts: Sequence[RLWECiphertext]) -> np.ndarray:
        """Stacked phases ``c0 + (c1 + c2·s)·s`` for a batch (``c2``
        only when present): each product is one pass of every
        (channel) row against the single signed-secret row."""
        secret = self._secret_for(key)
        primes = None
        if self.params.is_rns:
            primes = self._prime_column(cts[0].level, repeat=len(cts))

        def mac(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
            """``acc + rows·s`` in the ciphertext ring."""
            product = self._conv_broadcast(rows, secret)
            if primes is None:
                return vadd(acc, product)
            product = self._channel_reduce(product, primes)
            return (acc + product) % primes.astype(np.uint64)

        c1 = np.vstack([ct.c1 for ct in cts])
        if any(ct.c2 is not None for ct in cts):
            c2 = [
                np.zeros_like(ct.c1) if ct.c2 is None else ct.c2
                for ct in cts
            ]
            c1 = mac(c1, np.vstack(c2))
        return mac(np.vstack([ct.c0 for ct in cts]), c1)

    def _crt_lift(self, rows: np.ndarray, level: int) -> List[List[int]]:
        """CRT-recombine ``(batch·level, n)`` channels to integers mod
        ``q`` (one Python-int row per ciphertext)."""
        params = self.params
        primes = params.rns_primes[:level]
        q = params.modulus(level)
        coefs = []
        for i, prime in enumerate(primes):
            qhat = q // prime
            coefs.append(qhat * pow(qhat % prime, -1, prime) % q)
        batch = rows.shape[0] // level
        out = []
        for b in range(batch):
            chunk = rows[b * level : (b + 1) * level]
            row = []
            for j in range(params.n):
                x = 0
                for i in range(level):
                    x += int(chunk[i, j]) * coefs[i]
                row.append(x % q)
            out.append(row)
        return out

    def decrypt_many(
        self, key, cts: Sequence[RLWECiphertext]
    ) -> List[List[int]]:
        """Decrypt a batch of ciphertexts in one NTT pass.

        Degree-2 ciphertexts (fresh :meth:`tensor` outputs) decrypt
        directly via the ``c2·s²`` term — relinearization is a
        performance transform, not a decryption requirement.
        """
        params = self.params
        cts = self._check_ciphertexts(cts)
        if not cts:
            return []
        phase = self._phase_rows(key, cts)
        if not params.is_rns:
            return [
                [
                    (
                        int(v) - P if int(v) > P >> 1 else int(v)
                    ) % params.t
                    for v in row
                ]
                for row in phase
            ]
        level = cts[0].level
        q = params.modulus(level)
        lifted = self._crt_lift(phase, level)
        return [
            [(x - q if x > q >> 1 else x) % params.t for x in row]
            for row in lifted
        ]

    # -- homomorphic operations ---------------------------------------------

    def add(self, x: RLWECiphertext, y: RLWECiphertext) -> RLWECiphertext:
        """Homomorphic addition of message polynomials (mod t)."""
        if x.params != y.params:
            raise ValueError("parameter mismatch")
        if x.level != y.level or x.degree != y.degree:
            raise ValueError("ciphertexts at different levels or degrees")
        if not self.params.is_rns:
            return RLWECiphertext(
                c0=vadd(x.c0, y.c0),
                c1=vadd(x.c1, y.c1),
                params=x.params,
                c2=(
                    vadd(x.c2, y.c2) if x.c2 is not None else None
                ),
                level=x.level,
            )
        primes = self._primes[: x.level, np.newaxis].astype(np.uint64)
        return RLWECiphertext(
            c0=(x.c0 + y.c0) % primes,
            c1=(x.c1 + y.c1) % primes,
            params=x.params,
            c2=((x.c2 + y.c2) % primes if x.c2 is not None else None),
            level=x.level,
        )

    def multiply_plain(
        self, ct: RLWECiphertext, plain: Sequence[int]
    ) -> RLWECiphertext:
        """Multiply by an *unscaled* plaintext polynomial over ``Z_t``.

        Noise grows by a factor ~``t·n``; suitable for small constants
        and masks (the typical evaluation in encrypted statistics).
        """
        return self.multiply_plain_many([ct], [plain])[0]

    def multiply_plain_many(
        self,
        cts: Sequence[RLWECiphertext],
        plains: Sequence[Sequence[int]],
    ) -> List[RLWECiphertext]:
        """Batched plaintext-by-ciphertext products, one per pair.

        Every ``c0``, ``c1`` and plaintext polynomial is forward-
        transformed exactly once (each plaintext spectrum reused
        against both ciphertext halves — and across every residue
        channel in RNS mode, since ``Z_t`` coefficients are the same
        residues in every channel); bit-identical to looping
        :meth:`multiply_plain`.
        """
        cts = list(cts)
        plains = [list(plain) for plain in plains]
        if len(cts) != len(plains):
            raise ValueError("one plaintext polynomial per ciphertext")
        for ct, plain in zip(cts, plains):
            if len(plain) != ct.params.n:
                raise ValueError("plaintext length mismatch")
        if not cts:
            return []
        self._check_ciphertexts(cts)
        params = self.params
        batch = len(cts)
        polys = to_field_matrix(plains)

        if not params.is_rns:
            stacked = np.vstack(
                [
                    np.vstack([ct.c0 for ct in cts]),
                    np.vstack([ct.c1 for ct in cts]),
                ]
            )
            spectra = self._transform_rows(np.vstack([stacked, polys]))
            ct_spectra = spectra[: 2 * batch]
            plain_spectra = spectra[2 * batch :]
            products = self._transform_rows(
                vmul(
                    ct_spectra, np.vstack([plain_spectra, plain_spectra])
                ),
                inverse=True,
            )
            return [
                RLWECiphertext(
                    c0=products[i],
                    c1=products[batch + i],
                    params=cts[i].params,
                )
                for i in range(batch)
            ]

        level = cts[0].level
        rows = batch * level
        stacked = np.vstack(
            [
                np.vstack([ct.c0 for ct in cts]),
                np.vstack([ct.c1 for ct in cts]),
            ]
        )
        spectra = self._transform_rows(np.vstack([stacked, polys]))
        ct_spectra = spectra[: 2 * rows]
        plain_spectra = np.repeat(spectra[2 * rows :], level, axis=0)
        products = self._transform_rows(
            vmul(
                ct_spectra, np.vstack([plain_spectra, plain_spectra])
            ),
            inverse=True,
        )
        prime_col = self._prime_column(level, repeat=2 * batch)
        reduced = self._channel_reduce(products, prime_col)
        return [
            RLWECiphertext(
                c0=reduced[i * level : (i + 1) * level],
                c1=reduced[rows + i * level : rows + (i + 1) * level],
                params=cts[i].params,
                level=level,
            )
            for i in range(batch)
        ]

    # -- ciphertext-by-ciphertext multiplication -----------------------------

    def tensor(
        self, x: RLWECiphertext, y: RLWECiphertext
    ) -> RLWECiphertext:
        """The degree-2 ciphertext product ``(c0·d0, c0·d1 + c1·d0,
        c1·d1)`` (relinearize to return to two components)."""
        return self.tensor_many([(x, y)])[0]

    def tensor_many(
        self, pairs: Sequence[Tuple[RLWECiphertext, RLWECiphertext]]
    ) -> List[RLWECiphertext]:
        """Batched tensor products: one 4-way spectrum-reuse pass.

        All ``c0/c1/d0/d1`` rows of every pair (times every residue
        channel) are forward-transformed in one batch; the cross term
        ``c0·d1 + c1·d0`` sums in the spectrum, so each pair (channel)
        needs three inverse rows.  RNS operands are centered first,
        which keeps that sum within ``(p − 1)/2``.
        """
        pairs = list(pairs)
        if not pairs:
            return []
        xs = self._check_ciphertexts([x for x, _ in pairs])
        ys = self._check_ciphertexts([y for _, y in pairs])
        if xs[0].level != ys[0].level:
            raise ValueError("ciphertexts at different levels")
        for ct in (*xs, *ys):
            if ct.c2 is not None:
                raise ValueError(
                    "tensor operands must be degree-1 ciphertexts — "
                    "relinearize first"
                )
        params = self.params
        level = xs[0].level if params.is_rns else 1
        batch = len(pairs)
        stacked = np.vstack(
            [x.c0 for x in xs] + [x.c1 for x in xs]
            + [y.c0 for y in ys] + [y.c1 for y in ys]
        )
        if params.is_rns:
            stacked = _centered_field(
                stacked, self._prime_column(level, repeat=4 * batch)
            )
        c0s, c1s, d0s, d1s = np.split(self._transform_rows(stacked), 4)
        cross = vadd(vmul(c0s, d1s), vmul(c1s, d0s))
        products = self._transform_rows(
            np.vstack([vmul(c0s, d0s), cross, vmul(c1s, d1s)]), inverse=True
        )
        if params.is_rns:
            products = self._channel_reduce(
                products, self._prime_column(level, repeat=3 * batch)
            )
        e0, e1, e2 = (
            part.reshape(batch, *xs[0].c0.shape)
            for part in np.split(products, 3)
        )
        return [
            RLWECiphertext(
                c0=e0[i], c1=e1[i], params=params, c2=e2[i], level=xs[0].level
            )
            for i in range(batch)
        ]

    @staticmethod
    def _as_relin(key) -> RelinKeys:
        if isinstance(key, RLWEKeyPair):
            return key.relin
        if isinstance(key, RelinKeys):
            return key
        raise TypeError(
            "expected an RLWEKeyPair or RelinKeys; legacy secret "
            "vectors carry no relinearization keys — use keygen()"
        )

    def relinearize(self, key, ct: RLWECiphertext) -> RLWECiphertext:
        """Fold a degree-2 ciphertext back to ``(c0, c1)`` via key
        switching (base-decomposition digits in single-modulus mode,
        per-channel RNS decomposition otherwise)."""
        return self.relinearize_many(key, [ct])[0]

    def relinearize_many(
        self, key, cts: Sequence[RLWECiphertext]
    ) -> List[RLWECiphertext]:
        """Batched key switching: each digit and key row is
        forward-transformed once, and digit products sum in the spectrum
        before the inverse — all of them in single-modulus mode, groups
        of :attr:`RLWEParams.relin_group` against centered keys in RNS
        mode."""
        cts = self._check_ciphertexts(cts)
        if not cts:
            return []
        for ct in cts:
            if ct.c2 is None:
                raise ValueError(
                    "ciphertext has no degree-2 component to relinearize"
                )
        relin = self._as_relin(key)
        if relin.params != self.params:
            raise ValueError("relinearization keys for different params")
        params = self.params
        n = params.n
        batch = len(cts)
        level = cts[0].level
        keys = relin.for_level(level)
        if params.is_rns:
            primes = self._primes[:level, np.newaxis]
            q = params.modulus(level)
            inv_qhat = np.array(
                [[pow(q // p % p, -1, p)] for p in params.rns_primes[:level]],
                dtype=np.int64,
            )
            # CRT digits d_i = [c2_i·(q/q_i)^{-1}]_{q_i}, each exact
            # against every channel's key without reduction mod q_j.
            digits = np.stack(
                [ct.c2.astype(np.int64) * inv_qhat % primes for ct in cts]
            ).astype(np.uint64)
            key_rows = _centered_field(np.array(keys), primes)
            group = params.relin_group
        else:
            base = params.relin_base
            mask = np.uint64((1 << base) - 1)
            c2 = np.vstack([ct.c2 for ct in cts])
            digits = np.stack(
                [(c2 >> np.uint64(j * base)) & mask for j in range(len(keys))],
                axis=1,
            )
            key_rows = np.array(keys)[:, :, np.newaxis]
            group = len(keys)
        # digits: (batch, digit, n); key_rows: (digit, k0/k1, channel, n).
        spectra = self._transform_rows(
            np.vstack([digits.reshape(-1, n), key_rows.reshape(-1, n)])
        )
        count = digits.shape[1]
        d_spec = spectra[: batch * count].reshape(batch, count, 1, 1, n)
        terms = vmul(d_spec, spectra[batch * count :].reshape(key_rows.shape))
        sums = []
        for start in range(0, count, group):
            acc = terms[:, start]
            for i in range(start + 1, min(start + group, count)):
                acc = vadd(acc, terms[:, i])
            sums.append(acc)
        products = self._transform_rows(
            np.stack(sums, axis=1).reshape(-1, n), inverse=True
        ).reshape(batch, len(sums), 2, -1, n)
        c01 = np.stack([np.stack([ct.c0, ct.c1]) for ct in cts])
        if params.is_rns:
            out = (
                (_centered_lift(products) % primes).sum(axis=1)
                + c01.astype(np.int64)
            ) % primes
            out = out.astype(np.uint64)
        else:
            out = vadd(c01, products[:, 0, :, 0])
        return [
            RLWECiphertext(c0=c[0], c1=c[1], params=params, level=level)
            for c in out
        ]

    def multiply(self, key, x: RLWECiphertext, y: RLWECiphertext) -> RLWECiphertext:
        """Ciphertext-by-ciphertext product: tensor + relinearize.

        ``key`` is an :class:`RLWEKeyPair` or bare :class:`RelinKeys`
        (the evaluator never needs the secret).
        """
        return self.multiply_many(key, [(x, y)])[0]

    def multiply_many(
        self,
        key,
        pairs: Sequence[Tuple[RLWECiphertext, RLWECiphertext]],
    ) -> List[RLWECiphertext]:
        """Batched ciphertext products: one tensor pass + one
        relinearization pass over the whole batch (every ring product
        rides the engine's batch axis)."""
        pairs = list(pairs)
        if not pairs:
            return []
        return self.relinearize_many(key, self.tensor_many(pairs))

    # -- modulus switching ---------------------------------------------------

    def mod_switch(self, ct: RLWECiphertext) -> RLWECiphertext:
        """Drop the last active RNS prime (BGV modulus switching).

        Produces a ciphertext at level ``k − 1`` whose noise is scaled
        down by ``~q_k``: each component becomes ``(c − δ)/q_k`` with
        ``δ ≡ c (mod q_k)``, ``δ ≡ 0 (mod t)`` and ``|δ| ≤ t·q_k/2``
        — exact division, plaintext preserved because every chain
        prime is ≡ 1 (mod t).
        """
        return self.mod_switch_many([ct])[0]

    def mod_switch_many(
        self, cts: Sequence[RLWECiphertext]
    ) -> List[RLWECiphertext]:
        """Batched :meth:`mod_switch` (vectorized, no ring products)."""
        cts = self._check_ciphertexts(cts)
        if not cts:
            return []
        params = self.params
        if not params.is_rns:
            raise ValueError(
                "modulus switching requires RNS parameters (rns_primes)"
            )
        level = cts[0].level
        if level < 2:
            raise ValueError("already at the last level of the chain")
        q_last = params.rns_primes[level - 1]
        t_inv = pow(params.t % q_last, -1, q_last)
        new_level = level - 1
        primes = self._primes[:new_level].reshape(-1, 1)
        q_last_inv = np.array(
            [pow(q_last % int(p), -1, int(p)) for p in primes[:, 0]],
            dtype=np.int64,
        ).reshape(-1, 1)

        def switch(component: np.ndarray) -> np.ndarray:
            last = component[level - 1].astype(np.int64)
            eps = last * np.int64(t_inv) % np.int64(q_last)
            eps = np.where(eps > q_last // 2, eps - q_last, eps)
            delta = np.int64(params.t) * eps  # |δ| ≤ t·q_last/2
            head = component[:new_level].astype(np.int64)
            return (
                (head - delta[np.newaxis, :]) % primes * q_last_inv % primes
            ).astype(np.uint64)

        return [
            RLWECiphertext(
                c0=switch(ct.c0),
                c1=switch(ct.c1),
                params=params,
                c2=(switch(ct.c2) if ct.c2 is not None else None),
                level=new_level,
            )
            for ct in cts
        ]

    # -- diagnostics ---------------------------------------------------------

    def noise_budget(self, key, ct: RLWECiphertext) -> float:
        """Remaining noise headroom in bits: ``log2((q/2) / |v|_∞)``
        where ``v`` is the centered phase ``m + t·e``.  Decryption is
        reliable while the budget is positive; it shrinks with every
        homomorphic operation and is (partially) restored relative to
        the shrunken modulus by :meth:`mod_switch`."""
        params = self.params
        phase = self._phase_rows(key, [ct])
        if not params.is_rns:
            q = P
            magnitude = max(
                1, int(np.max(np.abs(_centered_lift(phase))))
            )
        else:
            q = params.modulus(ct.level)
            lifted = self._crt_lift(phase, ct.level)[0]
            magnitude = max(
                1, max(abs(x - q if x > q >> 1 else x) for x in lifted)
            )
        return math.log2(q / 2) - math.log2(magnitude)


__all__ = [
    "RLWE",
    "RLWEParams",
    "RLWECiphertext",
    "RLWEKeyPair",
    "RelinKeys",
    "default_rns_primes",
]

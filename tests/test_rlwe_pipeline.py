"""The full RLWE homomorphic pipeline, checked against schoolbook truth.

Acceptance invariants of the ciphertext×ciphertext pipeline:

- tensor + relinearization decrypts to the schoolbook negacyclic
  product of the plaintexts (hypothesis-driven, single-modulus and
  RNS);
- BGV modulus switching preserves the plaintext and restores relative
  noise budget, enabling depth ≥ 2;
- the RNS channel arithmetic is the CRT image of single-modulus
  arithmetic over ``Z_q`` (big-int cross-check);
- the pipeline is bit-identical across ``software``, ``software-mp``
  and ``hw-model`` backends, with hw-model reporting cycle counts for
  the RLWE ring products, and bit-identical to a per-product reference
  formulation that transforms every operand once per product;
- each batched operation sends a pinned number of rows through the
  engine backend's transform;
- both `engine.fhe` bindings satisfy the :class:`HEScheme` protocol;
- ``RLWEParams`` has frozen-hash/pickle parity with
  ``ExecutionConfig``.
"""

import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Engine, ExecutionConfig
from repro.fhe.dghv import DGHV
from repro.fhe.ops import HEScheme
from repro.fhe.params import TOY
from repro.fhe.rlwe import (
    RLWE,
    RLWECiphertext,
    RLWEKeyPair,
    RLWEParams,
    RelinKeys,
    default_rns_primes,
    _is_prime,
)
from repro.field.solinas import P
from repro.field.vector import to_field_matrix, vadd, vsub
from repro.ntt.negacyclic import negacyclic_convolution_many


def school_negacyclic(a, b, modulus):
    """Schoolbook product in ``Z_modulus[x]/(x^n + 1)`` (exact ints)."""
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] += a[i] * b[j]
            else:
                out[k - n] -= a[i] * b[j]
    return [x % modulus for x in out]


def random_message(rng, params):
    return [rng.randrange(params.t) for _ in range(params.n)]


SINGLE = RLWEParams(n=32, t=17, noise_bound=4)
RNS = RLWEParams(
    n=32, t=17, noise_bound=4, rns_primes=default_rns_primes(32, 17, 3)
)


# -- hypothesis round trips -------------------------------------------------


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_multiply_relinearize_matches_schoolbook_single(seed):
    rng = random.Random(seed)
    scheme = RLWE(SINGLE, rng=random.Random(seed ^ 0x5EED))
    keys = scheme.keygen()
    m1 = random_message(rng, SINGLE)
    m2 = random_message(rng, SINGLE)
    c1, c2 = scheme.encrypt_many(keys, [m1, m2])
    truth = school_negacyclic(m1, m2, SINGLE.t)
    tensored = scheme.tensor(c1, c2)
    assert tensored.degree == 3
    assert scheme.decrypt(keys, tensored) == truth
    relinearized = scheme.relinearize(keys, tensored)
    assert relinearized.degree == 2
    assert scheme.decrypt(keys, relinearized) == truth
    # multiply == tensor ∘ relinearize, and only needs the evaluation
    # keys (never the secret).
    assert scheme.decrypt(keys, scheme.multiply(keys.relin, c1, c2)) == truth


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_multiply_and_mod_switch_match_schoolbook_rns(seed):
    rng = random.Random(seed)
    scheme = RLWE(RNS, rng=random.Random(seed ^ 0xC4A7))
    keys = scheme.keygen()
    m1 = random_message(rng, RNS)
    m2 = random_message(rng, RNS)
    c1, c2 = scheme.encrypt_many(keys, [m1, m2])
    truth = school_negacyclic(m1, m2, RNS.t)
    product = scheme.multiply(keys, c1, c2)
    assert scheme.decrypt(keys, product) == truth
    switched = scheme.mod_switch(product)
    assert switched.level == product.level - 1
    assert scheme.decrypt(keys, switched) == truth


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_mod_switch_preserves_fresh_plaintexts(seed):
    rng = random.Random(seed)
    scheme = RLWE(RNS, rng=random.Random(seed + 7))
    keys = scheme.keygen()
    message = random_message(rng, RNS)
    ct = scheme.encrypt(keys, message)
    while ct.level > 1:
        ct = scheme.mod_switch(ct)
        assert scheme.decrypt(keys, ct) == message


# -- depth and noise management --------------------------------------------


def test_depth_two_with_modulus_switching():
    """The acceptance-criterion circuit: ((m1·m2) switched) · m3."""
    scheme = RLWE(RNS, rng=random.Random(0xDEE9))
    keys = scheme.keygen()
    rng = random.Random(21)
    m1, m2, m3 = (random_message(rng, RNS) for _ in range(3))
    c1, c2, c3 = scheme.encrypt_many(keys, [m1, m2, m3])
    level1 = scheme.mod_switch(scheme.multiply(keys, c1, c2))
    c3_level = scheme.mod_switch(c3)
    deep = scheme.multiply(keys, level1, c3_level)
    truth = school_negacyclic(
        school_negacyclic(m1, m2, RNS.t), m3, RNS.t
    )
    assert scheme.decrypt(keys, deep) == truth
    assert scheme.noise_budget(keys, deep) > 0


def test_noise_budget_shrinks_with_depth_and_recovers_relatively():
    scheme = RLWE(RNS, rng=random.Random(77))
    keys = scheme.keygen()
    rng = random.Random(78)
    c1 = scheme.encrypt(keys, random_message(rng, RNS))
    c2 = scheme.encrypt(keys, random_message(rng, RNS))
    fresh = scheme.noise_budget(keys, c1)
    product = scheme.multiply(keys, c1, c2)
    after_mult = scheme.noise_budget(keys, product)
    assert after_mult < fresh
    # Switching scales noise down by ~q_k: the *absolute* noise
    # magnitude must shrink enough that the next multiply fits.
    switched = scheme.mod_switch(product)
    q_dropped = math.log2(RNS.rns_primes[product.level - 1])
    after_switch = scheme.noise_budget(keys, switched)
    # Budget is relative to the (now smaller) modulus: it must not
    # collapse — switching costs at most a few bits of budget.
    assert after_switch > after_mult - 8
    # Noise growth of one multiplication stays within the analytic
    # relinearization bound (~ n·q_max·t·noise_bound·k plus tensor
    # growth): conservatively, budget loss under 2·log2(n·t·q_max·k).
    q_max = max(RNS.rns_primes)
    bound = 2 * math.log2(RNS.n * RNS.t * q_max * len(RNS.rns_primes))
    assert fresh - after_mult < bound


def test_multiply_at_last_level_is_rejected():
    scheme = RLWE(RNS, rng=random.Random(5))
    keys = scheme.keygen()
    rng = random.Random(6)
    ct = scheme.encrypt(keys, random_message(rng, RNS))
    while ct.level > 1:
        ct = scheme.mod_switch(ct)
    with pytest.raises(ValueError, match="no relinearization key"):
        scheme.multiply(keys, ct, ct)


def test_mod_switch_requires_rns():
    scheme = RLWE(SINGLE, rng=random.Random(7))
    keys = scheme.keygen()
    ct = scheme.encrypt(keys, [0] * SINGLE.n)
    with pytest.raises(ValueError, match="RNS"):
        scheme.mod_switch(ct)


# -- RNS ≡ single-modulus (CRT image) --------------------------------------


def _crt_lift_component(component, primes):
    """Lift ``(k, n)`` residue rows to integers mod ``q = Π primes``."""
    q = math.prod(primes)
    out = []
    for j in range(component.shape[1]):
        x = 0
        for i, prime in enumerate(primes):
            qhat = q // prime
            x += int(component[i, j]) * qhat * pow(qhat % prime, -1, prime)
        out.append(x % q)
    return out


def test_rns_channels_are_crt_image_of_single_modulus_arithmetic():
    """Decrypting via per-channel arithmetic must agree with lifting
    the ciphertext to ``Z_q`` and running schoolbook big-int ring
    arithmetic there — the CRT isomorphism, checked end to end."""
    scheme = RLWE(RNS, rng=random.Random(0x11CE))
    keys = scheme.keygen()
    rng = random.Random(91)
    m1 = random_message(rng, RNS)
    m2 = random_message(rng, RNS)
    c1, c2 = scheme.encrypt_many(keys, [m1, m2])
    product = scheme.multiply(keys, c1, c2)
    primes = RNS.rns_primes[: product.level]
    q = math.prod(primes)
    c0 = _crt_lift_component(product.c0, primes)
    c1_int = _crt_lift_component(product.c1, primes)
    secret = [int(v) for v in keys.secret]
    phase = [
        (a + b) % q
        for a, b in zip(c0, school_negacyclic(c1_int, secret, q))
    ]
    centered = [x - q if x > q // 2 else x for x in phase]
    assert [x % RNS.t for x in centered] == school_negacyclic(
        m1, m2, RNS.t
    )


# -- batched forms ----------------------------------------------------------


def test_multiply_many_bit_identical_to_loop():
    scheme = RLWE(RNS, rng=random.Random(0xBA7C4))
    keys = scheme.keygen()
    rng = random.Random(12)
    cts = scheme.encrypt_many(
        keys, [random_message(rng, RNS) for _ in range(6)]
    )
    pairs = [(cts[i], cts[i + 1]) for i in range(0, 6, 2)]
    batched = scheme.multiply_many(keys, pairs)
    for (x, y), got in zip(pairs, batched):
        want = scheme.relinearize(keys, scheme.tensor(x, y))
        assert np.array_equal(got.c0, want.c0)
        assert np.array_equal(got.c1, want.c1)
    switched = scheme.mod_switch_many(batched)
    for ct, want in zip(switched, batched):
        assert np.array_equal(
            ct.c0, scheme.mod_switch(want).c0
        )
    assert scheme.multiply_many(keys, []) == []
    assert scheme.mod_switch_many([]) == []
    assert scheme.tensor_many([]) == []
    assert scheme.relinearize_many(keys, []) == []


def test_tensor_rejects_degree_two_operands():
    scheme = RLWE(SINGLE, rng=random.Random(3))
    keys = scheme.keygen()
    ct = scheme.encrypt(keys, [1] * SINGLE.n)
    tensored = scheme.tensor(ct, ct)
    with pytest.raises(ValueError, match="degree-1"):
        scheme.tensor(tensored, ct)
    with pytest.raises(ValueError, match="degree-2"):
        scheme.relinearize(keys, ct)


# -- backend bit-identity ---------------------------------------------------


def _lift(rows):
    """Centered integers of canonical mod-``p`` values."""
    return np.where(
        rows > P >> 1,
        -(np.uint64(P) - rows).astype(np.int64),
        rows.astype(np.int64),
    )


class ReferenceRLWE(RLWE):
    """The per-product formulation, kept as the bit-identity reference.

    One ``negacyclic_convolution_many`` per product: the secret (and
    ``s²``) reduced into every channel and tiled per row, every CRT
    digit reduced mod each channel before its own key product, and four
    tensor inverses.  Draws randomness in the same order as
    :class:`RLWE`, so both produce the same bits from the same seed.
    """

    def _conv(self, a, b, primes=None):
        """Row-wise products; exact per channel when ``primes`` is a
        column of channel primes."""
        product = negacyclic_convolution_many(a, b)
        if primes is None:
            return product
        return (_lift(product) % primes).astype(np.uint64)

    def _column(self, level, repeat):
        return np.array(self.params.rns_primes[:level] * repeat).reshape(-1, 1)

    def _channel_rows(self, signed, level, repeat):
        """A signed polynomial reduced into each channel, tiled."""
        residues = signed % np.array(self.params.rns_primes[:level])[:, None]
        return np.tile(residues.astype(np.uint64), (repeat, 1))

    def keygen(self):
        params = self.params
        secret = self._ternary()
        s_field = to_field_matrix(secret.reshape(1, -1))
        s_sq = negacyclic_convolution_many(s_field, s_field)[0]
        if not params.is_rns:
            digits = -(-64 // params.relin_base)
            a_rows = self._uniform_field(digits)
            noises = self._noise_signed(digits)
            a_s = self._conv(a_rows, np.repeat(s_field, digits, axis=0))
            keys = []
            for j in range(digits):
                scale = 1 << (j * params.relin_base)
                k0 = [
                    (params.t * int(e) + int(sq) * scale - int(v)) % P
                    for e, sq, v in zip(noises[j], s_sq, a_s[j])
                ]
                keys.append((np.array(k0, dtype=np.uint64), a_rows[j]))
            relin = RelinKeys(params, {1: tuple(keys)})
            return RLWEKeyPair(secret=secret, params=params, relin=relin)
        s_sq_int = _lift(s_sq)
        levels = {}
        for level in range(2, params.level_count + 1):
            primes = params.rns_primes[:level]
            q = params.modulus(level)
            a_rows = self._uniform_channels(level, count=level)
            a_s = self._conv(
                a_rows,
                self._channel_rows(secret, level, level),
                self._column(level, level),
            )
            keys = []
            for i in range(level):
                noise = self._noise_signed(1)[0]
                k0 = np.array(
                    [
                        (
                            params.t * noise
                            + (q // primes[i] % prime) * s_sq_int
                            - a_s[i * level + j].astype(np.int64)
                        )
                        % prime
                        for j, prime in enumerate(primes)
                    ]
                ).astype(np.uint64)
                keys.append((k0, a_rows[i * level : (i + 1) * level]))
            levels[level] = tuple(keys)
        return RLWEKeyPair(
            secret=secret, params=params, relin=RelinKeys(params, levels)
        )

    def encrypt_many(self, key, messages):
        params = self.params
        messages = self._check_messages(messages)
        batch = len(messages)
        noise = self._noise_signed(batch)
        payload = np.array(messages, dtype=np.int64) + params.t * noise
        if not params.is_rns:
            a = self._uniform_field(batch)
            s_rows = np.tile(key.secret_field, (batch, 1))
            c0 = vsub(to_field_matrix(payload), self._conv(a, s_rows))
            return [
                RLWECiphertext(c0=c0[i], c1=a[i], params=params)
                for i in range(batch)
            ]
        level = params.level_count
        a = self._uniform_channels(level, count=batch)
        primes = self._column(level, batch)
        s_rows = self._channel_rows(key.secret, level, batch)
        a_s = self._conv(a, s_rows, primes)
        c0 = (
            (np.repeat(payload, level, axis=0) - a_s.astype(np.int64)) % primes
        ).astype(np.uint64)
        return [
            RLWECiphertext(
                c0=c0[i * level : (i + 1) * level],
                c1=a[i * level : (i + 1) * level],
                params=params,
            )
            for i in range(batch)
        ]

    def _phase_rows(self, key, cts):
        params = self.params
        batch, level = len(cts), cts[0].level
        s_field = to_field_matrix(key.secret.reshape(1, -1))
        terms = [(np.vstack([ct.c1 for ct in cts]), s_field)]
        if any(ct.c2 is not None for ct in cts):
            c2 = [
                np.zeros_like(ct.c1) if ct.c2 is None else ct.c2
                for ct in cts
            ]
            s_sq = negacyclic_convolution_many(s_field, s_field)
            terms.append((np.vstack(c2), s_sq))
        phase = np.vstack([ct.c0 for ct in cts])
        for rows, poly in terms:
            if not params.is_rns:
                tiled = np.repeat(poly, batch, axis=0)
                phase = vadd(phase, self._conv(rows, tiled))
                continue
            primes = self._column(level, batch)
            channel = self._channel_rows(_lift(poly)[0], level, batch)
            term = self._conv(rows, channel, primes)
            phase = (phase + term) % primes.astype(np.uint64)
        return phase

    def tensor_many(self, pairs):
        params = self.params
        xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
        level = xs[0].level if params.is_rns else 1
        primes = self._column(level, len(pairs)) if params.is_rns else None

        def product(left, right):
            return self._conv(
                np.vstack([getattr(x, left) for x in xs]),
                np.vstack([getattr(y, right) for y in ys]),
                primes,
            )

        p01, p10 = product("c0", "c1"), product("c1", "c0")
        if params.is_rns:
            cross = (p01 + p10) % primes.astype(np.uint64)
        else:
            cross = vadd(p01, p10)
        shape = (len(pairs),) + xs[0].c0.shape
        e0 = product("c0", "c0").reshape(shape)
        e2 = product("c1", "c1").reshape(shape)
        e1 = cross.reshape(shape)
        return [
            RLWECiphertext(
                c0=e0[i], c1=e1[i], params=params, c2=e2[i], level=xs[0].level
            )
            for i in range(len(pairs))
        ]

    def relinearize_many(self, key, cts):
        params = self.params
        relin = key.relin if isinstance(key, RLWEKeyPair) else key
        level = cts[0].level
        keys = relin.for_level(level)
        out = []
        for ct in cts:
            acc0, acc1 = ct.c0.copy(), ct.c1.copy()
            if not params.is_rns:
                mask = np.uint64((1 << params.relin_base) - 1)
                for j, (k0, k1) in enumerate(keys):
                    shift = np.uint64(j * params.relin_base)
                    digit = ((ct.c2 >> shift) & mask).reshape(1, -1)
                    acc0 = vadd(acc0, self._conv(digit, k0.reshape(1, -1))[0])
                    acc1 = vadd(acc1, self._conv(digit, k1.reshape(1, -1))[0])
                out.append(RLWECiphertext(c0=acc0, c1=acc1, params=params))
                continue
            primes = params.rns_primes[:level]
            q = params.modulus(level)
            for i, prime_i in enumerate(primes):
                inv = pow(q // prime_i % prime_i, -1, prime_i)
                digit = ct.c2[i].astype(np.int64) * inv % prime_i
                k0, k1 = keys[i]
                for j, prime in enumerate(primes):
                    row = (digit % prime).astype(np.uint64).reshape(1, -1)
                    col = np.array([[prime]])
                    for acc, k in ((acc0, k0), (acc1, k1)):
                        term = self._conv(row, k[j : j + 1], col)[0]
                        acc[j] = (acc[j] + term) % np.uint64(prime)
            out.append(
                RLWECiphertext(c0=acc0, c1=acc1, params=params, level=level)
            )
        return out


#: Chains the bit-identity and row-count tests cover: 3 and 5 primes
#: (the 5-prime spectral sum needs three groups), small primes where
#: one group covers every digit, and the single-modulus scheme.
CHAINS = {
    "3-prime": RLWEParams(
        n=64, t=17, noise_bound=4, rns_primes=default_rns_primes(64, 17, 3)
    ),
    "5-prime": RLWEParams(
        n=64, t=17, noise_bound=4, rns_primes=default_rns_primes(64, 17, 5)
    ),
    "small-primes": RLWEParams(
        n=64, t=17, noise_bound=4, rns_primes=(103, 137, 239)
    ),
    "single": RLWEParams(n=64, t=17, noise_bound=4),
}


def _depth_two(scheme, batch):
    """keygen → encrypt_many → multiply_many → mod_switch_many (RNS) →
    multiply_many → decrypt_many; every array produced, plus the
    plaintexts."""
    keys = scheme.keygen()
    rng = random.Random(15)
    messages = [random_message(rng, scheme.params) for _ in range(3 * batch)]
    cts = scheme.encrypt_many(keys, messages)
    left = scheme.multiply_many(
        keys, list(zip(cts[:batch], cts[batch : 2 * batch]))
    )
    right = cts[2 * batch :]
    if scheme.params.is_rns:
        switched = scheme.mod_switch_many(left + right)
        left, right = switched[:batch], switched[batch:]
    out = scheme.multiply_many(keys.relin, list(zip(left, right)))
    arrays = [keys.secret]
    for level in sorted(keys.relin.levels):
        arrays += [k for pair in keys.relin.levels[level] for k in pair]
    for ct in cts + left + right + out:
        arrays += [ct.c0, ct.c1]
    return arrays, scheme.decrypt_many(keys, out)


class TestBackendBitIdentity:
    PARAMS = RLWEParams(
        n=64, t=17, noise_bound=4, rns_primes=default_rns_primes(64, 17, 2)
    )

    def test_chains_group_as_documented(self):
        assert CHAINS["3-prime"].relin_group == 2
        assert CHAINS["5-prime"].relin_group == 2
        assert CHAINS["small-primes"].relin_group >= 3

    @pytest.mark.parametrize("chain", ["3-prime", "5-prime"])
    def test_exact_at_residue_extremes(self, chain):
        """Constant operands at the edges of ``[0, q_j)`` push each
        spectral sum to its bound; the passes must still match the
        per-product reference."""
        params = CHAINS[chain]
        level = params.level_count
        q = np.array(params.rns_primes, dtype=np.uint64)[:, None]
        fast, ref = RLWE(params), ReferenceRLWE(params)
        # Largest uncentered, largest centered, most negative centered.
        extremes = [q - 1, q // 2, q // 2 + 1]

        def const(values, rows=level):
            return np.repeat(values[:rows], params.n, axis=1)

        for a in extremes:
            for b in extremes:
                pair = (
                    RLWECiphertext(const(a), const(b), params),
                    RLWECiphertext(const(b), const(a), params),
                )
                got = fast.tensor_many([pair])[0]
                want = ref.tensor_many([pair])[0]
                for part in ("c0", "c1", "c2"):
                    assert np.array_equal(
                        getattr(got, part), getattr(want, part)
                    )
        # c2_i = −(q/q_i) mod q_i makes every CRT digit q_i − 1.
        modulus = params.modulus(level)
        qhat = [[modulus // p % p] for p in params.rns_primes]
        c2 = const(q - np.array(qhat, dtype=np.uint64))
        ct = RLWECiphertext(const(q - 1), const(q - 1), params, c2=c2)
        for key in extremes:
            keys = {
                lv: tuple((const(key, lv), const(key, lv)) for _ in range(lv))
                for lv in range(2, level + 1)
            }
            relin = RelinKeys(params, keys)
            got = fast.relinearize_many(relin, [ct])[0]
            want = ref.relinearize_many(relin, [ct])[0]
            assert np.array_equal(got.c0, want.c0)
            assert np.array_equal(got.c1, want.c1)

    @pytest.mark.parametrize("chain", sorted(CHAINS))
    def test_matches_per_product_reference_on_every_backend(self, chain):
        params = CHAINS[chain]
        want = {
            batch: _depth_two(
                ReferenceRLWE(params, rng=random.Random(314)), batch
            )
            for batch in (1, 5)
        }
        for backend in (None, "software", "software-mp", "hw-model"):
            engine = Engine(backend=backend) if backend else None
            try:
                for batch in (1, 5):
                    scheme = (
                        engine.fhe(params, rng=random.Random(314))
                        if engine
                        else RLWE(params, rng=random.Random(314))
                    )
                    arrays, plain = _depth_two(scheme, batch)
                    ref_arrays, ref_plain = want[batch]
                    assert plain == ref_plain, (backend, batch)
                    assert len(arrays) == len(ref_arrays)
                    for got, ref in zip(arrays, ref_arrays):
                        assert np.array_equal(got, ref), (backend, batch)
            finally:
                if engine:
                    engine.close()

    def _pipeline(self, backend):
        engine = Engine(config=ExecutionConfig(), backend=backend)
        try:
            scheme = engine.fhe(self.PARAMS, rng=random.Random(314))
            keys = scheme.keygen()
            rng = random.Random(15)
            m1 = random_message(rng, self.PARAMS)
            m2 = random_message(rng, self.PARAMS)
            c1, c2 = scheme.encrypt_many(keys, [m1, m2])
            product = scheme.multiply(keys, c1, c2)
            switched = scheme.mod_switch(product)
            report = engine.last_report
            plain = scheme.decrypt(keys, switched)
            return (
                (product.c0, product.c1, switched.c0, switched.c1),
                plain,
                report,
                school_negacyclic(m1, m2, self.PARAMS.t),
            )
        finally:
            engine.close()

    def test_software_mp_and_hw_model_match_software(self):
        base, plain, _, truth = self._pipeline("software")
        assert plain == truth
        for backend in ("software-mp", "hw-model"):
            arrays, other_plain, _, _ = self._pipeline(backend)
            assert other_plain == plain
            for a, b in zip(base, arrays):
                assert np.array_equal(a, b), backend

    def test_hw_model_reports_rlwe_ring_product_cycles(self):
        _, _, report, _ = self._pipeline("hw-model")
        assert report is not None
        total = report.total_cycles
        if callable(total):
            total = total()
        assert total > 0


# -- transform row counts ---------------------------------------------------


class TestTransformRowCounts:
    """Rows reaching the engine backend's ``transform`` per call, at
    batch ``B``, level ``L`` and group ``g`` (see the module docstring
    of :mod:`repro.fhe.rlwe`): a re-transformed operand shows up here
    before it shows up in a benchmark."""

    @staticmethod
    def _counted(monkeypatch, params):
        engine = Engine()
        rows = {False: 0, True: 0}
        transform = engine.backend.transform

        def counting(owner, plan, values, inverse=False):
            rows[inverse] += values.shape[0]
            return transform(owner, plan, values, inverse=inverse)

        monkeypatch.setattr(engine.backend, "transform", counting)
        scheme = engine.fhe(params, rng=random.Random(5))

        def delta(call, *args):
            before = dict(rows)
            result = call(*args)
            return result, tuple(rows[k] - before[k] for k in (False, True))

        return engine, scheme, delta

    @pytest.mark.parametrize("chain,batch", [
        ("3-prime", 1), ("3-prime", 4), ("5-prime", 2), ("small-primes", 3),
    ])
    def test_rns_rows_per_call(self, monkeypatch, chain, batch):
        params = CHAINS[chain]
        g = params.relin_group
        engine, scheme, delta = self._counted(monkeypatch, params)
        try:
            keys = scheme.keygen()
            rng = random.Random(6)
            messages = [random_message(rng, params) for _ in range(2 * batch)]
            cts, rows = delta(scheme.encrypt_many, keys, messages)
            level = params.level_count
            assert rows == (2 * batch * level + 1, 2 * batch * level)
            pairs = list(zip(cts[:batch], cts[batch:]))
            while level >= 2:
                B, L = batch, level
                out, rows = delta(scheme.multiply_many, keys.relin, pairs)
                assert rows == (
                    4 * B * L + B * L + 2 * L * L,
                    3 * B * L + 2 * B * L * -(-L // g),
                ), (B, L, g)
                _, rows = delta(scheme.decrypt_many, keys, out)
                assert rows == (B * L + 1, B * L)
                flat = [ct for pair in pairs for ct in pair]
                switched = scheme.mod_switch_many(flat)
                pairs = list(zip(switched[::2], switched[1::2]))
                level -= 1
        finally:
            engine.close()

    def test_single_modulus_rows_per_call(self, monkeypatch):
        params = CHAINS["single"]
        digits = -(-64 // params.relin_base)
        engine, scheme, delta = self._counted(monkeypatch, params)
        try:
            keys = scheme.keygen()
            rng = random.Random(7)
            B = 3
            messages = [random_message(rng, params) for _ in range(2 * B)]
            cts, rows = delta(scheme.encrypt_many, keys, messages)
            assert rows == (2 * B + 1, 2 * B)
            pairs = list(zip(cts[:B], cts[B:]))
            out, rows = delta(scheme.multiply_many, keys.relin, pairs)
            assert rows == (4 * B + B * digits + 2 * digits, 3 * B + 2 * B)
            _, rows = delta(scheme.decrypt_many, keys, out)
            assert rows == (B + 1, B)
        finally:
            engine.close()


# -- engine binding ---------------------------------------------------------


def test_engine_bound_scheme_routes_ring_products_through_backend():
    engine = Engine()
    scheme = engine.fhe(
        RLWEParams(n=64, t=17, noise_bound=4), rng=random.Random(1)
    )
    assert scheme.engine is engine
    free = RLWE(
        RLWEParams(n=64, t=17, noise_bound=4), rng=random.Random(1)
    )
    keys = scheme.keygen()
    keys_free = free.keygen()
    assert np.array_equal(keys.secret, keys_free.secret)
    rng = random.Random(2)
    message = [rng.randrange(17) for _ in range(64)]
    bound_ct = scheme.multiply(
        keys, *scheme.encrypt_many(keys, [message, message])
    )
    free_ct = free.multiply(
        keys_free, *free.encrypt_many(keys_free, [message, message])
    )
    assert np.array_equal(bound_ct.c0, free_ct.c0)
    assert np.array_equal(bound_ct.c1, free_ct.c1)
    engine.close()


# -- HEScheme protocol ------------------------------------------------------


def test_both_schemes_satisfy_hescheme_protocol():
    rlwe = RLWE(SINGLE, rng=random.Random(0))
    dghv = DGHV(TOY, rng=random.Random(0))
    assert isinstance(rlwe, HEScheme)
    assert isinstance(dghv, HEScheme)
    engine = Engine()
    assert isinstance(engine.fhe(), HEScheme)
    assert isinstance(engine.fhe(SINGLE), HEScheme)
    engine.close()


def test_dghv_protocol_methods_roundtrip():
    scheme = DGHV(TOY, rng=random.Random(41))
    keys = scheme.keygen()
    bits = [1, 0, 1, 1]
    cts = scheme.encrypt_many(keys, bits)
    assert scheme.decrypt_many(keys, cts) == bits
    c_and = scheme.multiply(keys, cts[0], cts[2])
    assert scheme.decrypt(keys, c_and) == 1
    many = scheme.multiply_many(keys, [(cts[0], cts[1]), (cts[2], cts[3])])
    assert scheme.decrypt_many(keys, many) == [0, 1]
    assert scheme.noise_budget(keys, cts[0]) > 0
    assert scheme.xor_and_eval(keys, [1, 0], [1, 1]) == [0, 1, 1, 0]


# -- parameters -------------------------------------------------------------


class TestRLWEParams:
    def test_frozen_hash_and_pickle_parity(self):
        """Same contract as ``ExecutionConfig``: hashable, equal by
        value, pickle-stable (the shapes ``software-mp`` workers and
        serve coalesce keys rely on)."""
        params = RLWEParams(
            n=64, t=17, noise_bound=4, rns_primes=[379624757, 379624519]
        )
        assert isinstance(params.rns_primes, tuple)  # normalized
        twin = RLWEParams(
            n=64,
            t=17,
            noise_bound=4,
            rns_primes=(379624757, 379624519),
        )
        assert params == twin and hash(params) == hash(twin)
        restored = pickle.loads(pickle.dumps(params))
        assert restored == params and hash(restored) == hash(params)
        config = ExecutionConfig()
        assert pickle.loads(pickle.dumps(config)) == config

    def test_validate_rejects_bad_chains(self):
        with pytest.raises(ValueError, match="distinct"):
            RLWEParams(
                n=64, t=17, rns_primes=(379624757, 379624757)
            ).validate()
        with pytest.raises(ValueError, match="1 \\(mod t"):
            RLWEParams(n=64, t=17, rns_primes=(379624741,)).validate()
        with pytest.raises(ValueError, match="not prime"):
            # 18 ≡ 1 (mod 17) but is composite.
            RLWEParams(n=64, t=17, rns_primes=(35,)).validate()
        with pytest.raises(ValueError, match="too large"):
            RLWEParams(
                n=64, t=17, rns_primes=(P - 2**32 + 1,)
            ).validate()
        with pytest.raises(ValueError, match="exceed the plaintext"):
            RLWEParams(n=64, t=17, rns_primes=(2,)).validate()
        with pytest.raises(ValueError, match="relin_base"):
            RLWEParams(n=64, t=17, relin_base=0).validate()

    def test_modulus_chain_accessors(self):
        assert SINGLE.level_count == 1 and not SINGLE.is_rns
        assert SINGLE.modulus() == P
        assert RNS.level_count == 3 and RNS.is_rns
        assert RNS.modulus() == math.prod(RNS.rns_primes)
        assert RNS.modulus(1) == RNS.rns_primes[0]
        with pytest.raises(ValueError):
            RNS.modulus(4)
        # Legacy MSB scaling factor survives for API compatibility.
        assert RLWEParams(t=256).delta == P // 256


def test_default_rns_primes_structure():
    primes = default_rns_primes(64, 17, count=3)
    assert len(primes) == len(set(primes)) == 3
    for q in primes:
        assert _is_prime(q)
        assert q % 17 == 1
        assert 64 * (q - 1) ** 2 <= (P - 1) // 2
    with pytest.raises(ValueError):
        default_rns_primes(64, 17, count=0)


# -- relinearization keys ---------------------------------------------------

def test_relin_keys_payload_roundtrip_and_digest():
    scheme = RLWE(RNS, rng=random.Random(0xFACE))
    keys = scheme.keygen()
    restored = RelinKeys.from_payload(RNS, keys.relin.to_payload())
    assert restored.digest() == keys.relin.digest()
    assert sorted(restored.levels) == sorted(keys.relin.levels)
    other = RLWE(RNS, rng=random.Random(0xFACE + 1)).keygen()
    assert other.relin.digest() != keys.relin.digest()
    # Relinearizing with the restored (wire-round-tripped) keys is
    # bit-identical.
    rng = random.Random(30)
    c1, c2 = scheme.encrypt_many(
        keys, [random_message(rng, RNS), random_message(rng, RNS)]
    )
    a = scheme.multiply(keys.relin, c1, c2)
    b = scheme.multiply(restored, c1, c2)
    assert np.array_equal(a.c0, b.c0) and np.array_equal(a.c1, b.c1)


@pytest.mark.parametrize("bad", ["q_j", -1, 1 << 40])
def test_relin_payload_rejects_out_of_range_residues(bad):
    keys = RLWE(RNS, rng=random.Random(0xFACE)).keygen()
    payload = keys.relin.to_payload()
    channel = 1
    value = RNS.rns_primes[channel] if bad == "q_j" else bad
    payload["levels"][str(RNS.level_count)][0][1][channel][5] = value
    with pytest.raises(ValueError, match=f"channel {channel} "):
        RelinKeys.from_payload(RNS, payload)

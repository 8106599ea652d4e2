"""Tests for the RLWE layer (repro.fhe.rlwe)."""

import math
import random

import numpy as np
import pytest

from repro.engine import Engine
from repro.fhe.rlwe import (
    RLWE,
    RLWECiphertext,
    RLWEParams,
    _randbelow_rows,
    default_rns_primes,
)
from repro.field.solinas import P

SMALL = RLWEParams(n=64, t=16, noise_bound=4)
SMALL_RNS = RLWEParams(
    n=64, t=17, noise_bound=4, rns_primes=default_rns_primes(64, 17, 3)
)


@pytest.fixture
def scheme():
    return RLWE(
        RLWEParams(n=64, t=16, noise_bound=4), rng=random.Random(31337)
    )


@pytest.fixture
def secret(scheme):
    return scheme.generate_secret()


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RLWEParams(n=100).validate()
        with pytest.raises(ValueError):
            RLWEParams(t=1).validate()
        with pytest.raises(ValueError):
            RLWEParams(noise_bound=0).validate()

    def test_delta(self):
        assert RLWEParams(t=256).delta == P // 256

    def test_rejects_empty_ring(self):
        """n = 0 passes a bare power-of-two bit test, and the bulk
        sampler would wait forever for a row of no coefficients."""
        with pytest.raises(ValueError, match="power of two"):
            RLWEParams(n=0).validate()


class TestEncryptDecrypt:
    def test_roundtrip(self, scheme, secret, rng):
        msg = [rng.randrange(16) for _ in range(64)]
        assert scheme.decrypt(secret, scheme.encrypt(secret, msg)) == msg

    def test_zero_message(self, scheme, secret):
        msg = [0] * 64
        assert scheme.decrypt(secret, scheme.encrypt(secret, msg)) == msg

    def test_max_message(self, scheme, secret):
        msg = [15] * 64
        assert scheme.decrypt(secret, scheme.encrypt(secret, msg)) == msg

    def test_randomized_ciphertexts(self, scheme, secret):
        msg = [1] * 64
        c1 = scheme.encrypt(secret, msg)
        c2 = scheme.encrypt(secret, msg)
        assert not (c1.c0 == c2.c0).all()

    def test_wrong_key_garbles(self, scheme, secret, rng):
        msg = [rng.randrange(16) for _ in range(64)]
        ct = scheme.encrypt(secret, msg)
        other = scheme.generate_secret()
        assert scheme.decrypt(other, ct) != msg

    def test_rejects_bad_message(self, scheme, secret):
        with pytest.raises(ValueError):
            scheme.encrypt(secret, [0] * 63)
        with pytest.raises(ValueError):
            scheme.encrypt(secret, [16] + [0] * 63)


class TestHomomorphic:
    def test_addition(self, scheme, secret, rng):
        a = [rng.randrange(16) for _ in range(64)]
        b = [rng.randrange(16) for _ in range(64)]
        ct = scheme.add(scheme.encrypt(secret, a), scheme.encrypt(secret, b))
        assert scheme.decrypt(secret, ct) == [
            (x + y) % 16 for x, y in zip(a, b)
        ]

    def test_many_additions_within_noise(self, scheme, secret):
        msg = [1] + [0] * 63
        acc = scheme.encrypt(secret, msg)
        for _ in range(7):
            acc = scheme.add(acc, scheme.encrypt(secret, msg))
        assert scheme.decrypt(secret, acc)[0] == 8

    def test_multiply_plain_by_monomial(self, scheme, secret, rng):
        """x-shift through plaintext multiplication (negacyclic wrap)."""
        msg = [rng.randrange(16) for _ in range(64)]
        shift = [0, 1] + [0] * 62  # multiply by x
        ct = scheme.multiply_plain(scheme.encrypt(secret, msg), shift)
        got = scheme.decrypt(secret, ct)
        expected = [(-msg[63]) % 16] + msg[:63]
        assert got == expected

    def test_multiply_plain_length_check(self, scheme, secret):
        ct = scheme.encrypt(secret, [0] * 64)
        with pytest.raises(ValueError):
            scheme.multiply_plain(ct, [1, 2, 3])

    def test_add_param_mismatch(self, scheme, secret):
        other_scheme = RLWE(
            RLWEParams(n=128, t=16, noise_bound=4),
            rng=random.Random(1),
        )
        other_secret = other_scheme.generate_secret()
        a = scheme.encrypt(secret, [0] * 64)
        b = other_scheme.encrypt(other_secret, [0] * 128)
        with pytest.raises(ValueError):
            scheme.add(a, b)


class TestMessageValidation:
    @pytest.mark.parametrize(
        "message",
        [[1.5] * 64, [15.9] * 64, np.full(64, 2.7), np.zeros(64)],
        ids=["1.5", "15.9", "float64-array", "float-zeros"],
    )
    def test_rejects_non_integer_coefficients(self, scheme, secret, message):
        """A float coefficient is an error, not silently truncated."""
        with pytest.raises(ValueError, match="integers"):
            scheme.encrypt(secret, message)
        with pytest.raises(ValueError, match="integers"):
            scheme.encrypt_many(secret, [[0] * 64, message])

    @pytest.mark.parametrize(
        "messages, match",
        [
            ([[0] * 63], "must have 64 coefficients"),
            ([[0] * 64, [0] * 63], "must have 64 coefficients"),
            ([[[0]] * 64], "must have 64 coefficients"),
            ([[16] + [0] * 63], r"must lie in \[0, t\)"),
            ([[-1] + [0] * 63], r"must lie in \[0, t\)"),
            ([[2**63] + [0] * 63], r"must lie in \[0, t\)"),
            ([[2**70] + [0] * 63], r"must lie in \[0, t\)"),
        ],
    )
    def test_length_and_range_messages(self, scheme, secret, messages, match):
        with pytest.raises(ValueError, match=match):
            scheme.encrypt_many(secret, messages)

    def test_accepts_integer_arrays(self, scheme, secret):
        msg = np.arange(64) % 16
        for message in (msg.astype(np.uint8), msg.astype(np.int32), list(msg)):
            ct = scheme.encrypt(secret, message)
            assert scheme.decrypt(secret, ct) == msg.tolist()
        assert scheme.encrypt_many(secret, []) == []


# -- bulk sampling --------------------------------------------------------

#: Bounds the sampler must replay: tiny ones, every channel prime of the
#: rlwe-depth2 chain, both sides of the one-word limit (2^32 + 15 uses
#: part of a second word) and the field prime.
SAMPLER_BOUNDS = [
    1, 2, 3, 9, *default_rns_primes(1024, 17, 3), 2**32 - 5, 2**32 + 15, P
]


def _loop_rows(rng, bounds, n):
    """The per-call loop the bulk sampler replays: ``randrange(bound)``
    is ``rng._randbelow(bound)``."""
    return [[rng.randrange(bound) for _ in range(n)] for bound in bounds]


def _assert_same_stream(bulk, loop):
    assert bulk.getstate() == loop.getstate()
    assert bulk.random() == loop.random()


class TestSampler:
    @pytest.mark.parametrize("bound", SAMPLER_BOUNDS)
    def test_replays_the_per_call_stream(self, bound):
        for seed, rows, n in [(1, 1, 1), (2, 3, 7), (3, 2, 1000)]:
            bulk, loop = random.Random(seed), random.Random(seed)
            got = _randbelow_rows(bulk, [bound] * rows, n)
            assert got.dtype == np.uint64 and got.shape == (rows, n)
            assert got.tolist() == _loop_rows(loop, [bound] * rows, n)
            _assert_same_stream(bulk, loop)

    def test_replays_rows_of_mixed_bounds(self):
        """Rows switch bound (and word count) wherever a row fills."""
        chain = default_rns_primes(1024, 17, 3)
        for bounds in (chain * 8, SAMPLER_BOUNDS, SAMPLER_BOUNDS[::-1]):
            for n in (1, 5, 300):
                bulk, loop = random.Random(n), random.Random(n)
                got = _randbelow_rows(bulk, bounds, n)
                assert got.tolist() == _loop_rows(loop, bounds, n)
                _assert_same_stream(bulk, loop)
        bulk, loop = random.Random(4), random.Random(4)
        assert _randbelow_rows(bulk, [], 8).shape == (0, 8)
        _assert_same_stream(bulk, loop)

    @pytest.mark.parametrize("params", [SMALL, SMALL_RNS], ids=["single", "rns"])
    def test_scheme_draws_match_per_coefficient_calls(self, params):
        """``_ternary``, ``_noise_signed`` and ``_uniform`` make exactly the
        ``choice``/``randint``/``randrange`` calls they stand for."""
        n, bound = params.n, params.noise_bound
        chain = params.rns_primes or (P,)
        scheme = RLWE(params, rng=random.Random(77))
        loop = random.Random(77)
        assert scheme._ternary().tolist() == [
            loop.choice((-1, 0, 1)) for _ in range(n)
        ]
        assert scheme.generate_secret().tolist() == [
            loop.choice((-1, 0, 1)) % P for _ in range(n)
        ]
        assert scheme._noise_signed(3).tolist() == [
            [loop.randint(-bound, bound) for _ in range(n)] for _ in range(3)
        ]
        assert scheme._uniform(len(chain), count=2).tolist() == [
            [loop.randrange(q) for _ in range(n)]
            for _ in range(2)
            for q in chain
        ]
        _assert_same_stream(scheme.rng, loop)

    def test_system_random_draws_stay_in_range(self):
        rng = random.SystemRandom()
        got = _randbelow_rows(rng, SAMPLER_BOUNDS, 256)
        assert got.shape == (len(SAMPLER_BOUNDS), 256)
        for row, bound in zip(got.tolist(), SAMPLER_BOUNDS):
            assert all(0 <= v < bound for v in row)


# -- exact CRT lift -----------------------------------------------------------


def _centered_crt(residues, primes):
    """The big-int oracle: CRT-recombine, then center in ``(−q/2, q/2]``."""
    q = math.prod(primes)
    x = 0
    for r, prime in zip(residues, primes):
        qhat = q // prime
        x += int(r) * qhat * pow(qhat % prime, -1, prime)
    x %= q
    return x - q if x > q // 2 else x


@pytest.mark.parametrize("n, t", [(1024, 17), (64, 65537), (2, 65537)])
def test_crt_lift_matches_big_int_oracle(n, t):
    """decrypt and noise_budget lift the phase exactly at every level,
    at the centering edges and on full-range residues.  A ciphertext
    ``(c0, 0)`` has phase ``c0``."""
    primes = default_rns_primes(n, t, 3)
    params = RLWEParams(n=n, t=t, noise_bound=4, rns_primes=primes)
    scheme = RLWE(params, rng=random.Random(5))
    secret = scheme.generate_secret()
    rng = random.Random(n * t)
    for level in (1, 2, 3):
        chain = primes[:level]
        q = params.modulus(level)
        edges = [0, 1, q // 2, q // 2 + 1, q - 1]
        count = -(-(len(edges) + 256) // n) * n  # whole ciphertexts
        columns = [[x % prime for prime in chain] for x in edges]
        columns += [
            [rng.randrange(prime) for prime in chain]
            for _ in range(count - len(edges))
        ]
        want = [_centered_crt(column, chain) for column in columns]
        residues = np.array(columns, dtype=np.uint64).T.reshape(level, -1, n)
        cts = [
            RLWECiphertext(
                c0=np.ascontiguousarray(residues[:, b]),
                c1=np.zeros((level, n), dtype=np.uint64),
                params=params,
                level=level,
            )
            for b in range(count // n)
        ]
        plains = scheme.decrypt_many(secret, cts)
        assert sum(plains, []) == [x % t for x in want]
        for b, ct in enumerate(cts):
            magnitude = max(1, max(abs(x) for x in want[b * n : (b + 1) * n]))
            assert scheme.noise_budget(secret, ct) == (
                math.log2(q / 2) - math.log2(magnitude)
            )


# -- default randomness --------------------------------------------------


def test_unseeded_schemes_draw_from_system_random():
    """The Mersenne Twister's state can be rebuilt from its outputs, and
    every ciphertext publishes its uniform ``c1``."""
    assert isinstance(RLWE(SMALL_RNS).rng, random.SystemRandom)
    engine = Engine()
    try:
        bound = engine.fhe(SMALL_RNS)
        assert isinstance(bound.rng, random.SystemRandom)
        keys = bound.keygen()
        messages = [[i % SMALL_RNS.t for i in range(SMALL_RNS.n)]] * 2
        cts = bound.encrypt_many(keys, messages)
        assert bound.decrypt_many(keys, cts) == messages
        seeded = engine.fhe(SMALL_RNS, rng=random.Random(1))
        assert type(seeded.rng) is random.Random
    finally:
        engine.close()

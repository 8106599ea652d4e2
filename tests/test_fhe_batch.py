"""Tests for the batched FHE APIs (RLWE and DGHV *_many)."""

import random

import numpy as np
import pytest

from repro.fhe.dghv import DGHV
from repro.fhe.params import TOY
from repro.fhe.rlwe import RLWE, RLWEParams
from repro.ssa.multiplier import SSAMultiplier


@pytest.fixture
def rlwe():
    return RLWE(RLWEParams(n=64, t=16), rng=random.Random(0xBA7C4))


class TestRLWEBatch:
    def test_encrypt_decrypt_many_roundtrip(self, rlwe, rng):
        secret = rlwe.generate_secret()
        messages = [
            [rng.randrange(rlwe.params.t) for _ in range(rlwe.params.n)]
            for _ in range(6)
        ]
        cts = rlwe.encrypt_many(secret, messages)
        assert rlwe.decrypt_many(secret, cts) == messages

    def test_batch_ciphertexts_decrypt_individually(self, rlwe, rng):
        secret = rlwe.generate_secret()
        messages = [
            [rng.randrange(rlwe.params.t) for _ in range(rlwe.params.n)]
            for _ in range(3)
        ]
        for ct, message in zip(rlwe.encrypt_many(secret, messages), messages):
            assert rlwe.decrypt(secret, ct) == message

    def test_multiply_plain_many_bit_identical(self, rlwe, rng):
        secret = rlwe.generate_secret()
        messages = [
            [rng.randrange(rlwe.params.t) for _ in range(rlwe.params.n)]
            for _ in range(4)
        ]
        plains = [
            [rng.randrange(rlwe.params.t) for _ in range(rlwe.params.n)]
            for _ in range(4)
        ]
        cts = rlwe.encrypt_many(secret, messages)
        batch = rlwe.multiply_plain_many(cts, plains)
        for ct, plain, got in zip(cts, plains, batch):
            want = rlwe.multiply_plain(ct, plain)
            assert np.array_equal(got.c0, want.c0)
            assert np.array_equal(got.c1, want.c1)

    def test_empty_batches(self, rlwe):
        secret = rlwe.generate_secret()
        assert rlwe.encrypt_many(secret, []) == []
        assert rlwe.decrypt_many(secret, []) == []
        assert rlwe.multiply_plain_many([], []) == []

    def test_bad_message_rejected(self, rlwe):
        secret = rlwe.generate_secret()
        with pytest.raises(ValueError):
            rlwe.encrypt_many(secret, [[0] * (rlwe.params.n - 1)])
        with pytest.raises(ValueError):
            rlwe.encrypt_many(secret, [[rlwe.params.t] * rlwe.params.n])

    def test_plain_count_mismatch_rejected(self, rlwe, rng):
        secret = rlwe.generate_secret()
        cts = rlwe.encrypt_many(secret, [[1] * rlwe.params.n])
        with pytest.raises(ValueError):
            rlwe.multiply_plain_many(cts, [])


class TestHeMultMany:
    def _truth_table(self, scheme, keys):
        pairs = []
        expected = []
        for a in (0, 1):
            for b in (0, 1):
                pairs.append(
                    (scheme.encrypt(keys, a), scheme.encrypt(keys, b))
                )
                expected.append(a & b)
        return pairs, expected

    def test_default_multiplier(self):
        scheme = DGHV(TOY, rng=random.Random(11))
        keys = scheme.generate_keys()
        pairs, expected = self._truth_table(scheme, keys)
        results = scheme.multiply_many(keys, pairs)
        assert [scheme.decrypt(keys, c) for c in results] == expected

    def test_ssa_backed_multiplier_batches(self):
        multiplier = SSAMultiplier.for_bits(2 * TOY.gamma)
        scheme = DGHV(TOY, multiplier=multiplier.multiply, rng=random.Random(11))
        keys = scheme.generate_keys()
        pairs, expected = self._truth_table(scheme, keys)
        results = scheme.multiply_many(keys, pairs)
        assert [scheme.decrypt(keys, c) for c in results] == expected

    def test_matches_looped_he_mult(self):
        scheme = DGHV(TOY, rng=random.Random(23))
        keys = scheme.generate_keys()
        pairs, _ = self._truth_table(scheme, keys)
        batch = scheme.multiply_many(keys, pairs)
        looped = [scheme.multiply(keys, a, b) for a, b in pairs]
        assert [c.value for c in batch] == [c.value for c in looped]
        assert [c.noise_bits for c in batch] == [c.noise_bits for c in looped]

    def test_empty_batch(self):
        scheme = DGHV(TOY, rng=random.Random(3))
        assert scheme.multiply_many(scheme.generate_keys(), []) == []

    def test_overridden_multiply_is_not_bypassed(self):
        """A subclass overriding multiply (but inheriting multiply_many)
        must have its override honoured, not the batched fast path."""
        calls = []

        class Counting(SSAMultiplier):
            def multiply(self, a, b):
                calls.append((a, b))
                return super().multiply(a, b)

        multiplier = Counting.for_bits(2 * TOY.gamma)
        scheme = DGHV(
            TOY, multiplier=multiplier.multiply, rng=random.Random(11)
        )
        keys = scheme.generate_keys()
        pairs, expected = self._truth_table(scheme, keys)
        results = scheme.multiply_many(keys, pairs)
        assert [scheme.decrypt(keys, c) for c in results] == expected
        assert len(calls) == len(pairs)

"""Tests for homomorphic operations and noise bookkeeping."""

import random

import pytest

from repro.fhe.dghv import DGHV, Ciphertext
from repro.fhe.ops import NoiseBudgetError, he_add, he_mult
from repro.fhe.params import TOY
from repro.ssa.multiplier import SSAMultiplier


@pytest.fixture
def scheme():
    return DGHV(TOY, rng=random.Random(77))


@pytest.fixture
def keys(scheme):
    return scheme.generate_keys()


class TestHomomorphicTruthTables:
    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    def test_xor(self, scheme, keys, a, b):
        ca, cb = scheme.encrypt(keys, a), scheme.encrypt(keys, b)
        assert scheme.decrypt(keys, he_add(ca, cb, x0=keys.x0)) == a ^ b

    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("b", [0, 1])
    def test_and(self, scheme, keys, a, b):
        ca, cb = scheme.encrypt(keys, a), scheme.encrypt(keys, b)
        got = scheme.decrypt(keys, he_mult(scheme, ca, cb, x0=keys.x0))
        assert got == (a & b)

    def test_add_without_reduction(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 1)
        assert scheme.decrypt(keys, he_add(ca, cb)) == 0

    def test_operator_sugar(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 0)
        assert scheme.decrypt(keys, ca + cb) == 1


class TestNoiseBookkeeping:
    def test_add_noise_grows_slowly(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 0), scheme.encrypt(keys, 1)
        out = he_add(ca, cb, x0=keys.x0)
        assert out.noise_bits <= max(ca.noise_bits, cb.noise_bits) + 1

    def test_mult_noise_sums(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 1)
        out = he_mult(scheme, ca, cb, x0=keys.x0)
        assert out.noise_bits == ca.noise_bits + cb.noise_bits + 1

    def test_actual_noise_within_tracked_bound(self, scheme, keys):
        ca, cb = scheme.encrypt(keys, 1), scheme.encrypt(keys, 1)
        c = he_mult(scheme, ca, cb, x0=keys.x0)
        assert scheme.noise_of(keys, c).bit_length() <= c.noise_bits

    def test_budget_exhaustion_raises(self, scheme, keys):
        c = scheme.encrypt(keys, 1)
        with pytest.raises(NoiseBudgetError):
            for _ in range(20):
                c = he_mult(scheme, c, c, x0=keys.x0)

    def test_depth_matches_params_estimate(self, scheme, keys):
        """Squaring chains survive at least the estimated depth."""
        depth = TOY.multiplicative_depth
        c = scheme.encrypt(keys, 1)
        for _ in range(depth):
            c = he_mult(scheme, c, scheme.encrypt(keys, 1), x0=keys.x0)
        assert scheme.decrypt(keys, c) == 1

    def test_mismatched_params_rejected(self, scheme, keys):
        from repro.fhe.params import MEDIUM

        other = Ciphertext(value=1, noise_bits=1, params=MEDIUM)
        mine = scheme.encrypt(keys, 0)
        with pytest.raises(ValueError):
            he_add(mine, other)
        with pytest.raises(ValueError):
            he_mult(scheme, mine, other)


class TestCircuitEval:
    def test_xor_and_vector(self, scheme, keys, rng):
        bits_a = [rng.getrandbits(1) for _ in range(16)]
        bits_b = [rng.getrandbits(1) for _ in range(16)]
        got = scheme.xor_and_eval(keys, bits_a, bits_b)
        want = []
        for a, b in zip(bits_a, bits_b):
            want += [a ^ b, a & b]
        assert got == want


class TestSSABackedFHE:
    def test_ciphertext_product_via_ssa(self, rng):
        """The integration the paper is about: DGHV AND gates running
        on the SSA multiplier."""
        ssa = SSAMultiplier.for_bits(TOY.gamma + 2)
        scheme = DGHV(TOY, multiplier=ssa.multiply, rng=random.Random(3))
        keys = scheme.generate_keys()
        for a in (0, 1):
            for b in (0, 1):
                ca, cb = scheme.encrypt(keys, a), scheme.encrypt(keys, b)
                c = he_mult(scheme, ca, cb, x0=keys.x0)
                assert scheme.decrypt(keys, c) == (a & b)


class TestDeprecationShims:
    """The pre-HEScheme free functions warn but stay behavior-identical."""

    def test_he_add_warns_and_delegates(self, scheme, keys):
        ca = scheme.encrypt(keys, 1)
        cb = scheme.encrypt(keys, 1)
        with pytest.warns(DeprecationWarning, match="he_add"):
            shimmed = he_add(ca, cb, x0=keys.x0)
        direct = scheme.add(ca, cb)
        assert shimmed.value == (ca.value + cb.value) % keys.x0
        assert shimmed.noise_bits == direct.noise_bits
        assert scheme.decrypt(keys, shimmed) == 0

    def test_he_mult_warns_and_matches_protocol_method(
        self, scheme, keys
    ):
        ca = scheme.encrypt(keys, 1)
        cb = scheme.encrypt(keys, 1)
        with pytest.warns(DeprecationWarning, match="he_mult"):
            shimmed = he_mult(scheme, ca, cb, x0=keys.x0)
        direct = scheme.multiply(keys, ca, cb)
        assert shimmed.value == direct.value
        assert shimmed.noise_bits == direct.noise_bits

    def test_protocol_methods_do_not_warn(self, scheme, keys, recwarn):
        ca = scheme.encrypt(keys, 1)
        cb = scheme.encrypt(keys, 0)
        scheme.add(ca, cb)
        scheme.multiply(keys, ca, cb)
        scheme.multiply_many(keys, [(ca, cb)])
        deprecations = [
            w for w in recwarn if w.category is DeprecationWarning
        ]
        assert not deprecations

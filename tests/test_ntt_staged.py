"""Tests for the vectorized staged executor (repro.ntt.staged)."""

import numpy as np
import pytest

from repro.field.solinas import P
from repro.field.vector import from_field_array, to_field_array
from repro.ntt.plan import paper_64k_plan, plan_for_size
from repro.ntt.radix2 import ntt_radix2_numpy
from repro.ntt.reference import dft_reference
from repro.ntt.staged import execute_plan, execute_plan_inverse


@pytest.mark.parametrize(
    "n,radices",
    [
        (16, (4, 4)),
        (64, (8, 8)),
        (64, (64,)),
        (256, (16, 16)),
        (512, (8, 8, 8)),
        (1024, (64, 16)),
        (1024, (16, 64)),
        (4096, (64, 64)),
    ],
)
def test_matches_radix2(n, radices, rng):
    x = to_field_array([rng.randrange(P) for _ in range(n)])
    plan = plan_for_size(n, radices)
    assert np.array_equal(execute_plan(x, plan), ntt_radix2_numpy(x))


def test_small_matches_reference(rng):
    x = [rng.randrange(P) for _ in range(64)]
    plan = plan_for_size(64, (8, 8))
    got = from_field_array(execute_plan(to_field_array(x), plan))
    assert got == dft_reference(x)


@pytest.mark.parametrize("radices", [(64, 16), (16, 64), (64, 4, 4)])
def test_inverse_roundtrip(radices, rng):
    n = 1024
    x = to_field_array([rng.randrange(P) for _ in range(n)])
    plan = plan_for_size(n, radices)
    assert np.array_equal(execute_plan_inverse(execute_plan(x, plan), plan), x)


def test_paper_64k_plan_full_size(rng):
    """The headline configuration: 64K points, radices 64/64/16."""
    x = to_field_array([rng.randrange(P) for _ in range(65536)])
    plan = paper_64k_plan()
    # All 64·64·16 stages factor, so the compiled kernel runs them all.
    stages = plan.stages + plan.inverse_plan.stages
    assert all(stage.factors is not None for stage in stages)
    spectrum = execute_plan(x, plan)
    assert np.array_equal(spectrum, ntt_radix2_numpy(x))
    assert np.array_equal(execute_plan_inverse(spectrum, plan), x)


def test_wrong_length_rejected():
    plan = plan_for_size(64, (8, 8))
    with pytest.raises(ValueError):
        execute_plan(to_field_array([1, 2, 3]), plan)


def test_impulse_and_constant(rng):
    plan = plan_for_size(256, (16, 16))
    impulse = to_field_array([1] + [0] * 255)
    assert from_field_array(execute_plan(impulse, plan)) == [1] * 256
    const = to_field_array([3] * 256)
    spectrum = from_field_array(execute_plan(const, plan))
    assert spectrum[0] == 3 * 256
    assert all(v == 0 for v in spectrum[1:])

"""Differential suite: every transform route against one oracle.

Two layers:

- **Kernels, stage by stage.**  Every stage of every plan flavour —
  natural, fused negacyclic, decimated DIF/DIT and fused + decimated —
  runs on ``limb-matmul`` and ``compiled`` and must equal ``loop`` on
  the block shape the executor hands that stage.  ``loop`` runs only
  here, on plans of at most 256 points.
- **Entry points against** :mod:`repro.ntt.reference`.  Hypothesis
  draws entry point × backend × ring flavour on the host's stage
  kernel; every result is compared with the DFT definition or the
  big-integer convolution oracle.

Ring flavours are ``cyclic``, ``negacyclic`` (fused plans) and
``twist`` (a cyclic plan handed to the negacyclic functions, which runs
the explicit ψ-twist).
"""

import random
from functools import partial
from types import SimpleNamespace as Case

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import Engine, ExecutionConfig
from repro.field.roots import root_of_unity
from repro.field.solinas import P
from repro.fhe.rlwe import RLWE, RLWEParams
from repro.ntt.convolution import cyclic_convolution, cyclic_convolution_many
from repro.ntt.kernels import KERNEL_LOOP, available_kernels, stage_executor
from repro.ntt.negacyclic import (
    negacyclic_convolution,
    negacyclic_convolution_broadcast,
    negacyclic_convolution_many,
    negacyclic_inverse_many,
    negacyclic_transform_many,
)
from repro.ntt.order import reorder_to_natural
from repro.ntt.plan import (
    ORDER_DECIMATED,
    TWIST_NEGACYCLIC,
    decimated_companion,
    plan_for_size,
)
from repro.ntt.reference import convolution_reference, dft_reference
from repro.ntt.staged import (
    execute_plan,
    execute_plan_batch,
    execute_plan_inverse,
    execute_plan_inverse_batch,
)
from repro.ssa.encode import SSAParameters, decompose
from repro.ssa.multiplier import SSAMultiplier

#: Values straddling every 16-bit limb boundary, plus the field edges.
EDGE_RESIDUES = np.array(
    [
        0,
        1,
        (1 << 16) - 1,
        1 << 16,
        (1 << 32) - 1,
        1 << 32,
        (1 << 48) - 1,
        1 << 48,
        P - 1,
        P - 2,
        P - (1 << 32),
    ],
    dtype=np.uint64,
)


def edge_salted(rng, shape, edge_bias=0.25):
    """Canonical residues with edge values salted in."""
    data = rng.integers(0, P, size=shape, dtype=np.uint64)
    mask = rng.random(size=shape) < edge_bias
    data[mask] = rng.choice(EDGE_RESIDUES, size=shape)[mask]
    return data


# -- kernels, stage by stage ------------------------------------------------

#: Plans of at most 256 points: single-stage, uneven, odd (2, 4, 8)
#: and deep (4, 4, 4, 4) radix mixes.
STAGE_SHAPES = [
    (4, (4,)),
    (8, (8,)),
    (16, (4, 4)),
    (64, (2, 4, 8)),
    (64, (8, 8)),
    (128, (16, 8)),
    (256, (4, 4, 4, 4)),
    (256, (16, 16)),
]

FAST_KERNELS = [k for k in available_kernels() if k != KERNEL_LOOP]


def plan_flavours(n, radices):
    """Every executed plan of a shape: the natural, fused, decimated
    and fused + decimated pairs, forward and inverse."""
    natural = plan_for_size(n, radices)
    fused = plan_for_size(n, radices, twist=TWIST_NEGACYCLIC)
    for pair in (
        natural,
        fused,
        decimated_companion(natural),
        decimated_companion(fused),
    ):
        yield pair
        yield pair.inverse_plan


def stage_blocks(plan, batch):
    """``(stage, (blocks, radix, tail))`` in the executor's order: the
    tail shrinks on DIF walks and grows on the DIT inverse."""
    done = 1
    for stage in plan.stages:
        tail = done if plan.dit else plan.n // (done * stage.radix)
        yield stage, (batch * plan.n // (stage.radix * tail), stage.radix, tail)
        done *= stage.radix


@pytest.mark.parametrize("n,radices", STAGE_SHAPES)
def test_every_stage_of_every_flavour_matches_loop(n, radices):
    rng = np.random.default_rng(n + len(radices))
    seen = set()
    for plan in plan_flavours(n, radices):
        for stage, shape in stage_blocks(plan, batch=2):
            if (id(stage), shape) in seen:  # shared with another walk
                continue
            seen.add((id(stage), shape))
            assert stage.factors is not None, (plan.twist, plan.dit)
            data = edge_salted(rng, shape)
            want = stage_executor(KERNEL_LOOP)(data, stage, np.empty_like(data))
            for kernel in FAST_KERNELS:
                out = np.empty_like(data)
                stage_executor(kernel)(data, stage, out)
                assert np.array_equal(out, want), (kernel, plan.twist, plan.dit)
    # Distinct stages: the natural forward and inverse, the fused first
    # forward stage (the rest are shared) and fused inverse, and the two
    # DIT inverses (the DIF forwards share their natural stages).
    assert len(seen) == 5 * len(radices) + 1


# -- entry points against repro.ntt.reference --------------------------------

#: Shapes for the entry points; the engine rings use the default radices.
SHAPES = [
    (8, (8,)),
    (16, (4, 4)),
    (64, (2, 4, 8)),
    (128, (16, 8)),
    (256, (16, 16)),
    (1024, (64, 16)),
]
#: Natural spectra are compared with the O(n²) DFT up to this size;
#: larger ones in a few columns, each evaluated by definition.
DFT_MAX_N = 128


def oracle(a, b, negacyclic):
    """Row-wise :func:`convolution_reference` of two ``(B, n)`` stacks."""
    out = [
        convolution_reference(x.tolist(), y.tolist(), negacyclic)
        for x, y in zip(a, b)
    ]
    return np.array(out, dtype=np.uint64).reshape(a.shape)


def twisted_dft(rows, negacyclic, columns=None):
    """Natural spectra by definition, ψ-twisted first when negacyclic;
    only the given ``columns`` (frequencies) when not ``None``."""
    n = rows.shape[1]
    psi = root_of_unity(2 * n) if negacyclic else 1
    twisted = [
        [int(x) * pow(psi, i, P) % P for i, x in enumerate(row)] for row in rows
    ]
    if columns is None:
        spectra = [dft_reference(row) for row in twisted]
    else:
        omega = root_of_unity(n)
        spectra = [
            [
                sum(x * pow(omega, i * k, P) for i, x in enumerate(row)) % P
                for k in columns
            ]
            for row in twisted
        ]
    width = n if columns is None else len(columns)
    return np.array(spectra, dtype=np.uint64).reshape(len(rows), width)


def module_plan(n, radices, flavour, order):
    """The plan a caller hands in: ``None`` (the default), or a natural
    or decimated plan of the flavour (``twist`` always hands a cyclic
    plan to the negacyclic functions)."""
    if order == "default" and flavour != "twist":
        return None
    plan = plan_for_size(
        n, radices, twist=TWIST_NEGACYCLIC if flavour == "negacyclic" else ""
    )
    return decimated_companion(plan) if order == "decimated" else plan


def check_spectra(forward, inverse, a, b, negacyclic, plan=None):
    """One transform pair against the oracle: the spectra of ``a`` by
    definition (``plan`` tells a decimated order), the round trip, and
    the convolution theorem through a pointwise product."""
    spectra = forward(np.concatenate([a, b]))
    batch, n = a.shape
    natural = spectra[:batch]
    if plan is not None and plan.ordering == ORDER_DECIMATED:
        natural = reorder_to_natural(natural, plan)
    columns = None if n <= DFT_MAX_N else [0, 1, n // 2 + 1, n - 1]
    if columns is not None:
        natural = natural[:, columns]
    assert np.array_equal(natural, twisted_dft(a, negacyclic, columns))
    assert np.array_equal(inverse(spectra[:batch]), a)
    pointwise = [
        [x * y % P for x, y in zip(r, s)]
        for r, s in zip(spectra[:batch].tolist(), spectra[batch:].tolist())
    ]
    product = inverse(np.array(pointwise, dtype=np.uint64).reshape(a.shape))
    assert np.array_equal(product, oracle(a, b, negacyclic))


def row_by_row(flat):
    """A ``(B, n)`` transform made of flat ``(n,)`` calls."""
    return lambda rows: np.stack([flat(row) for row in rows])


def entry_plan_execute(case):
    """``execute_plan*`` (flat for one row) on a plan of the flavour."""
    order = "natural" if case.order == "default" else case.order
    plan = module_plan(case.n, case.radices, case.flavour, order)
    if len(case.a) == 1:
        forward = row_by_row(partial(execute_plan, plan=plan))
        inverse = row_by_row(partial(execute_plan_inverse, plan=plan))
    else:
        forward = partial(execute_plan_batch, plan=plan)
        inverse = partial(execute_plan_inverse_batch, plan=plan)
    check_spectra(forward, inverse, case.a, case.b, bool(plan.twist), plan)


def entry_negacyclic_transform(case):
    """``negacyclic_transform_many`` / ``negacyclic_inverse_many``."""
    plan = module_plan(case.n, case.radices, case.flavour, case.order)
    check_spectra(
        partial(negacyclic_transform_many, plan=plan),
        partial(negacyclic_inverse_many, plan=plan),
        case.a,
        case.b,
        True,
        plan,
    )


def entry_convolution(case):
    """The cyclic / negacyclic convolutions: many, broadcast, flat."""
    plan = module_plan(case.n, case.radices, case.flavour, case.order)
    negacyclic = case.flavour != "cyclic"
    a, b = case.a, case.b
    if case.shape == "broadcast" and negacyclic and len(a):
        got = negacyclic_convolution_broadcast(a, b[0], plan)
        b = np.broadcast_to(b[:1], a.shape)
    elif case.shape == "flat" and len(a):
        conv = negacyclic_convolution if negacyclic else cyclic_convolution
        got = np.stack([conv(x, y, plan) for x, y in zip(a, b)])
    else:
        many = (
            negacyclic_convolution_many if negacyclic else cyclic_convolution_many
        )
        got = many(a, b, plan)
    assert np.array_equal(got, oracle(a, b, negacyclic))


def entry_ring(case):
    """``Engine.ring(n)``: transforms and convolutions on a backend."""
    ring = case.engine.ring(case.n)
    negacyclic = case.flavour != "cyclic"
    a, b = case.a, case.b
    if case.shape == "transform":
        if negacyclic:
            forward, inverse = ring.negacyclic_forward, ring.negacyclic_inverse
        else:
            forward, inverse = ring.forward, ring.inverse
        if len(a) == 1:  # flat in, flat out
            forward, inverse = row_by_row(forward), row_by_row(inverse)
        check_spectra(forward, inverse, a, b, negacyclic)
        return
    if case.shape == "broadcast" and len(a):
        got = ring.convolve(a, b[0], negacyclic=negacyclic)
        b = np.broadcast_to(b[:1], a.shape)
    elif case.shape == "flat" and len(a):
        got = np.stack(
            [ring.convolve(x, y, negacyclic=negacyclic) for x, y in zip(a, b)]
        )
    else:
        got = ring.convolve(a, b, negacyclic=negacyclic)
    assert np.array_equal(got, oracle(a, b, negacyclic))


def ssa_operands(case):
    """Operands of ``24·n/2`` bits, one per row: constant rows of 0 and
    1 give 0 and 1, rows of p − 1 all-ones digits (the largest
    convolution sums), random rows random operands."""
    bits = 12 * case.n
    rng = random.Random(case.seed)
    values = []
    for row in np.concatenate([case.a, case.b]):
        if np.all(row == P - 1):
            values.append((1 << bits) - 1)
        elif np.all(row == row[0]) and row[0] < 2:
            values.append(int(row[0]))
        else:
            values.append(rng.getrandbits(bits))
    return values[: len(case.a)], values[len(case.a) :]


def entry_ssa(case):
    """``SSAMultiplier.multiply_many`` and ``forward_transform`` (direct)
    or ``Engine.multiply`` (on a backend) against Python integers."""
    left, right = ssa_operands(case)
    if case.engine is not None:
        got = case.engine.multiply(left, right)
    else:
        params = SSAParameters(
            coefficient_bits=24, operand_coefficients=case.n // 2
        )
        multiplier = SSAMultiplier(params=params)
        got = multiplier.multiply_many(list(zip(left, right)))
        if left and case.n <= DFT_MAX_N:
            digits = decompose(left[0], params)[np.newaxis, :]
            assert np.array_equal(
                multiplier.forward_transform(left[0]),
                twisted_dft(digits, negacyclic=False)[0],
            )
    assert got == [x * y for x, y in zip(left, right)]


def negacyclic_mod_t(a, b, t):
    """Row-wise products in ``Z_t[x]/(x^n + 1)`` of residues below
    ``t``: the oracle's coefficients stay far below p/2, so centre them
    and reduce mod ``t``."""
    return [
        [(int(v) - P if v > P // 2 else int(v)) % t for v in row]
        for row in oracle(a, b, True)
    ]


def entry_rlwe(case):
    """``RLWE.multiply_plain_many`` free (on the flavour's plan) or bound
    to an engine; decrypts to the negacyclic product mod ``t``."""
    params = RLWEParams(n=case.n, t=16, noise_bound=2)
    if case.engine is not None:
        scheme = case.engine.fhe(params, rng=random.Random(case.seed))
    else:
        plan = module_plan(case.n, case.radices, case.flavour, case.order)
        scheme = RLWE(params, rng=random.Random(case.seed), plan=plan)
    messages = case.a % np.uint64(params.t)
    plains = case.b % np.uint64(params.t)
    secret = scheme.generate_secret()
    products = scheme.multiply_plain_many(
        scheme.encrypt_many(secret, messages.tolist()), plains.tolist()
    )
    assert [scheme.decrypt(secret, ct) for ct in products] == (
        negacyclic_mod_t(messages, plains, params.t)
    )


#: Module functions run ``direct``; engine-routed entry points run on
#: each backend, ``software-mp`` over both row transfers.
DIRECT = ("direct",)
ENGINE = ("software", "software-mp", "software-mp-shm", "hw-model")
CONVOLUTIONS = ("many", "broadcast", "flat")
#: entry point -> (function, ring flavours, backends, call shapes)
ENTRY_POINTS = {
    "execute_plan": (
        entry_plan_execute, ("cyclic", "negacyclic"), DIRECT, ("many",)
    ),
    "negacyclic_transform": (
        entry_negacyclic_transform, ("negacyclic", "twist"), DIRECT, ("many",)
    ),
    "convolution": (
        entry_convolution, ("cyclic", "negacyclic", "twist"), DIRECT, CONVOLUTIONS
    ),
    "ring": (
        entry_ring, ("cyclic", "negacyclic"), ENGINE, ("transform",) + CONVOLUTIONS
    ),
    "ssa": (entry_ssa, ("cyclic",), DIRECT + ENGINE, ("many",)),
    "rlwe": (entry_rlwe, ("negacyclic", "twist"), DIRECT + ENGINE, ("many",)),
}


@pytest.fixture(scope="module")
def engines():
    """One engine per backend; the mp engine serves both transfers."""
    mp = Engine(config=ExecutionConfig(workers=2), backend="software-mp")
    built = {
        "software": Engine(),
        "software-mp": mp,
        "software-mp-shm": mp,
        "hw-model": Engine(backend="hw-model"),
    }
    yield built
    mp.close()


@st.composite
def rows(draw, batch, n, seed):
    """A ``(batch, n)`` stack: edge-salted random rows or constant rows
    of 0, 1 and p − 1."""
    fill = draw(st.sampled_from(["random", "random", 0, 1, P - 1]))
    if fill == "random":
        return edge_salted(np.random.default_rng(seed), (batch, n))
    return np.full((batch, n), np.uint64(fill))


@pytest.mark.parametrize(
    "name,backend",
    [(name, backend) for name, entry in ENTRY_POINTS.items() for backend in entry[2]],
)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_entry_point_matches_reference(engines, name, backend, data):
    check, flavours, _, shapes = ENTRY_POINTS[name]
    n, radices = data.draw(st.sampled_from(SHAPES), label="shape")
    if name == "rlwe":
        n = min(n, 256)  # keygen and encryption loop per coefficient
        radices = None
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    batch = data.draw(st.sampled_from([0, 1, 2, 3]), label="batch")
    case = Case(
        n=n,
        radices=radices,
        flavour=data.draw(st.sampled_from(flavours), label="flavour"),
        order=data.draw(
            st.sampled_from(["default", "natural", "decimated"]), label="order"
        ),
        shape=data.draw(st.sampled_from(shapes), label="call"),
        a=data.draw(rows(batch, n, seed), label="a"),
        b=data.draw(rows(batch, n, seed + 1), label="b"),
        seed=seed,
        engine=None if backend == "direct" else engines[backend],
    )
    if backend == "software-mp-shm":  # every row matrix through a block
        case.engine.backend.min_shm_bytes = 0
    try:
        check(case)
    finally:
        if backend == "software-mp-shm":
            del case.engine.backend.min_shm_bytes


@pytest.mark.parametrize("flavour", ["cyclic", "negacyclic"])
@pytest.mark.parametrize("shape", ["transform", "many", "broadcast"])
def test_hw_model_datapath_ring(flavour, shape):
    """The beat-exact datapath walk on one shape."""
    rng = np.random.default_rng(64)
    case = Case(
        n=64,
        flavour=flavour,
        shape=shape,
        a=edge_salted(rng, (2, 64)),
        b=edge_salted(rng, (2, 64)),
        engine=Engine(
            config=ExecutionConfig(fidelity="datapath"), backend="hw-model"
        ),
    )
    entry_ring(case)

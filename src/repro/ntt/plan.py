"""Mixed-radix transform plans, including the paper's 64K plan (Eq. 2).

A :class:`TransformPlan` fixes a transform length ``N``, a radix
factorization applied innermost-first, and the primitive root, and
precomputes everything a vectorized executor needs:

- per-stage small DFT matrices (powers of the stage root),
- per-stage twiddle tables ``ω_L^{k1·n2}`` (the inter-stage factors of
  paper Eq. 1/Eq. 2 — in hardware these are the DSP modular
  multipliers, while the intra-stage factors are shifts),
- the output digit-reversal permutation that restores natural order.

The paper's configuration is ``paper_64k_plan()``: ``N = 65536`` with
radices ``(64, 64, 16)``, i.e. stages over ``n3`` (stride 1024), ``n2``
(stride 16) and ``n1`` (stride 1) exactly as in Eq. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.field.roots import root_of_unity
from repro.field.solinas import P, inverse, pow_mod
from repro.field.vector import to_field_array, vmul
from repro.native import StageFactors
from repro.ntt.kernels import (
    factor_stage,
    limb_decompose_matrix,
    resolve_kernel,
)

#: The paper's operating point (Section III).
PAPER_TRANSFORM_SIZE = 65536
PAPER_RADICES = (64, 64, 16)

#: ``TransformPlan.twist`` value of a fused negacyclic plan: the ψ-twist
#: is folded into the first-stage constants and the ψ⁻¹-untwist (plus
#: the ``n^{-1}`` scale) into the inverse companion's stage constants,
#: so ``x^n + 1`` ring products run as plain plan executions with zero
#: extra vector passes (see :func:`_fuse_negacyclic`).
TWIST_NEGACYCLIC = "negacyclic"

#: ``TransformPlan.ordering`` of a plan whose forward output (and
#: inverse input) is in natural index order — the digit-reversal gather
#: runs after the last stage.  This is the historical behaviour.
ORDER_NATURAL = "natural"

#: ``TransformPlan.ordering`` of a permutation-free plan pair: the
#: decimation-in-frequency forward leaves its spectrum in decimated
#: (digit-reversed block) order — no output gather — and the
#: decimation-in-time inverse companion consumes exactly that order and
#: emits natural-order coefficients, again without a gather (see
#: :func:`_decimate`).  Pointwise-product sandwiches (convolutions,
#: SSA ``multiply_many``) are order-agnostic, so they skip both
#: per-transform permutations at identical output bits.
ORDER_DECIMATED = "decimated"

_ORDERINGS = (ORDER_NATURAL, ORDER_DECIMATED)


@dataclass(frozen=True)
class StageSpec:
    """Precomputed data for one stage of a mixed-radix plan."""

    radix: int
    #: Number of sub-transforms of this radix executed in the stage.
    sub_transforms: int
    #: radix × radix DFT matrix (uint64 canonical residues).
    dft_matrix: np.ndarray
    #: (radix, tail) inter-stage twiddle table; ``None`` for the last stage.
    twiddles: Optional[np.ndarray]
    #: ``(4, radix, radix)`` float64 16-bit-limb planes of ``dft_matrix``,
    #: precomputed for the ``limb-matmul`` kernel (``__post_init__``
    #: fills it in, so hand-built specs are complete too).
    dft_limbs: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )
    #: ``dft_matrix`` factored as ``diag(r)·F_R(ω)·diag(c)`` for the
    #: ``compiled`` kernel (:func:`repro.ntt.kernels.factor_stage`,
    #: checked entry by entry); ``None`` when it does not factor, and
    #: the stage then runs on ``limb-matmul``.  Always derived from
    #: ``dft_matrix``, never passed in.
    factors: Optional[StageFactors] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.dft_limbs is None:
            object.__setattr__(
                self, "dft_limbs", limb_decompose_matrix(self.dft_matrix)
            )
        object.__setattr__(self, "factors", factor_stage(self.dft_matrix))


@dataclass(frozen=True)
class TransformPlan:
    """A fully precomputed mixed-radix NTT plan.

    Use :func:`plan_for_size` / :func:`paper_64k_plan` to construct.
    """

    n: int
    radices: Tuple[int, ...]
    omega: int
    stages: Tuple[StageSpec, ...]
    output_permutation: np.ndarray
    #: ``n^{-1} mod p``, precomputed so the inverse transform never
    #: allocates a fresh scale array per call.
    n_inv: np.uint64 = field(default=np.uint64(0), compare=False)
    inverse_plan: Optional["TransformPlan"] = field(
        default=None, compare=False, repr=False
    )
    #: Stage-DFT backend the executor dispatches on: ``"loop"``,
    #: ``"limb-matmul"`` or ``"compiled"`` (see
    #: :mod:`repro.ntt.kernels`).  An empty string resolves to the
    #: process default at construction.
    kernel: str = field(default="", compare=False)
    #: ``""`` for a plain cyclic plan; :data:`TWIST_NEGACYCLIC` when the
    #: negacyclic ψ-twist/untwist (and the inverse ``n^{-1}`` scale) are
    #: folded into the stage constants.  Executing a fused plan computes
    #: the *negacyclic* transform directly — cyclic callers must reject
    #: it.
    twist: str = field(default="", compare=False)
    #: For fused plans: the plain cyclic plan the fused constants were
    #: derived from (same ``n``/``radices``/``omega``/``kernel``).  The
    #: hw-model's datapath fidelity walks this plan with the explicit
    #: twist, since the shift-only FFT-64 unit only evaluates plain DFT
    #: webs.  For decimated plans: the natural-ordering companion the
    #: pair was derived from (the natural pair for the forward, the
    #: natural inverse for the DIT inverse) — the hw-model's beat-exact
    #: oracle and cycle schedule come from it.
    base_plan: Optional["TransformPlan"] = field(
        default=None, compare=False, repr=False
    )
    #: :data:`ORDER_NATURAL` (gather to natural order after the last
    #: stage) or :data:`ORDER_DECIMATED` (permutation-free pair).  On a
    #: decimated plan ``output_permutation`` is *not* applied by the
    #: executor; it is kept so :mod:`repro.ntt.order` can reorder
    #: spectra explicitly (``perm[k]`` = decimated position of natural
    #: frequency ``k``).
    ordering: str = field(default=ORDER_NATURAL, compare=False)
    #: ``True`` for the decimation-in-time inverse companion of a
    #: decimated pair: the executor applies each stage's twiddles
    #: *before* its DFT, walks the stages in the laid-out (reversed)
    #: order with a growing tail axis, and emits natural order with no
    #: gather.  ``radices`` lists the stages in execution order, i.e.
    #: reversed relative to the natural companion; ``output_permutation``
    #: describes the decimation of the *input* spectrum.
    dit: bool = field(default=False, compare=False)
    #: Memoized decimated companion (see :func:`decimated_companion`).
    _decimated: Optional["TransformPlan"] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # Directly-constructed plans (tests build corrupted copies) must
        # never scale the inverse by a silently-wrong default.
        if int(self.n_inv) == 0:
            object.__setattr__(self, "n_inv", np.uint64(inverse(self.n)))
        object.__setattr__(
            self, "kernel", resolve_kernel(self.kernel or None)
        )
        if self.ordering not in _ORDERINGS:
            raise ValueError(
                f"unknown ordering {self.ordering!r}; "
                f"expected one of {_ORDERINGS}"
            )

    @property
    def stage_count(self) -> int:
        return len(self.stages)

    def sub_transform_counts(self) -> List[Tuple[int, int]]:
        """``[(radix, count), ...]`` per stage — drives the timing model.

        For the paper plan this is ``[(64, 1024), (64, 1024), (16, 4096)]``,
        the counts behind the ``T_FFT`` formula of Section V.
        """
        return [(s.radix, s.sub_transforms) for s in self.stages]


def _dft_matrix(radix: int, stage_root: int) -> np.ndarray:
    rows = []
    for k in range(radix):
        rows.append([pow_mod(stage_root, (k * i) % radix) for i in range(radix)])
    return np.array(rows, dtype=np.uint64)


def _twiddle_table(radix: int, tail: int, level_root: int) -> np.ndarray:
    table = []
    for k1 in range(radix):
        table.append(
            [pow_mod(level_root, (k1 * n2) % (radix * tail)) for n2 in range(tail)]
        )
    return np.array(table, dtype=np.uint64)


def _output_permutation(n: int, radices: Sequence[int]) -> np.ndarray:
    """Digit-reversal permutation: block order → natural output order.

    After the staged execution, block ``(d1, ..., ds)`` (d1 slowest)
    holds output index ``k = d1 + R1·d2 + R1·R2·d3 + ...``.
    """
    perm = np.zeros(n, dtype=np.int64)
    strides = []
    acc = 1
    for r in radices[:-1]:
        strides.append(acc)
        acc *= r
    strides.append(acc)

    def fill(block: int, level: int, k: int) -> None:
        if level == len(radices):
            perm[k] = block
            return
        r = radices[level]
        for d in range(r):
            fill(block * r + d, level + 1, k + d * strides[level])

    fill(0, 0, 0)
    return perm


def _build(
    n: int, radices: Tuple[int, ...], omega: int, kernel: str = ""
) -> TransformPlan:
    product = 1
    for r in radices:
        product *= r
    if product != n:
        raise ValueError(f"radices {radices} do not factor {n}")
    stages: List[StageSpec] = []
    length = n
    count = 1
    for index, radix in enumerate(radices):
        tail = length // radix
        level_root = pow_mod(omega, n // length)
        stage_root = pow_mod(level_root, tail)
        twiddles = None
        if index < len(radices) - 1:
            twiddles = _twiddle_table(radix, tail, level_root)
        stages.append(
            StageSpec(
                radix=radix,
                sub_transforms=count * tail,
                dft_matrix=_dft_matrix(radix, stage_root),
                twiddles=twiddles,
            )
        )
        count *= radix
        length = tail
    return TransformPlan(
        n=n,
        radices=radices,
        omega=omega,
        stages=tuple(stages),
        output_permutation=_output_permutation(n, radices),
        kernel=kernel,
    )


def _fuse_negacyclic(base: TransformPlan) -> TransformPlan:
    """A fused negacyclic plan pair derived from a cyclic ``base`` plan.

    Forward: the input twist ``x_i ← ψ^i·x_i`` (``i = r·tail + t`` at
    the first stage) splits as ``ψ^{r·tail}·ψ^t``; the ``r``-dependent
    half scales the first-stage DFT matrix *columns* and the
    ``t``-dependent half — constant along the radix axis, so it
    commutes through the stage DFT — folds into the first-stage twiddle
    table (or vanishes when the plan is single-stage, ``tail = 1``).

    Inverse: the output untwist ``ψ^{-i}`` with
    ``i = d_1 + R_1·d_2 + R_1R_2·d_3 + …`` factors per digit; the digit
    ``d_m`` is exactly stage ``m``'s DFT output index and later stages
    never mix already-produced digit axes, so ``ψ^{-c_m·k}``
    (``c_m = R_1⋯R_{m-1}``) folds into stage ``m``'s twiddle *rows* —
    and, for the last stage (no twiddles), into the DFT matrix rows
    together with the global ``n^{-1}`` scale.

    Every fused table stays a canonical-residue uint64 array, so both
    stage kernels run unchanged (``StageSpec.__post_init__`` rebuilds
    the 16-bit limb planes of the fused matrices) and the executor's
    stage schedule — hence the hw model's cycle ledger — is identical
    to the base plan's.
    """
    # Lazy import: repro.ntt.negacyclic imports this module at top level.
    from repro.ntt.negacyclic import twist_tables

    if base.inverse_plan is None:
        raise ValueError("base plan has no inverse companion to fuse")
    n = base.n
    forward_tab, backward_tab = twist_tables(n)

    fwd_stages = list(base.stages)
    first = fwd_stages[0]
    tail = n // first.radix
    # ψ^{r·tail} for r in [0, radix): a strided view of the ψ table.
    col_scale = forward_tab[::tail]
    matrix = vmul(
        first.dft_matrix,
        np.broadcast_to(col_scale[np.newaxis, :], first.dft_matrix.shape),
    )
    twiddles = first.twiddles
    if twiddles is not None:
        twiddles = vmul(
            twiddles,
            np.broadcast_to(forward_tab[np.newaxis, :tail], twiddles.shape),
        )
    fwd_stages[0] = StageSpec(
        radix=first.radix,
        sub_transforms=first.sub_transforms,
        dft_matrix=matrix,
        twiddles=twiddles,
    )

    ibase = base.inverse_plan
    inv_stages = list(ibase.stages)
    digit_weight = 1
    for index, spec in enumerate(inv_stages):
        # ψ^{-c_m·k} for k in [0, radix): strided view of the ψ⁻¹ table.
        row_scale = backward_tab[::digit_weight][: spec.radix]
        if index < len(inv_stages) - 1:
            fused_twiddles = vmul(
                spec.twiddles,
                np.broadcast_to(
                    row_scale[:, np.newaxis], spec.twiddles.shape
                ),
            )
            fused_matrix = spec.dft_matrix
        else:
            fused_twiddles = None
            scaled_rows = vmul(
                row_scale, np.broadcast_to(base.n_inv, row_scale.shape)
            )
            fused_matrix = vmul(
                spec.dft_matrix,
                np.broadcast_to(
                    scaled_rows[:, np.newaxis], spec.dft_matrix.shape
                ),
            )
        inv_stages[index] = StageSpec(
            radix=spec.radix,
            sub_transforms=spec.sub_transforms,
            dft_matrix=fused_matrix,
            twiddles=fused_twiddles,
        )
        digit_weight *= spec.radix

    fused_inverse = TransformPlan(
        n=n,
        radices=ibase.radices,
        omega=ibase.omega,
        stages=tuple(inv_stages),
        output_permutation=ibase.output_permutation,
        n_inv=ibase.n_inv,
        kernel=base.kernel,
        twist=TWIST_NEGACYCLIC,
        base_plan=ibase,
    )
    return TransformPlan(
        n=n,
        radices=base.radices,
        omega=base.omega,
        stages=tuple(fwd_stages),
        output_permutation=base.output_permutation,
        n_inv=base.n_inv,
        inverse_plan=fused_inverse,
        kernel=base.kernel,
        twist=TWIST_NEGACYCLIC,
        base_plan=base,
    )


def _decimate(base: TransformPlan) -> TransformPlan:
    """The permutation-free (decimated-ordering) pair of a natural plan.

    Forward: a decimation-in-frequency transform *is* the existing
    staged execution minus the final digit-reversal gather — the stage
    constants (including fused-negacyclic ones) are shared unchanged
    and the executor simply keeps the decimated block order.

    Inverse: the natural inverse network ``N = P·E`` (``P`` the gather,
    ``E`` the staged butterfly network) must become ``G = N·P`` so it
    consumes decimated input and emits natural order.  Because the
    unfused network matrix ``(1/n)·F̄`` is symmetric and ``P`` is its
    own transpose-conjugate here, ``G = E^T`` up to the ``n^{-1}``
    scale: the *transpose* of the staged network runs the stages in
    reversed order with each stage's twiddle diagonal applied *before*
    its (transposed) DFT.  The small DFT matrices are symmetric, so the
    constants are byte-identical to the natural inverse's; only their
    layout across the schedule changes — exactly the paper's
    observation that DIF and DIT share one datapath.

    For a fused negacyclic base the ψ⁻¹-untwist ``ψ^{-i}`` factors over
    the *output* digits: in the DIT schedule the natural output digit
    of weight ``tail_j`` is produced by (original) stage ``j``'s DFT
    and never remixed afterwards, so ``ψ^{-k·tail_j}`` row-scales that
    stage's transposed matrix (with ``n^{-1}`` folded into the
    last-executed stage).  The unfused DIT inverse folds ``n^{-1}`` the
    same way, which also retires the trailing scale pass.
    """
    if base.ordering == ORDER_DECIMATED:
        return base
    if base.inverse_plan is None:
        raise ValueError(
            "cannot decimate a plan without an inverse companion"
        )
    if base.twist:
        if base.base_plan is None or base.base_plan.inverse_plan is None:
            raise ValueError(
                "fused plan carries no cyclic base to derive the DIT "
                "inverse from"
            )
        # The fused natural inverse folds ψ^{-c_j·k} by *natural* output
        # digit weights; the DIT schedule needs the tail_j weights, so
        # rebuild from the unfused inverse stages.
        ibase = base.base_plan.inverse_plan
        from repro.ntt.negacyclic import twist_tables

        _, backward_tab = twist_tables(base.n)
    else:
        ibase = base.inverse_plan
        backward_tab = None

    dit_stages: List[StageSpec] = []
    tail = base.n
    for index, spec in enumerate(ibase.stages):
        tail //= spec.radix
        matrix = np.ascontiguousarray(spec.dft_matrix.T)
        if backward_tab is not None:
            # ψ^{-k·tail_j} for k in [0, radix): strided ψ⁻¹ view.
            row_scale = np.ascontiguousarray(
                backward_tab[::tail][: spec.radix]
            )
            if index == 0:
                row_scale = vmul(
                    row_scale,
                    np.broadcast_to(ibase.n_inv, row_scale.shape),
                )
            matrix = vmul(
                matrix,
                np.broadcast_to(row_scale[:, np.newaxis], matrix.shape),
            )
        elif index == 0:
            matrix = vmul(
                matrix, np.broadcast_to(ibase.n_inv, matrix.shape)
            )
        dit_stages.append(
            StageSpec(
                radix=spec.radix,
                sub_transforms=spec.sub_transforms,
                dft_matrix=matrix,
                twiddles=spec.twiddles,
            )
        )
    # Transposed network: original stage s runs first (twiddle-free by
    # construction), original stage 1 runs last and emits natural order.
    dit_stages.reverse()

    dit_inverse = TransformPlan(
        n=base.n,
        radices=tuple(reversed(ibase.radices)),
        omega=ibase.omega,
        stages=tuple(dit_stages),
        output_permutation=ibase.output_permutation,
        n_inv=ibase.n_inv,
        kernel=base.kernel,
        twist=base.twist,
        base_plan=base.inverse_plan,
        ordering=ORDER_DECIMATED,
        dit=True,
    )
    return TransformPlan(
        n=base.n,
        radices=base.radices,
        omega=base.omega,
        stages=base.stages,
        output_permutation=base.output_permutation,
        n_inv=base.n_inv,
        inverse_plan=dit_inverse,
        kernel=base.kernel,
        twist=base.twist,
        base_plan=base,
        ordering=ORDER_DECIMATED,
    )


def decimated_companion(plan: TransformPlan) -> TransformPlan:
    """The (memoized) permutation-free pair of ``plan``.

    Every holder of a natural-ordering plan — engine caches, rings,
    multipliers, the hw model — resolves the *same* companion object,
    so the derived DIT constants are built once per natural plan.
    Decimated plans return themselves.
    """
    if plan.ordering == ORDER_DECIMATED:
        return plan
    if plan._decimated is None:
        object.__setattr__(plan, "_decimated", _decimate(plan))
    return plan._decimated


@dataclass(frozen=True)
class PlanCacheStats:
    """Occupancy and hit/miss counters of a plan cache."""

    size: int
    hits: int
    misses: int


class PlanCache:
    """A keyed store of built :class:`TransformPlan` objects.

    Keys are ``(n, radices, omega, kernel, twist, ordering)``; a hit
    returns the very same plan object, so precomputed DFT matrices,
    twiddle tables and limb planes are shared by every caller of the
    cache.  Decimated entries resolve through
    :func:`decimated_companion`, which memoizes on the natural plan
    itself — so even *different* caches holding the same natural plan
    share one decimated pair.

    Historically the library kept one module-global cache; the
    :class:`repro.engine.Engine` façade now owns a *per-engine*
    instance, and the module-level :func:`plan_for_size` /
    :func:`clear_plan_cache` / :func:`plan_cache_stats` helpers keep
    working against a default instance for legacy callers.
    """

    def __init__(self) -> None:
        self._plans: Dict[
            Tuple[int, Tuple[int, ...], int, str, str, str], TransformPlan
        ] = {}
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._plans)

    def stats(self) -> PlanCacheStats:
        """Snapshot of this cache (size, hits, misses)."""
        return PlanCacheStats(
            size=len(self._plans), hits=self._hits, misses=self._misses
        )

    def clear(self) -> None:
        """Drop every cached plan and reset the hit/miss counters.

        Long-running sweeps build one plan per (size, radices, omega)
        triple; this bounds the memory they pin.
        """
        self._plans.clear()
        self._hits = 0
        self._misses = 0

    def plan_for_size(
        self,
        n: int,
        radices: Optional[Sequence[int]] = None,
        omega: Optional[int] = None,
        kernel: Optional[str] = None,
        twist: str = "",
        ordering: str = ORDER_NATURAL,
    ) -> TransformPlan:
        """Build (and cache) a plan for an ``n``-point transform.

        ``radices`` defaults to greedy radix-64 stages with one smaller
        final stage, mirroring the paper's preference for high radices.
        The returned plan carries a matching ``inverse_plan``.

        ``kernel`` pins the stage-DFT backend (``"loop"``,
        ``"limb-matmul"`` or ``"compiled"``); ``None`` resolves through
        the ``REPRO_NTT_KERNEL`` environment variable, defaulting to
        ``compiled`` when its C library loads, else ``limb-matmul``.

        ``twist=TWIST_NEGACYCLIC`` returns the fused negacyclic variant
        (ψ-twist folded into the first-stage constants, ψ⁻¹-untwist and
        ``n^{-1}`` into the inverse companion's stages); it requires the
        default primitive root, since ψ is its square root of order
        ``2n``.  The cyclic base plan is built (and cached) alongside.

        ``ordering=ORDER_DECIMATED`` returns the permutation-free pair
        (DIF forward emitting decimated spectra, DIT inverse consuming
        them); the natural-ordering plan is built (and cached)
        alongside, and the decimated pair is shared through
        :func:`decimated_companion`.
        """
        if n & (n - 1) or n == 0:
            raise ValueError("transform size must be a power of two")
        if twist not in ("", TWIST_NEGACYCLIC):
            raise ValueError(
                f"unknown twist {twist!r}; "
                f"expected '' or {TWIST_NEGACYCLIC!r}"
            )
        if ordering not in _ORDERINGS:
            raise ValueError(
                f"unknown ordering {ordering!r}; "
                f"expected one of {_ORDERINGS}"
            )
        default_omega = root_of_unity(n)
        if omega is None:
            omega = default_omega
        if twist and omega != default_omega:
            raise ValueError(
                "fused negacyclic plans require the default primitive "
                "root (psi is defined as its order-2n square root)"
            )
        if radices is None:
            radices = _default_radices(n)
        kernel = resolve_kernel(kernel)
        key = (n, tuple(radices), omega, kernel, twist, ordering)
        plan = self._plans.get(key)
        if plan is None:
            self._misses += 1
            if ordering == ORDER_DECIMATED:
                plan = decimated_companion(
                    self.plan_for_size(n, radices, omega, kernel, twist)
                )
            elif twist:
                plan = _fuse_negacyclic(
                    self.plan_for_size(n, radices, omega, kernel)
                )
            else:
                plan = _build(n, tuple(radices), omega, kernel)
                backward = _build(
                    n, tuple(radices), inverse(omega), kernel
                )
                object.__setattr__(plan, "inverse_plan", backward)
            self._plans[key] = plan
        else:
            self._hits += 1
        return plan


#: The default cache behind the module-level helpers (and behind the
#: shared-cache engines, see ``ExecutionConfig.cache``).
DEFAULT_PLAN_CACHE = PlanCache()


def plan_cache_stats() -> PlanCacheStats:
    """Snapshot of the default plan cache (size, hits, misses)."""
    return DEFAULT_PLAN_CACHE.stats()


def clear_plan_cache() -> None:
    """Clear the default plan cache (see :meth:`PlanCache.clear`)."""
    DEFAULT_PLAN_CACHE.clear()


def plan_for_size(
    n: int,
    radices: Optional[Sequence[int]] = None,
    omega: Optional[int] = None,
    kernel: Optional[str] = None,
    twist: str = "",
    ordering: str = ORDER_NATURAL,
) -> TransformPlan:
    """Build a plan in the default cache (see
    :meth:`PlanCache.plan_for_size`)."""
    return DEFAULT_PLAN_CACHE.plan_for_size(
        n, radices, omega, kernel, twist, ordering
    )


def _default_radices(n: int) -> Tuple[int, ...]:
    """Greedy high-radix factorization, shift-only friendly.

    Prefers radix 64 (the paper's choice) and keeps every stage radix
    in the hardware's shift-only set ``{8, 16, 32, 64}`` whenever
    ``n ≥ 8``, so default plans always run on the FFT-64 unit model —
    a trailing remainder of 2 or 4 is absorbed by splitting the last
    radix-64 stage (e.g. 128 = 16·8, not 64·2).  Transforms smaller
    than 8 points get the single radix ``n``.
    """
    k = n.bit_length() - 1  # n = 2**k
    if k < 3:
        return (n,)
    q, r = divmod(k, 6)
    if r == 0:
        exponents = [6] * q
    elif r >= 3:
        exponents = [6] * q + [r]
    else:  # r in (1, 2): split the last 64·2**r as 2**4 · 2**(2+r)
        exponents = [6] * (q - 1) + [4, 2 + r]
    exponents.sort(reverse=True)
    return tuple(1 << e for e in exponents)


def paper_64k_plan() -> TransformPlan:
    """The paper's three-stage 64K plan: radices (64, 64, 16), Eq. 2."""
    return plan_for_size(PAPER_TRANSFORM_SIZE, PAPER_RADICES)

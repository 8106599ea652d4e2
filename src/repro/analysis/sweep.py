"""Parameter sweeps over the timing and algorithm models.

Backing for the scaling/ablation/crossover benchmarks:

- :func:`pe_scaling_sweep` — T_FFT / T_MULT versus PE count (the
  scalability argument of Section IV);
- :func:`radix_plan_sweep` — alternative radix factorizations of the
  64K transform ("this gives us greater flexibility in choosing an FFT
  order other than 64K", Section IV-b);
- :func:`operand_size_sweep` / :func:`crossover_point` — operation
  counts of SSA versus the classical multipliers (the ≥100,000-bit
  claim of Section III).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arch.spec import ArchSpec
from repro.hw.timing import AcceleratorTiming


@dataclass(frozen=True)
class ScalingPoint:
    pes: int
    fft_us: float
    mult_us: float
    parallel_efficiency: float


def pe_scaling_sweep(
    pe_counts: Sequence[int] = (1, 2, 4, 8, 16),
    clock_ns: float = 5.0,
) -> List[ScalingPoint]:
    """T_FFT and T_MULT for each PE count, with parallel efficiency.

    Each point is an :class:`~repro.arch.spec.ArchSpec` — the paper
    configuration with the PE count and clock replaced — priced through
    the closed-form model (identical numbers to the pre-`ArchSpec`
    scalar sweep).
    """
    points = []
    base: Optional[float] = None
    for pes in pe_counts:
        spec = ArchSpec.paper_default().with_overrides(
            pes=pes, clock_ns=clock_ns, name=f"hypercube-p{pes}"
        )
        timing = AcceleratorTiming.for_arch(spec)
        fft = timing.fft_time_us()
        if base is None:
            base = fft
        efficiency = base / (fft * pes)
        points.append(
            ScalingPoint(
                pes=pes,
                fft_us=fft,
                mult_us=timing.multiplication_time_us(),
                parallel_efficiency=efficiency,
            )
        )
    return points


def radix_plan_sweep(
    n: int = 65536,
    plans: Sequence[Tuple[int, ...]] = (
        (64, 64, 16),
        (64, 32, 32),
        (64, 16, 64),
        (32, 32, 64),
        (16, 64, 64),
    ),
    pes: int = 4,
    clock_ns: float = 5.0,
) -> Dict[Tuple[int, ...], float]:
    """FFT latency of alternative radix factorizations of ``n``."""
    spec = ArchSpec.paper_default().with_overrides(
        pes=pes, clock_ns=clock_ns, name=f"hypercube-p{pes}"
    )
    paper_shape = AcceleratorTiming.for_arch(spec)
    out: Dict[Tuple[int, ...], float] = {}
    for radices in plans:
        if math.prod(radices) != n:
            raise ValueError(f"radices {tuple(radices)} do not factor {n}")
        timing = replace(paper_shape, radices=tuple(radices))
        out[tuple(radices)] = timing.fft_time_us()
    return out


# --- multiplication algorithm cost models -----------------------------------


def schoolbook_ops(bits: int, limb_bits: int = 24) -> float:
    """Limb products of schoolbook multiplication."""
    limbs = max(1, math.ceil(bits / limb_bits))
    return float(limbs * limbs)


def karatsuba_ops(bits: int, limb_bits: int = 24) -> float:
    """Limb products of Karatsuba (n^log2(3))."""
    limbs = max(1, math.ceil(bits / limb_bits))
    return float(limbs ** math.log2(3))


def ssa_ops(bits: int, limb_bits: int = 24) -> float:
    """Field multiplications of one SSA multiply.

    Three transforms of 2n points at ~(radix sum) multiplies per point
    per stage, plus the 2n point-wise products — the O(n log n)
    envelope with the constants of our plans.
    """
    limbs = max(2, math.ceil(bits / limb_bits))
    points = 2 * limbs
    stages = max(1, math.ceil(math.log(points, 64)))
    per_transform = points * stages * 8  # 8 ops/point/stage (radix-64 column)
    return float(3 * per_transform + points)


@dataclass(frozen=True)
class SizePoint:
    bits: int
    schoolbook: float
    karatsuba: float
    ssa: float


def operand_size_sweep(
    bit_sizes: Sequence[int] = (
        1024,
        4096,
        16384,
        65536,
        131072,
        262144,
        786432,
        1572864,
    ),
) -> List[SizePoint]:
    """Operation counts of the three algorithms across operand sizes."""
    return [
        SizePoint(
            bits=bits,
            schoolbook=schoolbook_ops(bits),
            karatsuba=karatsuba_ops(bits),
            ssa=ssa_ops(bits),
        )
        for bits in bit_sizes
    ]


def crossover_point(
    rival: str = "karatsuba", lo: int = 256, hi: int = 1 << 24
) -> int:
    """Smallest operand size (bits) where SSA beats the rival model.

    Bisects the cost models; the paper claims SSA wins from roughly
    100,000 bits against the usual schemes.
    """
    cost = {"schoolbook": schoolbook_ops, "karatsuba": karatsuba_ops}[rival]
    if ssa_ops(hi) >= cost(hi):
        raise ValueError("SSA never wins within the probed range")
    while lo < hi:
        mid = (lo + hi) // 2
        if ssa_ops(mid) < cost(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo

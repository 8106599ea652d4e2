"""Batch-pipelined multiplication — the paper's spare-resource headroom.

Section V: "The unused resources might be used to achieve further
performance improvements, although this was not exploited in this
comparison."  This module exploits it: when many independent products
are queued (the realistic FHE server case — thousands of ciphertext
gates), the three hardware resources

- the FFT engine (the PEs),
- the dot-product multiplier bank,
- the carry-recovery adder

form a three-stage macro-pipeline.  While multiply ``i`` sits in its
dot-product/carry phases, the FFT engine already transforms the
operands of multiply ``i+1``.  Steady-state throughput is then bound by
the FFT engine alone (3 transforms per product) instead of the full
serial latency — a ~1.33× throughput gain at the paper's operating
point, for free.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.hw.timing import (
    PAPER_TIMING,
    TRANSFORMS_PER_MULTIPLY,
    AcceleratorTiming,
)


@dataclass(frozen=True)
class BatchSchedule:
    """Cycle schedule of one batch of independent multiplications."""

    count: int
    clock_ns: float
    #: Per-multiply (fft_start, dot_start, carry_start, finish) cycles.
    spans: Tuple[Tuple[int, int, int, int], ...]
    serial_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.spans[-1][3] if self.spans else 0

    @property
    def total_time_us(self) -> float:
        return self.total_cycles * self.clock_ns / 1000.0

    @property
    def throughput_speedup(self) -> float:
        """Batch speedup over running the multiplies back-to-back."""
        if not self.spans:
            return 1.0
        return self.serial_cycles / self.total_cycles

    @property
    def steady_state_interval(self) -> int:
        """Cycles between consecutive completions once the pipe fills."""
        if len(self.spans) < 2:
            return self.total_cycles
        return self.spans[-1][3] - self.spans[-2][3]

    def render(self) -> str:
        lines = [
            f"batch of {self.count} multiplications: "
            f"{self.total_time_us:.1f} us total, "
            f"{self.throughput_speedup:.2f}x over serial",
            f"steady-state: one product per "
            f"{self.steady_state_interval} cycles "
            f"({self.steady_state_interval * self.clock_ns / 1000:.2f} us)",
        ]
        for i, (f0, d0, c0, end) in enumerate(self.spans[:4]):
            lines.append(
                f"  mult {i}: fft@{f0} dot@{d0} carry@{c0} done@{end}"
            )
        if len(self.spans) > 4:
            lines.append(f"  ... ({len(self.spans) - 4} more)")
        return "\n".join(lines)


def schedule_batch(
    count: int, timing: AcceleratorTiming = PAPER_TIMING
) -> BatchSchedule:
    """Greedy list schedule of ``count`` products on the three resources.

    Each resource serves one multiply at a time, in order; a stage
    starts when both its predecessor stage (same multiply) and its
    resource (previous multiply) are free.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    fft_cycles = TRANSFORMS_PER_MULTIPLY * timing.fft_cycles()
    dot_cycles = timing.dot_product_cycles()
    carry_cycles = timing.carry_recovery_cycles()

    spans: List[Tuple[int, int, int, int]] = []
    fft_free = dot_free = carry_free = 0
    for _ in range(count):
        fft_start = fft_free
        fft_done = fft_start + fft_cycles
        fft_free = fft_done
        dot_start = max(fft_done, dot_free)
        dot_done = dot_start + dot_cycles
        dot_free = dot_done
        carry_start = max(dot_done, carry_free)
        finish = carry_start + carry_cycles
        carry_free = finish
        spans.append((fft_start, dot_start, carry_start, finish))
    return BatchSchedule(
        count=count,
        clock_ns=timing.arch.clock_ns,
        spans=tuple(spans),
        serial_cycles=timing.multiplication_cycles() * count,
    )


@dataclass(frozen=True)
class ThroughputComparison:
    """Modeled (hardware macro-pipeline) vs measured (software batched
    executor) throughput gain for one batch of independent products."""

    bits: int
    count: int
    modeled_speedup: float
    serial_seconds: float
    batched_seconds: float

    @property
    def measured_speedup(self) -> float:
        if self.batched_seconds <= 0:
            return float("inf")
        return self.serial_seconds / self.batched_seconds

    @property
    def serial_ops_per_sec(self) -> float:
        if self.serial_seconds <= 0:
            return float("inf")
        return self.count / self.serial_seconds

    @property
    def batched_ops_per_sec(self) -> float:
        if self.batched_seconds <= 0:
            return float("inf")
        return self.count / self.batched_seconds

    @property
    def meets_model(self) -> bool:
        """The software batch path realizes at least the ~1.33× gain the
        hardware macro-pipeline model predicts for the same batch."""
        return self.measured_speedup >= self.modeled_speedup

    def render(self) -> str:
        mark = "OK" if self.meets_model else "BELOW MODEL"
        return "\n".join(
            [
                f"batched software throughput, {self.count} x "
                f"{self.bits}-bit products:",
                f"  looped  : {self.serial_seconds * 1e3:9.1f} ms "
                f"({self.serial_ops_per_sec:8.1f} ops/s)",
                f"  batched : {self.batched_seconds * 1e3:9.1f} ms "
                f"({self.batched_ops_per_sec:8.1f} ops/s)",
                f"  measured speedup {self.measured_speedup:.2f}x vs "
                f"modeled macro-pipeline {self.modeled_speedup:.2f}x "
                f"[{mark}]",
            ]
        )


def measure_software_batch(
    bits: int = 4096,
    count: int = 32,
    seed: int = 0,
    timing: AcceleratorTiming = PAPER_TIMING,
    engine=None,
) -> ThroughputComparison:
    """Time looped vs batched SSA multiplication on ``count`` products.

    Cross-checks the Section V batch model against the software stack:
    every product is verified bit-exact against Python big-int
    multiplication and looped ``multiply`` before the timing is
    reported, and the modeled speedup comes from
    :func:`schedule_batch` on the same batch size.

    ``engine`` (an optional :class:`repro.engine.Engine`) routes both
    paths through the engine — its plan cache *and its compute
    backend*, so an engine on ``software-mp`` measures the
    sharded worker-pool path (and exercises its fault recovery when
    the injection harness is armed); by default a standalone
    :class:`SSAMultiplier` is sized for ``bits``.
    """
    from repro.ssa.multiplier import SSAMultiplier

    if count < 1:
        raise ValueError("count must be positive")
    rng = random.Random(seed)
    if engine is not None:
        from repro.engine.core import EngineMultiplier

        multiplier = EngineMultiplier(engine)
    else:
        multiplier = SSAMultiplier.for_bits(bits)
    pairs = [
        (rng.getrandbits(bits), rng.getrandbits(bits)) for _ in range(count)
    ]
    multiplier.multiply(*pairs[0])  # warm the plan cache
    if engine is not None:
        # Warm the backend too (software-mp: process spawn + per-worker
        # engine builds stay out of the timed region).  Two items cross
        # the sharding threshold.
        multiplier.multiply_many(pairs[:2])

    start = time.perf_counter()
    looped = [multiplier.multiply(a, b) for a, b in pairs]
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched = multiplier.multiply_many(pairs)
    batched_seconds = time.perf_counter() - start

    if batched != looped or batched != [a * b for a, b in pairs]:
        raise AssertionError("batched products disagree with looped/big-int")
    return ThroughputComparison(
        bits=bits,
        count=count,
        modeled_speedup=schedule_batch(count, timing).throughput_speedup,
        serial_seconds=serial_seconds,
        batched_seconds=batched_seconds,
    )

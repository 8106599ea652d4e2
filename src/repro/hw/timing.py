"""Closed-form performance model (paper Section V formulas, generalized).

The paper derives its headline numbers at T_C = 5 ns (200 MHz) and
P = 4 processing elements::

    T_FFT     = 2·(T_C·8·1024)/P + (T_C·2)·4096/P            ≈ 30.7 µs
    T_DOTPROD = T_C·65536/32                                  ≈ 10.2 µs
    T_CARRY   ≈ 20 µs
    T_MULT    = 3·T_FFT + T_DOTPROD + T_CARRY                 ≈ 122 µs

:class:`AcceleratorTiming` is the closed-form view of one
:class:`~repro.arch.spec.ArchSpec` over a transform shape: every term is
the spec's own per-component formula — ``stage_compute_cycles`` per
stage, ``dot_product_cycles`` and ``carry_recovery_cycles`` — summed.
Like the paper's T_DOTPROD it leaves out the dot-product bank's
pipeline fill (:attr:`~repro.arch.spec.ArchSpec.dot_product_fill_cycles`),
so Table II reads 24,576 cycles per multiplication at the paper point,
where the hw-model report, which adds the fill, reads 24,580.  The
[28] baseline column of Table II is the same view of a one-engine spec
(:data:`BASELINE_ARCH`), and the PE-scaling sweep of the benchmarks is
the view of each PE-count variant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.spec import ArchSpec
from repro.ntt.plan import PAPER_RADICES

#: Transforms per SSA multiplication: two forward plus one inverse.
TRANSFORMS_PER_MULTIPLY = 3


def multiplication_cycles(arch: ArchSpec, fft_cycles: int, points: int) -> int:
    """T_MULT: three transforms of ``fft_cycles`` each, then the dot
    product (without its pipeline fill) and carry recovery over
    ``points``."""
    return (
        TRANSFORMS_PER_MULTIPLY * fft_cycles
        + arch.dot_product_cycles(points)
        + arch.carry_recovery_cycles(points)
    )


@dataclass(frozen=True)
class AcceleratorTiming:
    """Closed-form timing of one architecture over one transform shape.

    Only the transform's shape enters the formulas — stage ``i`` of any
    plan runs ``n / R_i`` radix-``R_i`` sub-transforms — so the view
    keeps the radices (the paper's 64K shape by default) and never
    builds a plan.

    ``pes``, ``clock_ns`` and ``dot_product_multipliers`` are
    construction shorthands: without ``arch`` they replace those fields
    of the paper spec (:meth:`ArchSpec.paper_variant`); with ``arch``
    they are ignored.  The machine is always :attr:`arch`.
    """

    arch: Optional[ArchSpec] = None
    radices: Tuple[int, ...] = PAPER_RADICES
    pes: Optional[int] = field(default=None, compare=False, repr=False)
    clock_ns: Optional[float] = field(default=None, compare=False, repr=False)
    dot_product_multipliers: Optional[int] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.arch is None:
            arch = ArchSpec.paper_variant(
                pes=self.pes,
                clock_ns=self.clock_ns,
                dot_product_multipliers=self.dot_product_multipliers,
            )
            object.__setattr__(self, "arch", arch)

    @property
    def n(self) -> int:
        """Transform size: the product of the radices."""
        return math.prod(self.radices)

    def _us(self, cycles: int) -> float:
        return cycles * self.arch.clock_ns / 1000.0

    # -- FFT ---------------------------------------------------------------

    def fft_stage_cycles(self) -> List[Tuple[int, int]]:
        """Per stage: (radix, cycles per PE) — the PE's share of the
        stage's ``n / R`` sub-transforms through its FFT units."""
        return [
            (radix, self.arch.stage_compute_cycles(self.n // radix, radix))
            for radix in self.radices
        ]

    def fft_cycles(self) -> int:
        return sum(cycles for _, cycles in self.fft_stage_cycles())

    def fft_time_us(self) -> float:
        """The T_FFT formula (30.72 µs at the paper operating point)."""
        return self._us(self.fft_cycles())

    # -- dot product ---------------------------------------------------------

    def dot_product_cycles(self) -> int:
        return self.arch.dot_product_cycles(self.n)

    def dot_product_time_us(self) -> float:
        """T_DOTPROD (10.24 µs at the paper operating point)."""
        return self._us(self.dot_product_cycles())

    # -- carry recovery -------------------------------------------------------

    def carry_recovery_cycles(self) -> int:
        return self.arch.carry_recovery_cycles(self.n)

    def carry_recovery_time_us(self) -> float:
        """T_CARRY (≈20.5 µs at the paper operating point)."""
        return self._us(self.carry_recovery_cycles())

    # -- full multiplication ---------------------------------------------------

    def multiplication_cycles(self) -> int:
        return multiplication_cycles(self.arch, self.fft_cycles(), self.n)

    def multiplication_time_us(self) -> float:
        """T_MULT (≈122.9 µs at the paper operating point)."""
        return self._us(self.multiplication_cycles())

    def phase_breakdown_us(self) -> Dict[str, float]:
        return {
            "fft_x3": TRANSFORMS_PER_MULTIPLY * self.fft_time_us(),
            "dot_product": self.dot_product_time_us(),
            "carry_recovery": self.carry_recovery_time_us(),
        }


#: The paper's configuration (P = 4, 200 MHz, 64K plan).
PAPER_TIMING = AcceleratorTiming()

#: The [28] baseline machine on the same formulas: one engine (P = 1)
#: with the leftover-DSP dot-product provisioning implied by its 720
#: DSP budget.
BASELINE_ARCH = ArchSpec(
    name="wang-huang-fpga28", pes=1, dot_product_multipliers=26
)

#: Its closed form: 122.88·4 ≈ 125 µs per FFT and ≈ 405 µs per
#: multiplication — the Table II reference column.
BASELINE_TIMING = AcceleratorTiming(BASELINE_ARCH)


#: Published execution times the paper compares against (Table II).
PUBLISHED_RESULTS = {
    "proposed": {"fft_us": 30.7, "mult_us": 122.0},
    "wang_huang_fpga[28]": {"fft_us": 125.0, "mult_us": 405.0},
    "wang_vlsi_asic[30]": {"fft_us": None, "mult_us": 206.0},
    "wang_gpu[26]": {"fft_us": 250.0, "mult_us": 765.0},
    "wang_gpu[27]": {"fft_us": None, "mult_us": 583.0},
}

"""Analytic performance model (paper Section V formulas, generalized).

The paper derives its headline numbers at T_C = 5 ns (200 MHz) and
P = 4 processing elements::

    T_FFT     = 2·(T_C·8·1024)/P + (T_C·2)·4096/P            ≈ 30.7 µs
    T_DOTPROD = T_C·65536/32                                  ≈ 10.2 µs
    T_CARRY   ≈ 20 µs
    T_MULT    = 3·T_FFT + T_DOTPROD + T_CARRY                 ≈ 122 µs

:class:`AcceleratorTiming` reproduces these as the special case of a
general model parameterized by the transform shape, PE count, clock and
multiplier/adder provisioning — so the same class also yields the [28]
baseline column of Table II (a single engine, i.e. P = 1, with its
dot-product provisioning) and the PE-scaling sweep of the benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.ntt.plan import PAPER_RADICES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.arch.spec import ArchSpec

#: Output points per cycle of one FFT unit (eight shared reductors).
POINTS_PER_CYCLE = 8
#: Dot-product modular multipliers provisioned from leftover DSPs
#: ("the remaining resources can accommodate at least 32 additional
#: modular multipliers", Section V).
DOT_PRODUCT_MULTIPLIERS = 32
#: Carry-recovery adder streaming width (16 words/cycle gives the
#: paper's ≈20 µs over 64K digits at 5 ns).
CARRY_RECOVERY_WORDS_PER_CYCLE = 16
#: Transforms per SSA multiplication: two forward plus one inverse.
TRANSFORMS_PER_MULTIPLY = 3


@dataclass(frozen=True)
class AcceleratorTiming:
    """Closed-form timing of one accelerator configuration.

    Only the transform's shape enters the formulas — stage ``i`` of any
    plan runs ``n / R_i`` radix-``R_i`` sub-transforms — so the model
    keeps the radices (the paper's 64K shape by default) and never
    builds a plan.
    """

    pes: int = 4
    clock_ns: float = 5.0
    radices: Tuple[int, ...] = PAPER_RADICES
    dot_product_multipliers: int = DOT_PRODUCT_MULTIPLIERS
    carry_words_per_cycle: int = CARRY_RECOVERY_WORDS_PER_CYCLE
    #: When set, FFT occupancy comes from the spec (FFT units per PE,
    #: buffer port widths); the closed-form dot/carry formulas read the
    #: matching scalar fields, which :meth:`for_arch` copies from it.
    arch: Optional["ArchSpec"] = None

    @property
    def n(self) -> int:
        """Transform size: the product of the radices."""
        return math.prod(self.radices)

    @classmethod
    def for_arch(cls, arch: "ArchSpec") -> "AcceleratorTiming":
        """The closed-form model of one declarative configuration."""
        return cls(
            pes=arch.pes,
            clock_ns=arch.clock_ns,
            dot_product_multipliers=arch.dot_product_multipliers,
            carry_words_per_cycle=arch.carry_words_per_cycle,
            arch=arch,
        )

    # -- FFT ---------------------------------------------------------------

    def fft_stage_cycles(self) -> List[Tuple[int, int]]:
        """Per stage: (radix, cycles per PE).

        A radix-R sub-transform occupies the unit for R/8 cycles; each
        PE executes its 1/P share back-to-back (divided over the FFT
        units when an :class:`ArchSpec` provisions more than one).
        """
        out = []
        for radix in self.radices:
            count = self.n // radix
            if self.arch is not None:
                out.append(
                    (radix, self.arch.stage_compute_cycles(count, radix))
                )
                continue
            interval = max(1, radix // POINTS_PER_CYCLE)
            out.append((radix, (count // self.pes) * interval))
        return out

    def fft_cycles(self) -> int:
        return sum(cycles for _, cycles in self.fft_stage_cycles())

    def fft_time_us(self) -> float:
        """The T_FFT formula (30.72 µs at the paper operating point)."""
        return self.fft_cycles() * self.clock_ns / 1000.0

    # -- dot product ---------------------------------------------------------

    def dot_product_cycles(self) -> int:
        return -(-self.n // self.dot_product_multipliers)

    def dot_product_time_us(self) -> float:
        """T_DOTPROD (10.24 µs at the paper operating point)."""
        return self.dot_product_cycles() * self.clock_ns / 1000.0

    # -- carry recovery -------------------------------------------------------

    def carry_recovery_cycles(self) -> int:
        return -(-self.n // self.carry_words_per_cycle)

    def carry_recovery_time_us(self) -> float:
        """T_CARRY (≈20.5 µs at the paper operating point)."""
        return self.carry_recovery_cycles() * self.clock_ns / 1000.0

    # -- full multiplication ---------------------------------------------------

    def multiplication_cycles(self) -> int:
        return (
            TRANSFORMS_PER_MULTIPLY * self.fft_cycles()
            + self.dot_product_cycles()
            + self.carry_recovery_cycles()
        )

    def multiplication_time_us(self) -> float:
        """T_MULT (≈122.9 µs at the paper operating point)."""
        return self.multiplication_cycles() * self.clock_ns / 1000.0

    def phase_breakdown_us(self) -> Dict[str, float]:
        return {
            "fft_x3": TRANSFORMS_PER_MULTIPLY * self.fft_time_us(),
            "dot_product": self.dot_product_time_us(),
            "carry_recovery": self.carry_recovery_time_us(),
        }


#: The paper's configuration (P = 4, 200 MHz, 64K plan).
PAPER_TIMING = AcceleratorTiming()

#: The [28] baseline modeled on the same formulas: one engine (P = 1)
#: with the leftover-DSP dot-product provisioning implied by its 720
#: DSP budget.  Yields 122.88·4 ≈ 125 µs per FFT and ≈ 405 µs per
#: multiplication — the Table II reference column.
BASELINE_TIMING = AcceleratorTiming(pes=1, dot_product_multipliers=26)


#: Published execution times the paper compares against (Table II).
PUBLISHED_RESULTS = {
    "proposed": {"fft_us": 30.7, "mult_us": 122.0},
    "wang_huang_fpga[28]": {"fft_us": 125.0, "mult_us": 405.0},
    "wang_vlsi_asic[30]": {"fft_us": None, "mult_us": 206.0},
    "wang_gpu[26]": {"fft_us": 250.0, "mult_us": 765.0},
    "wang_gpu[27]": {"fft_us": None, "mult_us": 583.0},
}

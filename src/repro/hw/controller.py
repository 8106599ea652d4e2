"""Microcoded accelerator controller on the simulation kernel.

The PEs' stage sequencer (accounted as a calibrated block in the
resource census) is modeled here behaviourally: a small microcode
program walks one SSA multiplication through its phases —

    LOAD_A → FFT_A → LOAD_B → FFT_B → DOT → IFFT → CARRY → STORE

with per-phase durations drawn from the analytic timing model, operand
loads overlapped with the preceding transform (double buffering), and
the whole run executed cycle-by-cycle as a clocked component.  Tests
cross-check the controller's cycle total against
:class:`repro.hw.accelerator.MultiplyReport`, closing the loop between
the three timing views (formula, transaction ledger, clocked FSM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.hw.timing import PAPER_TIMING, AcceleratorTiming
from repro.sim.kernel import Component
from repro.sim.trace import Timeline


@dataclass(frozen=True)
class MicroOp:
    """One controller phase: a label, a duration, and whether it can
    overlap the previous phase (double-buffered loads)."""

    label: str
    cycles: int
    overlaps_previous: bool = False


def multiply_program(
    timing: AcceleratorTiming = PAPER_TIMING,
    io_words_per_cycle: int = 8,
) -> List[MicroOp]:
    """The microcode for one full SSA multiplication.

    Operand loads stream ``n`` words at the I/O width; each is hidden
    behind the previous phase where double buffering allows.
    """
    load_cycles = -(-timing.n // io_words_per_cycle)
    fft = timing.fft_cycles()
    return [
        MicroOp("LOAD_A", load_cycles),
        MicroOp("FFT_A", fft),
        MicroOp("LOAD_B", load_cycles, overlaps_previous=True),
        MicroOp("FFT_B", fft),
        MicroOp("DOT", timing.dot_product_cycles()),
        MicroOp("IFFT", fft),
        MicroOp("CARRY", timing.carry_recovery_cycles()),
        MicroOp("STORE", load_cycles, overlaps_previous=True),
    ]


class AcceleratorController(Component):
    """Clocked FSM stepping through a microcode program."""

    def __init__(
        self,
        program: List[MicroOp],
        name: str = "controller",
        timeline: Optional[Timeline] = None,
    ):
        super().__init__(name)
        if not program:
            raise ValueError("empty microcode program")
        self.program = list(program)
        self.timeline = timeline or Timeline()
        self._index = 0
        self._remaining = self.program[0].cycles
        self._overlap_credit = 0
        self._started_at: Optional[int] = None
        self.done = False
        self.executed: List[Tuple[str, int, int]] = []

    @property
    def current_op(self) -> Optional[MicroOp]:
        if self.done:
            return None
        return self.program[self._index]

    def tick(self, cycle: int) -> None:
        if self.done:
            return
        op = self.program[self._index]
        if self._started_at is None:
            self._started_at = cycle
            self.timeline.begin(cycle, self.name, op.label)
        self._remaining -= 1
        if self._remaining > 0:
            return
        end = cycle + 1
        self.timeline.end(end, self.name, op.label)
        self.executed.append((op.label, self._started_at, end))
        self._advance(end)

    def _advance(self, now: int) -> None:
        self._index += 1
        self._started_at = None
        if self._index >= len(self.program):
            self.done = True
            return
        nxt = self.program[self._index]
        self._remaining = nxt.cycles
        if nxt.overlaps_previous:
            # A hidden phase retroactively costs nothing beyond the
            # phase it shadows: model by shrinking it to zero visible
            # cycles when it fits under the previous duration.
            prev = self.program[self._index - 1]
            hidden = min(nxt.cycles, prev.cycles)
            self._remaining = max(1, nxt.cycles - hidden)
            if nxt.cycles <= prev.cycles:
                self._remaining = 0
                self.timeline.begin(now, self.name, nxt.label)
                self.timeline.end(now, self.name, nxt.label)
                self.executed.append((nxt.label, now, now))
                self._advance(now)

    def total_cycles(self) -> int:
        """Visible (non-hidden) cycles of the whole program."""
        if not self.done:
            raise RuntimeError("program still running")
        return self.executed[-1][2] - self.executed[0][1]

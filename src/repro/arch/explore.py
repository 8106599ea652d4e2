"""Automated design-space exploration over :class:`ArchSpec`.

The paper reports one operating point; this module searches its
neighborhood.  A :class:`DesignSpace` enumerates candidate
configurations (PE count × FFT units × radix plan × exchange topology ×
dot/carry provisioning × clock), every candidate is priced through the
*same* cycle model the accelerator reports with
(:func:`repro.hw.accelerator.plan_schedule` + the pipelined
:class:`~repro.hw.accelerator.DistributedFFTBatchReport` schedule) on
two workloads — the paper's 64K SSA multiplication batch and an RLWE
ring-multiply batch — and the survivors are pruned to the Pareto
frontier of total cycles versus the spec's resource-census area proxy.

Evaluation runs through the :class:`repro.engine.jobs.JobScheduler`
(chunked sweep jobs over one engine), making the explorer a real
workload for the fault-tolerant runtime as well as a user-facing tool
(``repro arch sweep``).

Everything is deterministic: enumeration order is fixed, evaluation is
pure arithmetic, and two runs of :func:`explore` produce byte-identical
frontiers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.spec import (
    ArchSpec,
    TOPOLOGY_HYPERCUBE,
    TOPOLOGY_ALL_TO_ALL,
    TOPOLOGY_RING,
)


@dataclass(frozen=True)
class Workload:
    """One evaluation workload: a batch of transforms plus pointwise work.

    ``transform_rows`` rows of an ``n``-point transform stream through
    the batch pipeline (forward/inverse passes share one stage
    schedule), then ``products`` component-wise product + carry-recovery
    passes over ``n`` points run on the shared units.
    """

    name: str
    n: int
    transform_rows: int
    products: int
    #: Stage radices; ``None`` uses the plan cache's default
    #: factorization for ``n``.
    radices: Optional[Tuple[int, ...]] = None


#: The two standing evaluation workloads: the paper's 64K SSA
#: multiplication (8 products = 24 transform rows + 8 dot/carry passes)
#: and an RLWE-shaped ring-multiply batch (64 products over 4096-point
#: transforms).
PAPER_WORKLOAD = Workload("ssa-64k-x8", 65536, 24, 8)
RLWE_WORKLOAD = Workload("rlwe-4096-x64", 4096, 192, 64, radices=(64, 64))
DEFAULT_WORKLOADS: Tuple[Workload, ...] = (PAPER_WORKLOAD, RLWE_WORKLOAD)


@dataclass(frozen=True)
class DesignSpace:
    """The enumerable configuration space (axes × axes × …).

    Every axis is a tuple of options; :func:`enumerate_candidates`
    takes the cartesian product in a fixed order, so candidate lists —
    and therefore frontiers — are deterministic.
    """

    pes: Tuple[int, ...] = (2, 4, 8)
    fft_units: Tuple[int, ...] = (1, 2)
    dot_product_multipliers: Tuple[int, ...] = (32, 64)
    carry_words_per_cycle: Tuple[int, ...] = (16, 64)
    banks: Tuple[int, ...] = (16,)
    clock_ns: Tuple[float, ...] = (5.0,)
    topologies: Tuple[str, ...] = (
        TOPOLOGY_HYPERCUBE,
        TOPOLOGY_RING,
        TOPOLOGY_ALL_TO_ALL,
    )
    #: Radix factorizations for the paper 64K workload (other workloads
    #: keep their own plan).
    radix_plans_64k: Tuple[Tuple[int, ...], ...] = ((64, 64, 16), (16, 64, 64))
    #: Deterministic stride-sampling cap on the enumeration.
    max_candidates: int = 512

    def size(self) -> int:
        return (
            len(self.pes)
            * len(self.fft_units)
            * len(self.dot_product_multipliers)
            * len(self.carry_words_per_cycle)
            * len(self.banks)
            * len(self.clock_ns)
            * len(self.topologies)
            * len(self.radix_plans_64k)
        )


@dataclass(frozen=True)
class DesignPoint:
    """One candidate: an architecture plus the 64K radix factorization."""

    spec: ArchSpec
    radices_64k: Tuple[int, ...] = (64, 64, 16)


@dataclass(frozen=True)
class CandidateMetrics:
    """One evaluated candidate: objectives plus per-workload detail."""

    point: DesignPoint
    #: ``((workload_name, cycles), ...)`` in workload order.
    workload_cycles: Tuple[Tuple[str, int], ...]
    area_proxy: float

    @property
    def spec(self) -> ArchSpec:
        return self.point.spec

    @property
    def total_cycles(self) -> int:
        return sum(cycles for _, cycles in self.workload_cycles)

    @property
    def total_time_us(self) -> float:
        return self.total_cycles * self.spec.clock_ns / 1000.0

    def dominates(self, other: "CandidateMetrics") -> bool:
        """Pareto dominance: no worse on both objectives, better on one."""
        return (
            self.total_cycles <= other.total_cycles
            and self.area_proxy <= other.area_proxy
            and (
                self.total_cycles < other.total_cycles
                or self.area_proxy < other.area_proxy
            )
        )

    def strictly_faster_not_larger(self, other: "CandidateMetrics") -> bool:
        """The acceptance-criterion ordering: strictly fewer cycles at
        equal-or-lower area proxy."""
        return (
            self.total_cycles < other.total_cycles
            and self.area_proxy <= other.area_proxy
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "radices_64k": list(self.point.radices_64k),
            "workload_cycles": {
                name: cycles for name, cycles in self.workload_cycles
            },
            "total_cycles": self.total_cycles,
            "total_time_us": self.total_time_us,
            "area_proxy": self.area_proxy,
        }


def _spec_name(
    pes: int,
    units: int,
    dot: int,
    carry: int,
    banks: int,
    clock: float,
    topology: str,
    radices: Tuple[int, ...],
) -> str:
    radix_tag = "x".join(str(r) for r in radices)
    return (
        f"p{pes}-u{units}-d{dot}-c{carry}-b{banks}"
        f"-{topology}-r{radix_tag}-t{clock:g}"
    )


def enumerate_candidates(space: DesignSpace) -> List[DesignPoint]:
    """The space's candidate list, in deterministic axis-major order.

    Invalid combinations (a hypercube with a non-power-of-two PE
    count) are skipped; if the remainder exceeds
    ``space.max_candidates`` it is stride-sampled deterministically.
    """
    points: List[DesignPoint] = []
    for pes in space.pes:
        for units in space.fft_units:
            for dot in space.dot_product_multipliers:
                for carry in space.carry_words_per_cycle:
                    for banks in space.banks:
                        for clock in space.clock_ns:
                            for topology in space.topologies:
                                for radices in space.radix_plans_64k:
                                    try:
                                        spec = ArchSpec(
                                            name=_spec_name(
                                                pes, units, dot, carry,
                                                banks, clock, topology,
                                                radices,
                                            ),
                                            pes=pes,
                                            clock_ns=clock,
                                        ).with_overrides(
                                            fft_units=units,
                                            banks=banks,
                                            topology=topology,
                                            dot_product_multipliers=dot,
                                            carry_words_per_cycle=carry,
                                        )
                                    except ValueError:
                                        continue
                                    points.append(
                                        DesignPoint(spec, tuple(radices))
                                    )
    if len(points) > space.max_candidates:
        stride = -(-len(points) // space.max_candidates)
        points = points[::stride]
    return points


def _workload_plan(point: DesignPoint, workload: Workload):
    from repro.ntt.plan import PAPER_TRANSFORM_SIZE, plan_for_size

    radices = workload.radices
    if workload.n == PAPER_TRANSFORM_SIZE:
        radices = point.radices_64k
    return plan_for_size(workload.n, radices)


def evaluate_candidate(
    point: DesignPoint,
    workloads: Sequence[Workload] = DEFAULT_WORKLOADS,
) -> Optional[CandidateMetrics]:
    """Price one candidate through the accelerator's cycle model.

    Returns ``None`` for infeasible candidates (a stage's sub-transforms
    do not divide over the PEs).  The transform batch runs through the
    pipelined cross-row schedule; dot-product (with its pipeline fill,
    as the hw-model report prices it) and carry passes use the spec's
    shared-unit formulas.
    """
    # Deferred: repro.hw.accelerator imports this package at module
    # scope, so importing it here (first call is always post-init)
    # avoids the cycle.
    from repro.hw.accelerator import (
        DistributedFFTBatchReport,
        plan_schedule,
    )

    spec = point.spec
    cycles: List[Tuple[str, int]] = []
    for workload in workloads:
        plan = _workload_plan(point, workload)
        for radix, count in plan.sub_transform_counts():
            if count % spec.pes:
                return None
        per_row = plan_schedule(spec, plan)
        batch = DistributedFFTBatchReport(
            rows=workload.transform_rows,
            per_row=per_row,
            clock_ns=spec.clock_ns,
        )
        total = batch.total_cycles + workload.products * (
            spec.dot_product_cycles(workload.n)
            + spec.dot_product_fill_cycles
            + spec.carry_recovery_cycles(workload.n)
        )
        cycles.append((workload.name, total))
    return CandidateMetrics(
        point=point,
        workload_cycles=tuple(cycles),
        area_proxy=spec.area_proxy(),
    )


def pareto_frontier(
    metrics: Iterable[CandidateMetrics],
) -> List[CandidateMetrics]:
    """Non-dominated subset under (total cycles ↓, area proxy ↓).

    Sorted by cycles then area; ties on both objectives keep the first
    occurrence (deterministic for a deterministic input order).
    """
    pool = list(metrics)
    out: List[CandidateMetrics] = []
    seen: set = set()
    for candidate in sorted(
        pool, key=lambda m: (m.total_cycles, m.area_proxy)
    ):
        if any(other.dominates(candidate) for other in pool):
            continue
        key = (candidate.total_cycles, candidate.area_proxy)
        if key in seen:
            continue
        seen.add(key)
        out.append(candidate)
    return out


@dataclass(frozen=True)
class _SweepJob:
    """One chunk of candidate evaluations for the job scheduler."""

    points: Tuple[DesignPoint, ...]
    workloads: Tuple[Workload, ...]
    kind: str = "arch-sweep"

    def run(self, engine) -> List[Optional[CandidateMetrics]]:
        return [
            evaluate_candidate(point, self.workloads)
            for point in self.points
        ]


@dataclass
class ExplorationResult:
    """Everything one :func:`explore` run produced."""

    space: DesignSpace
    workloads: Tuple[Workload, ...]
    evaluated: List[CandidateMetrics]
    infeasible: int
    frontier: List[CandidateMetrics]
    paper: CandidateMetrics

    def dominating_paper(self) -> List[CandidateMetrics]:
        """Frontier members strictly faster than the paper point at
        equal-or-lower area proxy."""
        return [
            m
            for m in self.frontier
            if m.strictly_faster_not_larger(self.paper)
        ]

    def paper_on_frontier(self) -> bool:
        return any(
            m.spec == self.paper.spec
            and m.point.radices_64k == self.paper.point.radices_64k
            for m in self.frontier
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": 1,
            "space_size": self.space.size(),
            "evaluated": len(self.evaluated),
            "infeasible": self.infeasible,
            "workloads": [
                {
                    "name": w.name,
                    "n": w.n,
                    "transform_rows": w.transform_rows,
                    "products": w.products,
                }
                for w in self.workloads
            ],
            "paper": self.paper.to_dict(),
            "paper_on_frontier": self.paper_on_frontier(),
            "frontier": [m.to_dict() for m in self.frontier],
            "dominating_paper": [
                m.to_dict() for m in self.dominating_paper()
            ],
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self, limit: int = 12) -> str:
        lines = [
            f"design-space exploration: {len(self.evaluated)} candidate(s) "
            f"evaluated ({self.infeasible} infeasible), "
            f"frontier of {len(self.frontier)}",
            f"paper point: {self.paper.total_cycles:,} cycles "
            f"({self.paper.total_time_us:.1f} us), area proxy "
            f"{self.paper.area_proxy:,.0f} ALM-eq"
            + (" [on frontier]" if self.paper_on_frontier() else ""),
            f"{'config':<44} {'cycles':>12} {'time us':>9} {'area':>12}",
        ]
        for m in self.frontier[:limit]:
            marker = (
                " *" if m.strictly_faster_not_larger(self.paper) else ""
            )
            lines.append(
                f"{m.spec.name:<44} {m.total_cycles:>12,} "
                f"{m.total_time_us:>9.1f} {m.area_proxy:>12,.0f}{marker}"
            )
        if len(self.frontier) > limit:
            lines.append(f"... {len(self.frontier) - limit} more")
        dominating = self.dominating_paper()
        if dominating:
            best = dominating[0]
            saved = self.paper.total_cycles - best.total_cycles
            lines.append(
                f"* strictly dominates the paper point: best saves "
                f"{saved:,} cycles "
                f"({100.0 * saved / self.paper.total_cycles:.1f}%) at "
                f"{self.paper.area_proxy - best.area_proxy:,.0f} ALM-eq "
                f"less area"
            )
        else:
            lines.append(
                "no searched configuration strictly dominates the paper "
                "point"
            )
        return "\n".join(lines)


def paper_point() -> DesignPoint:
    """The DATE'16 operating point as a design point."""
    return DesignPoint(ArchSpec.paper_default(), (64, 64, 16))


def explore(
    space: Optional[DesignSpace] = None,
    workloads: Sequence[Workload] = DEFAULT_WORKLOADS,
    use_jobs: bool = True,
    chunk: int = 16,
) -> ExplorationResult:
    """Enumerate, evaluate and prune the design space.

    With ``use_jobs`` (the default) candidate chunks are submitted as
    :class:`_SweepJob` payloads to a private
    :class:`~repro.engine.jobs.JobScheduler`, exercising the
    fault-tolerant runtime; ``use_jobs=False`` evaluates inline (same
    results — evaluation is pure).
    """
    space = space if space is not None else DesignSpace()
    workloads = tuple(workloads)
    points = enumerate_candidates(space)
    results: List[Optional[CandidateMetrics]] = []
    if use_jobs and points:
        from repro.engine.jobs import JobScheduler

        chunks = [
            tuple(points[i : i + chunk])
            for i in range(0, len(points), chunk)
        ]
        with JobScheduler() as scheduler:
            handles = [
                scheduler.submit(_SweepJob(part, workloads))
                for part in chunks
            ]
            for handle in handles:
                results.extend(handle.result())
    else:
        results = [
            evaluate_candidate(point, workloads) for point in points
        ]
    evaluated = [m for m in results if m is not None]
    infeasible = len(results) - len(evaluated)
    paper = evaluate_candidate(paper_point(), workloads)
    if paper is None:  # pragma: no cover - the paper point is feasible
        raise RuntimeError("the paper design point must be feasible")
    pool = list(evaluated)
    if not any(
        m.spec == paper.spec and m.point.radices_64k == paper.point.radices_64k
        for m in pool
    ):
        pool.append(paper)
    frontier = pareto_frontier(pool)
    return ExplorationResult(
        space=space,
        workloads=workloads,
        evaluated=evaluated,
        infeasible=infeasible,
        frontier=frontier,
        paper=paper,
    )


def plot_frontier(result: ExplorationResult, path: str) -> Optional[str]:
    """Scatter every candidate, draw the frontier, mark the paper point.

    Best-effort: returns ``None`` (writing nothing) when matplotlib is
    unavailable, the path otherwise.
    """
    try:  # pragma: no cover - depends on the environment
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except Exception:  # pragma: no cover - headless fallback
        return None
    fig, ax = plt.subplots(figsize=(7.5, 5.0))
    xs = [m.area_proxy for m in result.evaluated]
    ys = [m.total_cycles for m in result.evaluated]
    ax.scatter(xs, ys, s=14, c="#9ecae1", label="candidates", zorder=2)
    fx = [m.area_proxy for m in result.frontier]
    fy = [m.total_cycles for m in result.frontier]
    order = sorted(range(len(fx)), key=lambda i: fx[i])
    ax.plot(
        [fx[i] for i in order],
        [fy[i] for i in order],
        "o-",
        color="#d62728",
        label="Pareto frontier",
        zorder=3,
    )
    ax.scatter(
        [result.paper.area_proxy],
        [result.paper.total_cycles],
        marker="*",
        s=220,
        color="#2ca02c",
        label="paper point",
        zorder=4,
    )
    ax.set_xlabel("area proxy (ALM-equivalents)")
    ax.set_ylabel("workload cycles (64K SSA x8 + RLWE x64)")
    ax.set_title("HE accelerator design space: cycles vs. area")
    ax.grid(True, alpha=0.3)
    ax.legend(loc="best")
    fig.tight_layout()
    fig.savefig(path, dpi=120)
    plt.close(fig)
    return path


__all__ = [
    "CandidateMetrics",
    "DesignPoint",
    "DesignSpace",
    "ExplorationResult",
    "PAPER_WORKLOAD",
    "RLWE_WORKLOAD",
    "DEFAULT_WORKLOADS",
    "Workload",
    "enumerate_candidates",
    "evaluate_candidate",
    "explore",
    "paper_point",
    "pareto_frontier",
    "plot_frontier",
]

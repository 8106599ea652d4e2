#!/usr/bin/env python3
"""Architecture specs and automated design-space exploration.

Walkthrough of :mod:`repro.arch`, the declarative layer over the
cycle/resource hardware model:

1. **the paper spec** — :meth:`ArchSpec.paper_default` reproduces the
   DATE'16 operating point (4 PEs, 16-bank memories, hypercube
   exchange) and answers derived questions: aggregate exchange
   bandwidth, bisection width, and an ALM-equivalent area proxy;
2. **what-if edits** — :meth:`ArchSpec.with_overrides` derives
   variants (more PEs, a ring exchange) without touching the model
   code, and JSON round-trips make specs file-able artifacts;
3. **automated exploration** — :func:`repro.arch.explore.explore`
   enumerates a :class:`DesignSpace`, prices every candidate on the
   paper 64K-SSA and RLWE workloads, and returns the Pareto frontier
   of total cycles vs area — including whether anything strictly
   dominates the paper point.

Run:  python examples/design_space.py
"""

from repro.arch import ArchSpec, DesignSpace, explore


def main() -> None:
    print("=== the DATE'16 operating point, declaratively ===\n")
    paper = ArchSpec.paper_default()
    print(paper.render())
    print(
        f"\naggregate exchange bandwidth: "
        f"{paper.aggregate_bandwidth_words_per_cycle()} words/cycle"
        f"\nbisection width: "
        f"{paper.bisection_words_per_cycle()} words/cycle"
        f"\narea proxy: {paper.area_proxy():,.0f} ALM-eq"
    )

    print("\n=== what-if variants via with_overrides ===\n")
    for spec in (
        paper.with_overrides(pes=8, name="hypercube-p8"),
        paper.with_overrides(topology="ring", name="ring-p4"),
        paper.with_overrides(fft_units=2, name="dual-unit-p4"),
    ):
        print(
            f"  {spec.name:<14} area {spec.area_proxy():>10,.0f} ALM-eq, "
            f"bisection {spec.bisection_words_per_cycle():>3} words/cycle"
        )
    restored = ArchSpec.from_json(paper.to_json())
    print(f"\nJSON round-trip is exact: {restored == paper}")

    print("\n=== automated design-space exploration ===\n")
    # A trimmed space keeps the example quick; the full default space
    # (144 candidates) is what `repro arch sweep` runs.
    space = DesignSpace(max_candidates=48)
    result = explore(space)
    print(result.render(limit=8))

    dominating = result.dominating_paper()
    if dominating:
        best = dominating[0]
        print(
            f"\ntakeaway: {best.spec.name} delivers the same 64K "
            f"schedule with fewer cycles overall at lower area — the "
            f"paper point trades a little of both for symmetric "
            f"4-PE scaling headroom"
        )


if __name__ == "__main__":
    main()

"""Command-line interface: ``python -m repro.cli <command>``.

Every compute command is a thin shell over one
:class:`repro.engine.Engine`: the ``--pes`` / ``--workers`` /
``--backend`` flags build an
:class:`~repro.engine.config.ExecutionConfig` (``--pes`` its
:class:`~repro.arch.spec.ArchSpec`), and the command body just calls
the engine.

Commands:

- ``table1`` — regenerate the Table I resource census;
- ``table2`` — regenerate the Table II timing comparison;
- ``fft`` — simulate a distributed NTT and print the stage schedule;
- ``multiply`` — run SSA multiplication (random operands of a chosen
  width) on the ``hw-model`` backend (cycle report) or ``software``
  backend; ``--count N`` runs an N-product batch through the batched
  execution engine and reports ops/sec;
- ``scaling`` — PE scaling sweep;
- ``deployments`` — compare the Stratix V and Cyclone V realizations;
- ``batch`` — batch-pipelined throughput schedule (hardware model);
- ``throughput`` — measure looped vs batched software multiplication
  and cross-check against the hardware macro-pipeline model.
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import List, Optional


def _config(args: argparse.Namespace, backend: str = "software"):
    """The ``(ExecutionConfig, backend name)`` the command flags describe."""
    from repro.arch import ArchSpec
    from repro.engine import ExecutionConfig

    pes = getattr(args, "pes", None)
    overrides = {"arch": ArchSpec.paper_variant(pes=pes)}
    workers = getattr(args, "workers", None)
    if workers is not None:
        overrides["workers"] = workers
        # --workers implies the sharding backend unless one was named
        # (workers=1 included: the user asked for the mp path).
        if backend == "software":
            backend = "software-mp"
    return ExecutionConfig(**overrides), backend


def _engine(args: argparse.Namespace, backend: str = "software"):
    """Build the Engine the command flags describe."""
    from repro.engine import Engine

    config, backend = _config(args, backend)
    return Engine(config=config, backend=backend)


def _cmd_table1(args: argparse.Namespace) -> None:
    from repro.hw.reports import table1_report

    print(table1_report(pes=args.pes).render())


def _cmd_table2(args: argparse.Namespace) -> None:
    from repro.hw.reports import table2_report

    print(table2_report().render())


def _cmd_fft(args: argparse.Namespace) -> None:
    from repro.field.solinas import P
    from repro.field.vector import to_field_array

    rng = random.Random(args.seed)
    accelerator = _engine(args, backend="hw-model").hardware()
    data = to_field_array([rng.randrange(P) for _ in range(65536)])
    _, report = accelerator.distributed_ntt(data)
    print(report.render())


def _cmd_multiply(args: argparse.Namespace) -> None:
    rng = random.Random(args.seed)
    if args.count < 1:
        raise SystemExit("error: --count must be >= 1")
    if args.count > 1:
        import time

        if args.pes is not None and args.backend != "hw-model":
            print(
                "note: --pes applies to the hardware model only and is "
                "ignored for --count > 1"
            )
        engine = _engine(args, backend=args.backend or "software")
        operands_a = [rng.getrandbits(args.bits) for _ in range(args.count)]
        operands_b = [rng.getrandbits(args.bits) for _ in range(args.count)]
        # Warm plans AND the full mp pool: one batch item per worker
        # (floor 2 to cross the shard threshold), so process spawn and
        # per-worker engine/plan builds stay out of the timed region.
        workers_of = getattr(engine.backend, "workers", None)
        warm_target = workers_of(engine) if workers_of else 2
        warm = min(args.count, max(2, warm_target))
        engine.multiply(operands_a[:warm], operands_b[:warm])
        start = time.perf_counter()
        products = engine.multiply(operands_a, operands_b)
        elapsed = time.perf_counter() - start
        engine.close()
        ok = products == [a * b for a, b in zip(operands_a, operands_b)]
        status = "OK" if ok else "MISMATCH"
        print(
            f"batch of {args.count} {args.bits}-bit products: {status} "
            f"in {elapsed * 1e3:.1f} ms "
            f"({args.count / elapsed:.1f} ops/s)"
        )
        if not ok:
            raise SystemExit(1)
        return
    # --workers selects software-mp even for a single product (which
    # then runs inline below the shard floor) — never silently ignored.
    default_backend = "software" if args.workers is not None else "hw-model"
    engine = _engine(args, backend=args.backend or default_backend)
    a = rng.getrandbits(args.bits)
    b = rng.getrandbits(args.bits)
    product, report = engine.multiply_with_report(a, b)
    status = "OK" if product == a * b else "MISMATCH"
    print(f"{args.bits}-bit x {args.bits}-bit product: {status}")
    if report is not None:
        print(report.render())
    if status != "OK":
        raise SystemExit(1)


def _cmd_scaling(args: argparse.Namespace) -> None:
    from repro.analysis.sweep import pe_scaling_sweep

    print(f"{'PEs':>4} {'T_FFT us':>10} {'T_MULT us':>11} {'eff':>6}")
    for point in pe_scaling_sweep():
        print(
            f"{point.pes:>4} {point.fft_us:>10.2f} {point.mult_us:>11.2f} "
            f"{point.parallel_efficiency:>5.0%}"
        )


def _cmd_deployments(args: argparse.Namespace) -> None:
    from repro.hw.deployment import (
        CYCLONE_MULTI_BOARD,
        STRATIX_ON_CHIP,
        evaluate_deployment,
    )

    for spec in (CYCLONE_MULTI_BOARD, STRATIX_ON_CHIP):
        report = evaluate_deployment(spec)
        print(report.render())
        print(
            f"  T_MULT = {report.multiplication_time_us(65536):.2f} us\n"
        )


def _cmd_batch(args: argparse.Namespace) -> None:
    from repro.hw.batch import schedule_batch

    print(schedule_batch(args.count).render())


def _cmd_throughput(args: argparse.Namespace) -> None:
    import contextlib

    from repro.hw.batch import measure_software_batch, schedule_batch

    inject_spec = getattr(args, "inject", None)
    if inject_spec and getattr(args, "workers", None) is None:
        # Fault injection targets the sharded path; a single-process
        # run has no workers to kill.
        args.workers = 2
    engine = _engine(args)
    scope = contextlib.nullcontext()
    if inject_spec:
        from repro.engine import faultinject

        scope = faultinject.inject(inject_spec)
    try:
        with scope:
            comparison = measure_software_batch(
                bits=args.bits,
                count=args.count,
                seed=args.seed,
                engine=engine,
            )
        fault_report = getattr(engine.backend, "fault_report", None)
    finally:
        engine.close()
    print(comparison.render())
    if inject_spec and fault_report is not None:
        print()
        print(fault_report.render())
    print()
    print(schedule_batch(args.count).render())


def _cmd_serve(args: argparse.Namespace) -> None:
    from repro.serve import ServiceConfig, run_server

    engine_config, backend = _config(args, args.backend or "software")
    try:
        config = ServiceConfig(
            # A lone --max-queue below the per-tenant default just
            # tightens both bounds.
            max_queue_per_tenant=min(
                args.max_queue_per_tenant, args.max_queue
            ),
            max_queue_global=args.max_queue,
            job_timeout_s=args.job_timeout,
        )
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None

    def on_ready(server) -> None:
        print(
            f"repro service listening on {server.host}:{server.port} "
            f"(backend {backend})",
            flush=True,
        )

    run_server(
        engine_config,
        backend=backend,
        host=args.host,
        port=args.port,
        config=config,
        max_requests=args.max_requests,
        on_ready=on_ready,
    )
    print("service stopped")


def _cmd_client(args: argparse.Namespace) -> None:
    import json

    from repro.serve import TCPServiceClient, render_stats

    with TCPServiceClient(
        args.host, args.port, tenant=getattr(args, "tenant", "default")
    ) as client:
        if args.client_command == "stats":
            snapshot = client.stats()
            if args.json:
                print(json.dumps(snapshot, indent=2, sort_keys=True))
            else:
                print(render_stats(snapshot))
            return
        # submit
        raw = args.payload
        if raw == "-":
            raw = sys.stdin.read()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise SystemExit(f"error: payload is not JSON: {error}") from None
        response = client.request(
            args.op,
            payload,
            priority=args.priority,
            timeout=args.timeout,
        )
        body = {
            "status": response.status,
            "coalesced": response.coalesced,
            "latency_s": response.latency_s,
        }
        if response.ok:
            body["result"] = response.result
        else:
            body["error"] = response.error
            body["error_type"] = response.error_type
        print(json.dumps(body))
        if not response.ok:
            raise SystemExit(1)


def _cmd_arch_show(args: argparse.Namespace) -> None:
    import json

    from repro.arch import ArchSpec

    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = ArchSpec.from_json(handle.read())
    else:
        spec = ArchSpec.paper_variant(pes=args.pes, topology=args.topology)
    if args.json:
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
        return
    print(spec.render())
    from repro.hw.timing import AcceleratorTiming

    timing = AcceleratorTiming(spec)
    print(
        f"  closed-form timing: T_FFT {timing.fft_time_us():.2f} us, "
        f"T_MULT {timing.multiplication_time_us():.2f} us"
    )


def _cmd_arch_sweep(args: argparse.Namespace) -> None:
    from repro.arch import DesignSpace, explore, plot_frontier

    space = DesignSpace(max_candidates=args.max_candidates)
    result = explore(space=space)
    print(result.render(limit=args.limit))
    if args.pareto is not None:
        with open(args.pareto, "w", encoding="utf-8") as handle:
            handle.write(result.to_json())
            handle.write("\n")
        print(f"frontier written to {args.pareto}")
    if args.plot is not None:
        written = plot_frontier(result, args.plot)
        if written is None:
            print("plot skipped (matplotlib unavailable)")
        else:
            print(f"frontier plot written to {written}")


def _cmd_verify(args: argparse.Namespace) -> None:
    from repro.verify import run_self_check

    ok, _ = run_self_check(verbose=True)
    if not ok:
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DATE 2016 HE-accelerator reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="resource census (Table I)")
    p1.add_argument("--pes", type=int, default=4)
    p1.set_defaults(func=_cmd_table1)

    p2 = sub.add_parser("table2", help="timing comparison (Table II)")
    p2.set_defaults(func=_cmd_table2)

    pf = sub.add_parser("fft", help="simulate a 64K distributed NTT")
    pf.add_argument("--pes", type=int, default=4)
    pf.add_argument("--seed", type=int, default=0)
    pf.set_defaults(func=_cmd_fft)

    pm = sub.add_parser("multiply", help="accelerated multiplication(s)")
    pm.add_argument("--bits", type=int, default=786_432)
    pm.add_argument(
        "--pes",
        type=int,
        default=None,
        help="PE count for the hardware model (single-product path)",
    )
    pm.add_argument("--seed", type=int, default=0)
    pm.add_argument(
        "--count",
        type=int,
        default=1,
        help="batch size; >1 uses the batched execution engine",
    )
    pm.add_argument(
        "--backend",
        choices=["software", "software-mp", "hw-model"],
        default=None,
        help=(
            "compute backend (default: hw-model with its cycle report "
            "for a single product, software for --count > 1; "
            "software-mp shards the batch over worker processes)"
        ),
    )
    pm.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for software-mp (default: one per usable "
            "CPU); setting it without --backend selects software-mp"
        ),
    )
    pm.set_defaults(func=_cmd_multiply)

    ps = sub.add_parser("scaling", help="PE scaling sweep")
    ps.set_defaults(func=_cmd_scaling)

    pd = sub.add_parser("deployments", help="prototype vs final platform")
    pd.set_defaults(func=_cmd_deployments)

    pb = sub.add_parser("batch", help="batch-pipelined throughput")
    pb.add_argument("--count", type=int, default=16)
    pb.set_defaults(func=_cmd_batch)

    pt = sub.add_parser(
        "throughput", help="measured software batch throughput vs model"
    )
    pt.add_argument("--bits", type=int, default=4096)
    pt.add_argument("--count", type=int, default=32)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "measure the batched path on the software-mp backend with "
            "this many worker processes (default: single-process)"
        ),
    )
    pt.add_argument(
        "--inject",
        type=str,
        default=None,
        metavar="SPEC",
        help=(
            "arm the runtime fault-injection harness for the measured "
            "run (e.g. 'worker-kill', 'worker-kill:1', "
            "'shard-delay:0:0.5'); implies --workers 2 when --workers "
            "is not given, and prints the backend's fault report"
        ),
    )
    pt.set_defaults(func=_cmd_throughput)

    pserve = sub.add_parser(
        "serve", help="run the multi-tenant TCP compute service"
    )
    pserve.add_argument("--host", default="127.0.0.1")
    pserve.add_argument(
        "--port",
        type=int,
        default=7100,
        help="TCP port (0 binds an ephemeral port)",
    )
    pserve.add_argument(
        "--backend",
        choices=["software", "software-mp", "hw-model"],
        default=None,
        help="compute backend behind the service (default: software)",
    )
    pserve.add_argument(
        "--workers",
        type=int,
        default=None,
        help=(
            "worker processes for software-mp; setting it without "
            "--backend selects software-mp"
        ),
    )
    pserve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="global queued-request bound (overload is REJECTED)",
    )
    pserve.add_argument(
        "--max-queue-per-tenant",
        type=int,
        default=64,
        help="per-tenant queued-request bound",
    )
    pserve.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="deadline (s) for each batched engine job",
    )
    pserve.add_argument(
        "--max-requests",
        type=int,
        default=None,
        help="exit after answering this many submits (CI smoke)",
    )
    pserve.set_defaults(func=_cmd_serve)

    pclient = sub.add_parser(
        "client", help="talk to a running repro service"
    )
    csub = pclient.add_subparsers(dest="client_command", required=True)
    csubmit = csub.add_parser(
        "submit", help="submit one job and print its JSON response"
    )
    csubmit.add_argument("--host", default="127.0.0.1")
    csubmit.add_argument("--port", type=int, default=7100)
    csubmit.add_argument("--tenant", default="default")
    csubmit.add_argument("--priority", type=int, default=0)
    csubmit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="request deadline in seconds",
    )
    csubmit.add_argument(
        "--op",
        required=True,
        choices=[
            "multiply",
            "ring-transform",
            "convolve",
            "dghv-mult",
            "rlwe-multiply-plain",
            "rlwe-multiply",
        ],
    )
    csubmit.add_argument(
        "--payload",
        required=True,
        help="JSON payload for the op ('-' reads stdin)",
    )
    csubmit.set_defaults(func=_cmd_client)
    cstats = csub.add_parser(
        "stats", help="print the service metrics snapshot"
    )
    cstats.add_argument("--host", default="127.0.0.1")
    cstats.add_argument("--port", type=int, default=7100)
    cstats.add_argument(
        "--json",
        action="store_true",
        help="raw JSON instead of the rendered table",
    )
    cstats.set_defaults(func=_cmd_client)

    parch = sub.add_parser(
        "arch", help="architecture specs and design-space exploration"
    )
    asub = parch.add_subparsers(dest="arch_command", required=True)
    ashow = asub.add_parser(
        "show", help="render a spec and its derived quantities"
    )
    ashow.add_argument(
        "--spec",
        type=str,
        default=None,
        help="JSON spec file (default: the paper configuration)",
    )
    ashow.add_argument(
        "--pes",
        type=int,
        default=None,
        help="override the PE count of the default spec",
    )
    ashow.add_argument(
        "--topology",
        choices=["hypercube", "ring", "all-to-all"],
        default=None,
        help="override the exchange topology of the default spec",
    )
    ashow.add_argument(
        "--json",
        action="store_true",
        help="emit the spec as JSON instead of the rendered summary",
    )
    ashow.set_defaults(func=_cmd_arch_show)
    asweep = asub.add_parser(
        "sweep", help="explore the design space and print the frontier"
    )
    asweep.add_argument(
        "--pareto",
        type=str,
        default=None,
        metavar="OUT.JSON",
        help="write the full exploration result as JSON",
    )
    asweep.add_argument(
        "--plot",
        type=str,
        default=None,
        metavar="OUT.PNG",
        help="write a cycles-vs-area frontier plot (best-effort)",
    )
    asweep.add_argument(
        "--max-candidates",
        type=int,
        default=512,
        help="deterministic stride-sampling cap on the enumeration",
    )
    asweep.add_argument(
        "--limit",
        type=int,
        default=12,
        help="frontier rows to print",
    )
    asweep.set_defaults(func=_cmd_arch_sweep)

    pv = sub.add_parser("verify", help="run the end-to-end self-check")
    pv.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())

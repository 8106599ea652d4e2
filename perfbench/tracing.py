"""Span recording for the traced run, from outside the library.

The traced run replaces public functions of the library with timing
wrappers.  Callers bind names at import (``repro.ssa.multiplier`` holds
its own reference to ``execute_plan_batch``), so a wrapper goes on the
*caller's* binding; ``check_wrappers`` then proves that every wrapper a
workload needs recorded at least one call.

A span records its name, start, end, parent span (the enclosing span
on the same thread), the run phase and a few attributes: the wire
request id on the serve side, and the member request ids of a
coalesced job.  Spans stay in memory until the run ends; ``workload.py``
then aggregates them into the per-layer metrics and writes them out.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import pickle
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Tuple

import spec

#: The fields of an exported span row.
COLUMNS = ["wrapper", "name", "start", "end", "parent", "phase", "attrs"]

#: (wire request id, op name) of the serve request being handled.
_REQUEST = contextvars.ContextVar("perfbench_request", default=(None, None))


class Span:
    __slots__ = ("wrapper", "name", "start", "end", "parent", "phase", "attrs")

    def __init__(self, wrapper, parent, phase):
        self.wrapper = wrapper
        self.parent = parent
        self.phase = phase
        self.attrs = None


class Recorder:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: "setup", then "timed" inside measured operations and "check"
        #: around the oracle checks between them.
        self.phase = "setup"
        #: Request ids of the coalesced batch the service is running.
        self.members: Tuple = ()
        self.last_shards: List[slice] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, wrapper_id: str, fn: Callable, label: Callable) -> Callable:
        """``fn`` recording one span per call; ``label(args, result)``
        returns the span's ``(name, attrs)`` once the call has ended."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(wrapper_id, stack[-1] if stack else None, self.phase)
            stack.append(span)
            result = None
            span.start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.monotonic()
                stack.pop()
                span.name, span.attrs = label(args, result)
                self.spans.append(span)

        return wrapper

    def export(self) -> List[list]:
        """Spans as rows of :data:`COLUMNS`; ``parent`` is a row index
        or -1, times are ``time.monotonic()`` seconds."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [s.wrapper, s.name, s.start, s.end,
             index.get(id(s.parent), -1), s.phase, s.attrs]
            for s in self.spans
        ]


def _static(name: str) -> Callable:
    return lambda args, result: (name, None)


def _rows(name: str) -> Callable:
    return lambda args, result: (name, {"rows": int(args[0].shape[0])})


def _decode_body(args, result):
    message = result if isinstance(result, dict) else {}
    op = message.get("op") if message.get("type") == "submit" else None
    return f"serve.decode.{op}", {"id": message.get("id")}


def _decode_op(args, result):
    return f"serve.decode.{args[0]}", {"id": _REQUEST.get()[0]}


def _encode_result(args, result):
    return f"serve.encode.{args[0].name}", {"id": _REQUEST.get()[0]}


def _encode_frame(args, result):
    request_id, op = _REQUEST.get()
    return f"serve.encode.{op}", {"id": request_id}


#: wrapper id (``module:attribute``) -> span label.
COMPUTE = {
    "repro.ssa.multiplier:execute_plan_batch": _rows("ntt.forward"),
    "repro.ssa.multiplier:execute_plan_inverse_batch": _rows("ntt.inverse"),
    "repro.engine.backends:execute_plan_batch": _rows("ntt.forward"),
    "repro.engine.backends:execute_plan_inverse_batch": _rows("ntt.inverse"),
    "repro.ntt.staged:vmul": _static("field.mulreduce"),
    "repro.ssa.multiplier:pointwise_mul": _static("field.mulreduce"),
    "repro.engine.ring:vmul": _static("field.mulreduce"),
    "repro.fhe.rlwe:vmul": _static("field.mulreduce"),
    "repro.ntt.plan:_build": _static("ntt.plan.build"),
    "repro.ntt.plan:_fuse_negacyclic": _static("ntt.plan.build"),
    "repro.ntt.plan:_decimate": _static("ntt.plan.build"),
    "repro.ssa.multiplier:decompose_many": _static("ssa.decompose"),
    "repro.ssa.multiplier:carry_recover_many": _static("ssa.carry"),
    "repro.ssa.multiplier:recompose_many": _static("ssa.recompose"),
    "repro.fhe.rlwe:RLWE.keygen": _static("rlwe.keygen"),
    "repro.fhe.rlwe:RLWE.encrypt_many": _static("rlwe.encrypt"),
    "repro.fhe.rlwe:RLWE.tensor_many": _static("rlwe.tensor"),
    "repro.fhe.rlwe:RLWE.relinearize_many": _static("rlwe.relinearize"),
    "repro.fhe.rlwe:RLWE.mod_switch_many": _static("rlwe.mod_switch"),
    "repro.fhe.rlwe:RLWE.decrypt_many": _static("rlwe.decrypt"),
}

SERVE = {
    "repro.serve.protocol:decode_body": _decode_body,
    "repro.serve.service:decode_op": _decode_op,
    "repro.serve.ops:MultiplyOp.encode_result": _encode_result,
    "repro.serve.ops:RLWEMultiplyOp.encode_result": _encode_result,
    "repro.serve.protocol:encode_frame": _encode_frame,
}

STAGE_EXECUTOR = "repro.ntt.staged:stage_executor"
MP_MULTIPLY = "repro.engine.backends:SoftwareMPBackend.multiply_many"
MP_SHARDS = "repro.engine.backends:SoftwareMPBackend._shards"
JOB_RUNS = (
    "repro.engine.jobs:MultiplyJob.run",
    "repro.engine.jobs:RLWEMultiplyJob.run",
)

_SSA = [w for w in COMPUTE if w.startswith("repro.ssa.multiplier:")]
_PLAN = ["repro.ntt.plan:_build", "repro.ntt.plan:_decimate"]
_RLWE = [w for w in COMPUTE if w.startswith("repro.fhe.rlwe:RLWE.")]
_ENGINE_NTT = [
    "repro.engine.backends:execute_plan_batch",
    "repro.engine.backends:execute_plan_inverse_batch",
]

#: Wrappers each workload must see called at least once.
EXPECTED = {
    "ssa-paper": _SSA + _PLAN + [STAGE_EXECUTOR, "repro.ntt.staged:vmul"],
    "ssa-mp": _PLAN + [MP_MULTIPLY, MP_SHARDS],
    "rlwe-depth2": _RLWE + _PLAN + _ENGINE_NTT + [
        STAGE_EXECUTOR,
        "repro.ntt.staged:vmul",
        "repro.engine.ring:vmul",
        "repro.fhe.rlwe:vmul",
        "repro.ntt.plan:_fuse_negacyclic",
    ],
    "serve-mixed": list(SERVE) + list(JOB_RUNS) + _SSA + _ENGINE_NTT + [
        STAGE_EXECUTOR,
        "repro.fhe.rlwe:RLWE.tensor_many",
        "repro.fhe.rlwe:RLWE.relinearize_many",
    ],
}


def _resolve(target: str):
    module, _, attribute = target.partition(":")
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _wrap(recorder: Recorder, target: str, label: Callable) -> None:
    owner, name = _resolve(target)
    setattr(owner, name, recorder.timed(target, getattr(owner, name), label))


def install(recorder: Recorder, serve: bool = False) -> None:
    """Put the timing wrappers on every listed binding."""
    for target, label in COMPUTE.items():
        _wrap(recorder, target, label)

    owner, name = _resolve(STAGE_EXECUTOR)
    stage_executor = getattr(owner, name)
    timed_kernels: Dict[Callable, Callable] = {}

    def timed_stage_executor(kernel_name):
        kernel = stage_executor(kernel_name)
        if kernel not in timed_kernels:
            timed_kernels[kernel] = recorder.timed(
                STAGE_EXECUTOR, kernel, _static("ntt.stage_dft")
            )
        return timed_kernels[kernel]

    setattr(owner, name, timed_stage_executor)

    def shards_label(args, result):
        recorder.last_shards = list(result)
        return "engine.mp.shard_plan", {"shards": len(result)}

    def mp_label(args, result):
        # Computed, not measured: the pickled size of what crosses the
        # pipe for each shard (operand pairs out, products back).
        _, _, multiplier, pairs = args
        products = result[0] if result else []
        moved = 0
        for shard in recorder.last_shards:
            moved += len(pickle.dumps((multiplier.params, pairs[shard], "")))
            moved += len(pickle.dumps(products[shard]))
        recorder.last_shards = []
        return "engine.mp.wait", {"bytes": moved}

    _wrap(recorder, MP_SHARDS, shards_label)
    _wrap(recorder, MP_MULTIPLY, mp_label)

    def job_label(args, result):
        return f"jobs.run.{args[0].kind}", {"members": list(recorder.members)}

    for target in JOB_RUNS:
        _wrap(recorder, target, job_label)

    if serve:
        _install_serve(recorder)


def _install_serve(recorder: Recorder) -> None:
    for target, label in SERVE.items():
        _wrap(recorder, target, label)

    from repro.serve.scheduler import ServiceScheduler
    from repro.serve.service import ServiceServer

    respond = ServiceServer._respond
    execute_batch = ServiceScheduler._execute_batch

    async def tagged_respond(self, message, writer, write_lock):
        # Runs in its own task, so the tag stays with this request.
        _REQUEST.set((message.get("id"), message.get("op")))
        await respond(self, message, writer, write_lock)

    def tagged_execute_batch(self, batch):
        # One dispatcher thread runs batches serially and waits for each
        # job, so the job span reads the members of its own batch.
        recorder.members = tuple(r.request_id for r in batch)
        return execute_batch(self, batch)

    ServiceServer._respond = tagged_respond
    ServiceScheduler._execute_batch = tagged_execute_batch


def check_wrappers(rows: Iterable[list], workload: str) -> List[str]:
    """Listed wrappers of ``workload`` that recorded no call."""
    seen = {row[0] for row in rows}
    return [w for w in EXPECTED[workload] if w not in seen]


def self_times(rows: List[list]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for row in rows:
        if row[4] >= 0:
            children[row[4]].append((row[2], row[3]))
    out = []
    for i, row in enumerate(rows):
        start, end = row[2], row[3]
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(i, ())):
            child_start = max(child_start, cursor)
            child_end = min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        out.append(max(0.0, end - start - covered))
    return out


def layer_metrics(rows: List[list], include: Callable[[list], bool]) -> Dict[str, float]:
    """Per-layer metrics from span rows; ``include(row)`` selects the
    spans of the timed window (set-up layers count whatever it says).

    Also returns the total self time of the selected spans under the
    key ``"_covered_s"``.
    """
    metrics = {name: 0 for name, _ in spec.PER_LAYER}
    covered = 0.0
    for row, self_s in zip(rows, self_times(rows)):
        name, attrs = row[1], row[6] or {}
        selected = include(row)
        if not (selected or (name in spec.SETUP_LAYERS and row[5] != "after")):
            continue
        if selected:
            covered += self_s
        if name == "ntt.plan.build":
            metrics["ntt.plan.builds"] += 1
            metrics["ntt.plan.build_s"] += self_s
        elif name == "engine.mp.wait":
            metrics["engine.mp.wait_s"] += self_s
            metrics["engine.mp.bytes_moved"] += attrs["bytes"]
        elif name == "engine.mp.shard_plan":
            metrics["engine.mp.shards"] += attrs["shards"]
        elif name + ".s" in metrics:
            metrics[name + ".s"] += self_s
        if name in ("ntt.forward", "ntt.inverse"):
            metrics[name + ".calls"] += 1
            metrics[name + ".rows"] += attrs["rows"]
    metrics["_covered_s"] = covered
    return metrics

"""Deterministic runtime fault injection for the ``software-mp`` path.

``tests/test_fault_injection.py`` proves corrupted *hardware state* is
detected; this harness extends the same discipline to the *runtime*:
it arms injection points that kill a worker on a chosen shard, delay a
shard past its deadline, or flip a bit in a shard result before
reassembly — so the recovery paths in
:class:`~repro.engine.backends.SoftwareMPBackend` and
:class:`~repro.engine.jobs.JobScheduler` can be proven end to end.

Everything is deterministic.  Faults are keyed to *parent-side shard
indices* (which are a pure function of batch size and worker count via
:func:`repro.ssa.multiplier.split_batch`), never to wall-clock or
randomness.  The kill/delay directive travels to the worker inside the
shard's task payload, so it behaves identically under ``fork`` and
``spawn`` and never leaks across a pool respawn: a one-shot fault is
consumed in the parent the moment its shard is submitted, so the
replayed shard runs clean.

Activation is programmatic only — ``with faultinject.inject("worker-kill:0"):
...`` or :func:`activate` / :func:`deactivate` with a :class:`FaultPlan`;
``repro throughput --inject`` goes through :func:`inject` too.  Nothing
reads the environment, so no inherited setting can arm a fault.

Spec grammar (comma-separated clauses)::

    worker-kill[:SHARD]          SIGKILL the worker running shard N (default 0)
    shard-delay[:SHARD[:SECS]]   sleep SECS in shard N (defaults 0, 2.0)
    corrupt-shard[:SHARD]        flip one bit of shard N's result (default 0)
    repeat                       re-arm after firing (default: one-shot)

With the default one-shot arming a kill fires exactly once — the
respawned pool replays the shard clean.  ``repeat`` keeps re-firing on
every replay, which is how the tests exhaust ``max_respawns`` and
force graceful degradation.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

#: Directives understood by the worker side
#: (:func:`repro.engine.mp.apply_inject`).
DIRECTIVE_KILL = "kill"
DIRECTIVE_DELAY = "delay"  # serialized as "delay:<seconds>"


@dataclass
class FaultPlan:
    """An armed set of injection points (mutable: arms are consumed).

    ``None`` disables a fault; a shard index arms it.  One plan is
    active at a time (module-global), mirroring how an operator flips
    one chaos experiment on at a time.
    """

    kill_on_shard: Optional[int] = None
    delay_on_shard: Optional[int] = None
    delay_s: float = 2.0
    corrupt_on_shard: Optional[int] = None
    #: ``False`` (default): each fault fires once, then disarms —
    #: replayed shards run clean.  ``True``: faults re-fire on every
    #: matching shard (used to exhaust ``max_respawns``).
    repeat: bool = False
    _fired: dict = field(default_factory=dict, repr=False)

    def _fires(self, fault: str, armed: Optional[int], index: int) -> bool:
        if armed is None or armed != index:
            return False
        if self.repeat:
            return True
        if self._fired.get(fault):
            return False
        self._fired[fault] = True
        return True

    def directive_for_shard(self, index: int) -> str:
        """The worker-side directive for shard ``index`` (consuming)."""
        if self._fires("kill", self.kill_on_shard, index):
            return DIRECTIVE_KILL
        if self._fires("delay", self.delay_on_shard, index):
            return f"{DIRECTIVE_DELAY}:{self.delay_s}"
        return ""

    def should_corrupt(self, index: int) -> bool:
        """Whether shard ``index``'s result gets one bit flipped."""
        return self._fires("corrupt", self.corrupt_on_shard, index)


def parse_spec(spec: str) -> FaultPlan:
    """Parse the spec grammar (see module docstring) into a plan."""
    plan = FaultPlan()
    armed = False
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        parts = clause.split(":")
        name, args = parts[0], parts[1:]
        try:
            if name == "worker-kill":
                plan.kill_on_shard = int(args[0]) if args else 0
            elif name == "shard-delay":
                plan.delay_on_shard = int(args[0]) if args else 0
                if len(args) > 1:
                    plan.delay_s = float(args[1])
            elif name == "corrupt-shard":
                plan.corrupt_on_shard = int(args[0]) if args else 0
            elif name == "repeat":
                plan.repeat = True
            else:
                raise ValueError(f"unknown fault clause {name!r}")
        except (IndexError, ValueError) as error:
            if "unknown fault clause" in str(error):
                raise
            raise ValueError(
                f"malformed fault clause {clause!r}: {error}"
            ) from None
        armed = True
    if not armed:
        raise ValueError(f"empty fault spec {spec!r}")
    return plan


# -- activation ------------------------------------------------------------

_LOCK = threading.Lock()
_ACTIVE: Optional[FaultPlan] = None


def activate(plan: Union[FaultPlan, str]) -> FaultPlan:
    """Arm ``plan`` (or a spec string) as the active fault plan."""
    global _ACTIVE
    if isinstance(plan, str):
        plan = parse_spec(plan)
    with _LOCK:
        _ACTIVE = plan
    return plan


def deactivate() -> None:
    """Disarm every injection point."""
    global _ACTIVE
    with _LOCK:
        _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    """The armed plan, or ``None``."""
    with _LOCK:
        return _ACTIVE


@contextmanager
def inject(plan: Union[FaultPlan, str]) -> Iterator[FaultPlan]:
    """Scoped activation: arm on entry, disarm on exit.

    The previous plan (if any) is restored, so nested experiments
    compose in tests.
    """
    global _ACTIVE
    with _LOCK:
        previous = _ACTIVE
    armed = activate(plan)
    try:
        yield armed
    finally:
        with _LOCK:
            _ACTIVE = previous


# -- injection points (called by the backend) ------------------------------


def directive_for_shard(index: int) -> str:
    """Worker-side directive for shard ``index`` ("" = no fault)."""
    plan = active_plan()
    return plan.directive_for_shard(index) if plan is not None else ""


def should_corrupt(index: int) -> bool:
    """Whether the parent must flip a bit in shard ``index``'s result."""
    plan = active_plan()
    return plan.should_corrupt(index) if plan is not None else False


def corrupt_result(result: List[int]) -> List[int]:
    """A copy of a shard's products with the first one's lowest bit
    flipped; the original list is never mutated."""
    corrupted = list(result)
    corrupted[0] ^= 1
    return corrupted


__all__ = [
    "FaultPlan",
    "parse_spec",
    "activate",
    "deactivate",
    "active_plan",
    "inject",
    "directive_for_shard",
    "should_corrupt",
    "corrupt_result",
]

"""repro — reproduction of the DATE 2016 FPGA accelerator for
homomorphic encryption (Cilardo & Argenziano).

The library implements, in Python, every system the paper describes:

- :mod:`repro.field` — arithmetic in GF(p), p = 2**64 − 2**32 + 1;
- :mod:`repro.ntt` — number-theoretic transforms, from the O(n²)
  oracle to the paper's three-stage radix-64/64/16 64K-point plan;
- :mod:`repro.ssa` — Schönhage–Strassen multiplication of 786,432-bit
  operands (plus classical baselines);
- :mod:`repro.sim` — a small cycle-based simulation kernel;
- :mod:`repro.hw` — functional, cycle and resource models of the
  accelerator (FFT-64 unit, banked memories, modular multipliers,
  processing elements, hypercube, Tables I–II generators);
- :mod:`repro.fhe` — the DGHV and RLWE homomorphic workloads;
- :mod:`repro.analysis` — sweeps and shape checks for the evaluation;
- :mod:`repro.engine` — **the front door**: one configurable
  :class:`~repro.engine.Engine` over the whole stack.

Quickstart::

    from repro import Engine, ExecutionConfig

    eng = Engine()                         # software backend
    product = eng.multiply(a, b)           # bit-exact SSA
    ring = eng.ring(4096)                  # (n,) or (batch, n) alike
    spectrum = ring.forward(rows)
    scheme = eng.fhe()                     # DGHV on the engine's SSA

    hw = Engine(backend="hw-model")        # same values + cycle model
    product, report = hw.multiply_with_report(a, b)
    print(report.render())                 # ≈122 us

The historical top-level helpers (``ssa_multiply``, ``plan_for_size``,
``paper_64k_plan``) still work but are deprecation shims over a
process-default engine; classes (:class:`SSAMultiplier`,
:class:`HEAccelerator`, :class:`DGHV`, ...) remain directly importable.
"""

import warnings as _warnings

from repro.engine import Engine, ExecutionConfig, default_engine
from repro.field.solinas import P
from repro.ssa import SSAMultiplier, PAPER_PARAMETERS
from repro.hw import (
    HEAccelerator,
    AcceleratorTiming,
    PAPER_TIMING,
    table1_report,
    table2_report,
)
from repro.fhe import DGHV, SMALL_DGHV, TOY

__version__ = "1.0.0"


def _warn_legacy(old: str, new: str) -> None:
    _warnings.warn(
        f"repro.{old} is deprecated; use {new} instead "
        "(see the README migration table)",
        DeprecationWarning,
        stacklevel=3,
    )


def ssa_multiply(a, b, params=None):
    """Deprecated shim: one-shot SSA product via the default engine.

    Prefer ``Engine().multiply(a, b)`` (or
    ``default_engine().multiply`` for the shared-cache behaviour this
    shim delegates to).  Bit-identical to the historical
    :func:`repro.ssa.ssa_multiply`.
    """
    _warn_legacy("ssa_multiply", "Engine().multiply(a, b)")
    engine = default_engine()
    if params is None:
        return engine.multiply(a, b)
    return engine.multiplier(params=params).multiply(a, b)


def plan_for_size(n, radices=None, omega=None):
    """Deprecated shim: build a plan in the default engine's cache.

    Prefer ``Engine().plan(n)`` / ``engine.ring(n)``.  The default
    engine shares the process-wide plan cache, so the returned plans
    are the same objects :func:`repro.ntt.plan.plan_for_size` yields.
    """
    _warn_legacy("plan_for_size", "Engine().plan(n, ...)")
    return default_engine().plan(n, radices, omega)


def paper_64k_plan():
    """Deprecated shim: the paper's 64K plan via the default engine.

    Prefer ``Engine().plan(65536, (64, 64, 16))`` or
    :func:`repro.ntt.paper_64k_plan`.
    """
    _warn_legacy("paper_64k_plan", "Engine().plan(65536, (64, 64, 16))")
    return default_engine().plan(65536, (64, 64, 16))


__all__ = [
    "P",
    "Engine",
    "ExecutionConfig",
    "default_engine",
    "SSAMultiplier",
    "ssa_multiply",
    "PAPER_PARAMETERS",
    "paper_64k_plan",
    "plan_for_size",
    "HEAccelerator",
    "AcceleratorTiming",
    "PAPER_TIMING",
    "table1_report",
    "table2_report",
    "DGHV",
    "SMALL_DGHV",
    "TOY",
    "__version__",
]

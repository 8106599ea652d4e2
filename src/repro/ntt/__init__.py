"""Number-theoretic transforms over ``GF(p)``, ``p = 2**64 - 2**32 + 1``.

Layered as in the paper:

- :mod:`repro.ntt.reference` — O(n²) DFT, the correctness oracle;
- :mod:`repro.ntt.radix2` — classic iterative radix-2 NTT (software
  fast path, scalar and numpy variants);
- :mod:`repro.ntt.cooley_tukey` — the general ``N = N1·N2``
  decomposition of paper Eq. 1, recursively applied;
- :mod:`repro.ntt.radix64` — shift-only radix-64/32/16/8 kernels
  (paper Eq. 3) plus the optimized two-stage Eq. 5 dataflow of the
  hardware FFT-64 unit;
- :mod:`repro.ntt.plan` — mixed-radix transform plans, including the
  paper's three-stage 64·64·16 decomposition of the 64K transform
  (Eq. 2);
- :mod:`repro.ntt.kernels` — selectable stage-DFT backends: the
  ``loop`` reference, the ``limb-matmul`` numpy kernel (exact
  16-bit-limb float64 matmuls folded by the Eq. 4 identities) and the
  ``compiled`` C kernel (a shift-twiddle radix-2 FFT per stage);
- :mod:`repro.ntt.staged` — vectorized execution of a plan;
- :mod:`repro.ntt.order` — explicit natural↔decimated spectrum
  reordering for the permutation-free plan pairs;
- :mod:`repro.ntt.convolution` — cyclic convolution on top of the NTT.
"""

from repro.ntt.reference import dft_reference, idft_reference
from repro.ntt.radix2 import ntt_radix2, intt_radix2, ntt_radix2_numpy, intt_radix2_numpy
from repro.ntt.cooley_tukey import ntt_cooley_tukey, intt_cooley_tukey
from repro.ntt.radix64 import (
    ntt_shift_radix,
    ntt64_two_stage,
    SHIFT_RADICES,
)
from repro.ntt.kernels import (
    KERNEL_ENV_VAR,
    KERNEL_LIMB_MATMUL,
    KERNEL_LOOP,
    available_kernels,
    default_kernel,
    resolve_kernel,
    stage_dft_limb_matmul,
    stage_dft_loop,
)
from repro.ntt.plan import (
    DEFAULT_PLAN_CACHE,
    ORDER_DECIMATED,
    ORDER_NATURAL,
    TWIST_NEGACYCLIC,
    PlanCache,
    PlanCacheStats,
    TransformPlan,
    clear_plan_cache,
    decimated_companion,
    paper_64k_plan,
    plan_cache_stats,
    plan_for_size,
)
from repro.ntt.order import reorder_to_decimated, reorder_to_natural
from repro.ntt.staged import (
    execute_plan,
    execute_plan_batch,
    execute_plan_inverse,
    execute_plan_inverse_batch,
)
from repro.ntt.convolution import (
    cyclic_convolution,
    cyclic_convolution_many,
    pointwise_mul,
)
from repro.ntt.negacyclic import (
    negacyclic_convolution,
    negacyclic_convolution_broadcast,
    negacyclic_convolution_many,
    negacyclic_inverse_many,
    negacyclic_transform_many,
    twist_tables,
)

__all__ = [
    "dft_reference",
    "idft_reference",
    "ntt_radix2",
    "intt_radix2",
    "ntt_radix2_numpy",
    "intt_radix2_numpy",
    "ntt_cooley_tukey",
    "intt_cooley_tukey",
    "ntt_shift_radix",
    "ntt64_two_stage",
    "SHIFT_RADICES",
    "KERNEL_ENV_VAR",
    "KERNEL_LIMB_MATMUL",
    "KERNEL_LOOP",
    "available_kernels",
    "default_kernel",
    "resolve_kernel",
    "stage_dft_limb_matmul",
    "stage_dft_loop",
    "TransformPlan",
    "PlanCache",
    "PlanCacheStats",
    "DEFAULT_PLAN_CACHE",
    "ORDER_DECIMATED",
    "ORDER_NATURAL",
    "TWIST_NEGACYCLIC",
    "clear_plan_cache",
    "decimated_companion",
    "reorder_to_decimated",
    "reorder_to_natural",
    "paper_64k_plan",
    "plan_cache_stats",
    "plan_for_size",
    "execute_plan",
    "execute_plan_batch",
    "execute_plan_inverse",
    "execute_plan_inverse_batch",
    "cyclic_convolution",
    "cyclic_convolution_many",
    "pointwise_mul",
    "negacyclic_convolution",
    "negacyclic_convolution_broadcast",
    "negacyclic_convolution_many",
    "negacyclic_inverse_many",
    "negacyclic_transform_many",
    "twist_tables",
]

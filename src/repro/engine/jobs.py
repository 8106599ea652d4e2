"""``repro.jobs`` — futures-style submission over an :class:`Engine`.

The paper's accelerator is a throughput machine: a macro-pipelined
FFT-64 datapath fed with *streams* of large-integer products.  The
:class:`~repro.engine.Engine` façade, by contrast, is call-and-block.
This module closes the gap with a job model:

>>> from repro.jobs import JobScheduler, MultiplyJob, as_completed
>>> with JobScheduler(engine) as jobs:
...     handle = jobs.submit(MultiplyJob.of(a, b))   # returns at once
...     handle.done(), handle.result()               # futures-style
...     products = jobs.map("multiply", pairs, chunk=64)
...     for h in as_completed(jobs.submit_map("multiply", pairs)):
...         consume(h.result())

Every workload of the stack flows through the same queue: SSA products
(:class:`MultiplyJob`), ring forward/inverse/convolution batches
(:class:`RingTransformJob`, :class:`ConvolveJob`), DGHV homomorphic
AND layers (:class:`DGHVMultJob`) and RLWE plaintext and ciphertext
products (:class:`RLWEMultiplyPlainJob`, :class:`RLWEMultiplyJob`).
Jobs execute **in submission order**
on one dispatcher thread that owns the engine — the engine's caches
are never raced — while intra-job parallelism comes from the engine's
compute backend (``software-mp`` shards each job's batch axis across
worker processes).  While jobs are in flight, route further compute on
that engine through the queue too (engine caches and hw-model stage
buffers are unsynchronized; only report slots are per-thread) — the
caller's own non-engine work overlaps freely.

The job types are also the op vocabulary of :mod:`repro.serve`
(:data:`JOB_TYPES` maps each wire op name to its type).  Besides
``run(engine)``, a job knows its item ``count``, whether and under
which ``coalesce_key()`` queued jobs may share one engine pass, how
such jobs ``merge`` and how the batched result ``split``\\ s back
(order-preserving, bit-identical to running each job alone), and its
JSON codec: ``from_payload`` and ``encode_result``.

``Engine.submit`` / ``Engine.map`` are conveniences over a lazily
created per-engine scheduler.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import as_completed as _futures_as_completed
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.engine.config import ExecutionConfig
from repro.engine.resilience import (
    NO_RETRY,
    Deadline,
    FaultReport,
    JobTimeoutError,
    RetryPolicy,
    RuntimeFaultError,
    deadline_scope,
)
from repro.field.vector import to_field_matrix

# -- wire helpers ------------------------------------------------------------


def _require(payload: dict, key: str):
    try:
        return payload[key]
    except KeyError:
        raise ValueError(f"payload is missing {key!r}") from None


def _int_rows(raw, what: str) -> list:
    """Validate a JSON list of int rows (one flat row is one row)."""
    if not isinstance(raw, list) or not raw:
        raise ValueError(f"{what} must be a non-empty list")
    rows = raw if isinstance(raw[0], list) else [raw]
    for row in rows:
        if not isinstance(row, list) or not all(
            isinstance(v, int) for v in row
        ):
            raise ValueError(f"{what} rows must be lists of integers")
    return rows


def _ring_size(payload: dict) -> int:
    n = _require(payload, "n")
    if not isinstance(n, int) or n < 2:
        raise ValueError("n must be an integer >= 2")
    return n


def _field_matrix(raw: list, rows: list) -> np.ndarray:
    """Validated wire rows as field elements; 1-D for one flat row."""
    matrix = to_field_matrix(rows)
    return matrix if isinstance(raw[0], list) else matrix[0]


def _field_rows(values, n: int, label: str) -> Tuple[np.ndarray, bool]:
    """``values`` as a ``(batch, n)`` uint64 matrix, and whether it
    came as one flat row.

    Rows that are not uint64 already go to :func:`to_field_matrix` as
    the caller gave them: its exact per-row fallback keeps Python ints
    in ``[2^63, 2^64)`` that ``np.asarray`` would round through
    float64.
    """
    rows = np.asarray(values)
    flat = rows.ndim == 1
    if rows.dtype != np.uint64:
        rows = to_field_matrix([values] if flat else values)
    elif flat:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"{label} must be (batch, {n}), got {rows.shape}")
    return rows, flat


def _set(job, **fields) -> None:
    """Normalise fields of a frozen job in ``__post_init__``."""
    for name, value in fields.items():
        object.__setattr__(job, name, value)


def _rlwe_params(payload: dict):
    """RLWE parameters of an ``rlwe-multiply`` or
    ``rlwe-multiply-plain`` payload (single-modulus or RNS)."""
    from repro.fhe.rlwe import RLWEParams

    raw_primes = payload.get("rns_primes")
    if raw_primes is not None:
        if not isinstance(raw_primes, list) or not all(
            isinstance(q, int) for q in raw_primes
        ):
            raise ValueError("rns_primes must be a list of integers")
        raw_primes = tuple(raw_primes)
    try:
        params = RLWEParams(
            n=int(_require(payload, "n")),
            t=int(_require(payload, "t")),
            noise_bound=int(payload.get("noise_bound", 8)),
            rns_primes=raw_primes,
            relin_base=int(payload.get("relin_base", 16)),
        )
        params.validate()
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad RLWE params: {error}") from None
    return params


def _decode_ciphertext(raw, params):
    """One wire ``[c0, c1]`` RLWE ciphertext at the chain level its
    ``c0`` carries: one row per active RNS prime, while the
    single-modulus chain's one row travels flat (see
    :meth:`repro.fhe.rlwe.RLWEParams.component`)."""
    from repro.fhe.rlwe import RLWECiphertext

    if not isinstance(raw, list) or len(raw) != 2 or not all(
        isinstance(part, list) for part in raw
    ):
        raise ValueError("each ciphertext must be [c0, c1]")
    level = len(raw[0]) if params.is_rns else 1
    try:
        c0, c1 = (params.component(part, level) for part in raw)
    except ValueError as error:
        raise ValueError(f"bad ciphertext: {error}") from None
    return RLWECiphertext(c0=c0, c1=c1, params=params, level=level)


def _encode_ciphertexts(result) -> list:
    """``[[c0, c1], ...]`` in the wire component encoding."""
    return [[ct.c0.tolist(), ct.c1.tolist()] for ct in result]


def _concat(parts: list):
    if isinstance(parts[0], np.ndarray):
        return np.concatenate(parts)
    return tuple(itertools.chain.from_iterable(parts))


# -- job types ------------------------------------------------------------


class Job:
    """One unit of queued work, and one op of the service vocabulary.

    A job type is a frozen dataclass naming its op ``kind`` and its
    ``batch_fields``: the per-item fields, all :attr:`count` long,
    that :meth:`merge` concatenates.  Every other field is equal
    across jobs with equal :meth:`coalesce_key`.
    """

    kind: ClassVar[str] = ""
    batch_fields: ClassVar[Tuple[str, ...]] = ()
    #: Whether a queued job may merge with other same-key jobs.
    coalescible: ClassVar[bool] = True

    @property
    def name(self) -> str:
        """The op name (``kind``)."""
        return self.kind

    @property
    def count(self) -> int:
        """Items this job carries (operand pairs, rows, ...) — the unit
        admission control, fair queueing and batch budgets charge."""
        return len(getattr(self, self.batch_fields[0]))

    def coalesce_key(self) -> tuple:
        """Jobs with equal keys run the same engine code path on the
        same plan shape, so they may share one batched pass."""
        raise NotImplementedError

    def run(self, engine) -> Any:
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: dict) -> "Job":
        """Decode a JSON wire payload (``ValueError``/``TypeError`` on
        malformed input)."""
        raise NotImplementedError

    def encode_result(self, result) -> Any:
        """This job's result in JSON-encodable form."""
        raise NotImplementedError

    @classmethod
    def merge(cls, jobs: Sequence["Job"]) -> "Job":
        """One job carrying every member's items, in member order."""
        if len(jobs) == 1:
            return jobs[0]
        return dataclasses.replace(
            jobs[0],
            **{
                name: _concat([getattr(job, name) for job in jobs])
                for name in cls.batch_fields
            },
        )

    @staticmethod
    def split(jobs: Sequence["Job"], result) -> List[Any]:
        """The merged job's result sliced back per member, in order."""
        out = []
        start = 0
        for job in jobs:
            stop = start + job.count
            out.append(result[start:stop])
            start = stop
        if start != len(result):
            raise RuntimeError(
                f"batched result has {len(result)} items for {start} "
                "requested"
            )
        return out


@dataclass(frozen=True)
class MultiplyJob(Job):
    """A batch of exact SSA products ``[a·b for (a, b) in pairs]``.

    Payload: ``{"pairs": [[a, b], ...]}`` (non-negative JSON ints);
    result: the list of products.  The coalesce key buckets the operand
    width to the next power of two, so merged jobs size the same SSA
    multiplier (same transform plan shape).
    """

    pairs: Tuple[Tuple[int, int], ...]

    kind = "multiply"
    batch_fields = ("pairs",)

    def __post_init__(self) -> None:
        pairs = tuple((int(a), int(b)) for a, b in self.pairs)
        if not pairs:
            raise ValueError("multiply needs at least one pair")
        if any(a < 0 or b < 0 for a, b in pairs):
            raise ValueError("multiply operands must be non-negative")
        _set(self, pairs=pairs)

    @classmethod
    def of(cls, a: int, b: int) -> "MultiplyJob":
        """A single-product job (``result()`` is a one-element list)."""
        return cls(pairs=((a, b),))

    @classmethod
    def batched(
        cls, pairs: Iterable[Tuple[int, int]]
    ) -> "MultiplyJob":
        return cls(pairs=tuple(pairs))

    def coalesce_key(self) -> tuple:
        bits = max(
            max(a.bit_length(), b.bit_length(), 1) for a, b in self.pairs
        )
        return (self.kind, 1 << (bits - 1).bit_length())

    def run(self, engine) -> List[int]:
        left = [a for a, _ in self.pairs]
        right = [b for _, b in self.pairs]
        return engine.multiply(left, right)

    @classmethod
    def from_payload(cls, payload: dict) -> "MultiplyJob":
        pairs = _require(payload, "pairs")
        if not isinstance(pairs, list) or not all(
            isinstance(p, list)
            and len(p) == 2
            and all(isinstance(v, int) for v in p)
            for p in pairs
        ):
            raise ValueError("pairs must be a list of [a, b] integers")
        return cls.batched(pairs)

    def encode_result(self, result) -> list:
        return [int(v) for v in result]


@dataclass(frozen=True, eq=False)
class RingTransformJob(Job):
    """A ``(batch, n)`` (inverse) NTT batch, optionally ψ-twisted.

    Payload: ``{"n": ..., "values": [[...], ...], "inverse": false,
    "negacyclic": false, "radices": null}``; result: the transformed
    rows.  A flat (1-D) ``values`` row is one row, answered flat on the
    wire.
    """

    n: int
    values: np.ndarray
    inverse: bool = False
    negacyclic: bool = False
    radices: Optional[Tuple[int, ...]] = None
    flat: bool = field(default=False, init=False, repr=False)

    kind = "ring-transform"
    batch_fields = ("values",)

    def __post_init__(self) -> None:
        values, flat = _field_rows(self.values, self.n, "values")
        _set(self, values=values, flat=flat)

    def coalesce_key(self) -> tuple:
        return (
            self.kind,
            self.n,
            self.inverse,
            self.negacyclic,
            self.radices,
        )

    def run(self, engine) -> np.ndarray:
        ring = engine.ring(self.n, self.radices)
        if self.negacyclic:
            method = (
                ring.negacyclic_inverse
                if self.inverse
                else ring.negacyclic_forward
            )
        else:
            method = ring.inverse if self.inverse else ring.forward
        return method(self.values)

    @classmethod
    def from_payload(cls, payload: dict) -> "RingTransformJob":
        n = _ring_size(payload)
        raw = _require(payload, "values")
        rows = _int_rows(raw, "values")
        if any(len(row) != n for row in rows):
            raise ValueError(f"every values row must have {n} entries")
        radices = payload.get("radices")
        if radices is not None:
            if not isinstance(radices, list) or not all(
                isinstance(r, int) for r in radices
            ):
                raise ValueError("radices must be a list of integers")
            radices = tuple(radices)
        return cls(
            n=n,
            values=_field_matrix(raw, rows),
            inverse=bool(payload.get("inverse", False)),
            negacyclic=bool(payload.get("negacyclic", False)),
            radices=radices,
        )

    def encode_result(self, result) -> list:
        rows = result.tolist()
        return rows[0] if self.flat else rows


@dataclass(frozen=True, eq=False)
class ConvolveJob(Job):
    """A cyclic or negacyclic convolution batch (broadcast included).

    Payload: ``{"n": ..., "a": [[...], ...], "b": [[...], ...],
    "negacyclic": false}``; a flat ``a`` row is answered flat.  ``b``
    holds one row per ``a`` row, or one row broadcast against the whole
    ``a`` batch.
    """

    n: int
    a: np.ndarray
    b: np.ndarray
    negacyclic: bool = False
    radices: Optional[Tuple[int, ...]] = None
    flat: bool = field(default=False, init=False, repr=False)

    kind = "convolve"
    batch_fields = ("a", "b")

    def __post_init__(self) -> None:
        a, flat = _field_rows(self.a, self.n, "a")
        b, _ = _field_rows(self.b, self.n, "b")
        if len(b) not in (len(a), 1):
            raise ValueError(
                "b must have one row per a row, or exactly one row"
            )
        _set(self, a=a, b=b, flat=flat)

    @property
    def coalescible(self) -> bool:  # type: ignore[override]
        """Broadcast jobs never merge: reusing the one ``b`` spectrum
        across the batch is already their batching."""
        return not (len(self.b) == 1 and len(self.a) > 1)

    def coalesce_key(self) -> tuple:
        return (self.kind, self.n, self.negacyclic, self.radices)

    def run(self, engine) -> np.ndarray:
        return engine.ring(self.n, self.radices).convolve(
            self.a, self.b, negacyclic=self.negacyclic
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "ConvolveJob":
        n = _ring_size(payload)
        raw_a = _require(payload, "a")
        rows_a = _int_rows(raw_a, "a")
        rows_b = _int_rows(_require(payload, "b"), "b")
        if any(len(row) != n for row in rows_a + rows_b):
            raise ValueError(f"every operand row must have {n} entries")
        return cls(
            n=n,
            a=_field_matrix(raw_a, rows_a),
            b=to_field_matrix(rows_b),
            negacyclic=bool(payload.get("negacyclic", False)),
        )

    def encode_result(self, result) -> list:
        rows = result.tolist()
        return rows[0] if self.flat else rows


@dataclass(frozen=True, eq=False)
class DGHVMultJob(Job):
    """A layer of DGHV homomorphic AND gates (ciphertext products).

    The γ×γ-bit products run as one batched SSA pass through the
    engine's DGHV scheme (``engine.fhe(params)``), and therefore
    through its backend — sharded on ``software-mp``, cycle-counted on
    ``hw-model``.  Payload: ``{"params": {"name", "lam", "rho", "eta",
    "gamma", "tau"}, "x0": ..., "pairs": [[[value, noise_bits], [value,
    noise_bits]], ...]}``; result: ``[[value, noise_bits], ...]``.
    """

    pairs: Tuple[Tuple[Any, Any], ...]  # (Ciphertext, Ciphertext) pairs
    x0: Optional[int] = None

    kind = "dghv-mult"
    batch_fields = ("pairs",)

    def __post_init__(self) -> None:
        from repro.fhe.dghv import Ciphertext

        pairs = tuple(self.pairs)
        if not all(
            isinstance(ct, Ciphertext) for pair in pairs for ct in pair
        ):
            raise TypeError("dghv pairs must hold ciphertexts")
        if not pairs:
            raise ValueError("dghv-mult needs at least one pair")
        _set(self, pairs=pairs)

    @property
    def params(self):
        """The pairs' :class:`repro.fhe.params.FHEParams`."""
        return self.pairs[0][0].params

    def coalesce_key(self) -> tuple:
        return (self.kind, self.params, self.x0)

    def run(self, engine) -> List[Any]:
        from repro.fhe.ops import _he_mult_many

        return _he_mult_many(
            engine.fhe(self.params), self.pairs, x0=self.x0
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "DGHVMultJob":
        from repro.fhe.dghv import Ciphertext
        from repro.fhe.params import FHEParams

        raw_params = _require(payload, "params")
        if not isinstance(raw_params, dict):
            raise ValueError("params must be an object")
        try:
            params = FHEParams(
                name=str(raw_params["name"]),
                lam=int(raw_params["lam"]),
                rho=int(raw_params["rho"]),
                eta=int(raw_params["eta"]),
                gamma=int(raw_params["gamma"]),
                tau=int(raw_params["tau"]),
            )
            params.validate()
        except (KeyError, TypeError, ValueError) as error:
            raise ValueError(f"bad DGHV params: {error}") from None
        raw_pairs = _require(payload, "pairs")
        if not isinstance(raw_pairs, list):
            raise ValueError("pairs must be a list")

        def ciphertext(raw) -> Ciphertext:
            if (
                not isinstance(raw, list)
                or len(raw) != 2
                or not isinstance(raw[0], int)
                or isinstance(raw[0], bool)
                or not isinstance(raw[1], (int, float))
                or isinstance(raw[1], bool)
            ):
                raise ValueError(
                    "each ciphertext must be [value, noise_bits]"
                )
            try:
                noise_bits = float(raw[1])
            except OverflowError:
                raise ValueError("noise_bits does not fit a float") from None
            return Ciphertext(
                value=raw[0], noise_bits=noise_bits, params=params
            )

        pairs = []
        for raw in raw_pairs:
            if not isinstance(raw, list) or len(raw) != 2:
                raise ValueError("each pair must be [ct, ct]")
            pairs.append((ciphertext(raw[0]), ciphertext(raw[1])))
        x0 = payload.get("x0")
        if x0 is not None and not isinstance(x0, int):
            raise ValueError("x0 must be an integer")
        return cls(pairs=tuple(pairs), x0=x0)

    def encode_result(self, result) -> list:
        return [[ct.value, ct.noise_bits] for ct in result]


@dataclass(frozen=True, eq=False)
class RLWEMultiplyPlainJob(Job):
    """Batched RLWE plaintext-by-ciphertext products.

    Bit-identical to
    :meth:`repro.fhe.rlwe.RLWE.multiply_plain_many` on a scheme bound
    to the engine's plan (``3·B`` negacyclic transforms total).
    Payload: the RLWE parameter fields (``n``, ``t``, ``noise_bound``,
    optional ``rns_primes``/``relin_base``), ``ciphertexts``: ``[[c0,
    c1], ...]`` and ``plains``: ``[[...], ...]``, one flat row of ``n``
    coefficients each.  Result: ``[[c0, c1], ...]`` in the ciphertexts'
    component encoding.
    """

    params: Any  # repro.fhe.rlwe.RLWEParams
    ciphertexts: Tuple[Any, ...]
    plains: Tuple[Tuple[int, ...], ...]

    kind = "rlwe-multiply-plain"
    batch_fields = ("ciphertexts", "plains")

    def __post_init__(self) -> None:
        ciphertexts = tuple(self.ciphertexts)
        plains = tuple(self.plains)
        if not ciphertexts:
            raise ValueError("rlwe-multiply-plain needs >= 1 pair")
        if len(ciphertexts) != len(plains):
            raise ValueError("one plaintext per ciphertext")
        _set(self, ciphertexts=ciphertexts, plains=plains)

    def coalesce_key(self) -> tuple:
        return (self.kind, self.params)

    def run(self, engine) -> List[Any]:
        scheme = engine.fhe(self.params)
        return scheme.multiply_plain_many(
            list(self.ciphertexts), [list(p) for p in self.plains]
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "RLWEMultiplyPlainJob":
        params = _rlwe_params(payload)
        raw_cts = _require(payload, "ciphertexts")
        raw_plains = _require(payload, "plains")
        if not isinstance(raw_cts, list) or not isinstance(
            raw_plains, list
        ):
            raise ValueError("ciphertexts and plains must be lists")
        cts = [_decode_ciphertext(raw, params) for raw in raw_cts]
        plains = [_int_rows(p, "plain")[0] for p in raw_plains]
        if any(len(p) != params.n for p in plains):
            raise ValueError(
                f"plaintexts must have {params.n} coefficients"
            )
        return cls(params=params, ciphertexts=cts, plains=plains)

    def encode_result(self, result) -> list:
        return _encode_ciphertexts(result)


@dataclass(frozen=True, eq=False)
class RLWEMultiplyJob(Job):
    """Batched RLWE ciphertext-by-ciphertext products.

    One tensor pass + one relinearization pass over the whole batch,
    bit-identical to :meth:`repro.fhe.rlwe.RLWE.multiply_many` on a
    scheme bound to the engine (every ring product rides the engine's
    batch axis — sharded on ``software-mp``, cycle-counted on
    ``hw-model``).  ``relin`` is the evaluator-side
    :class:`repro.fhe.rlwe.RelinKeys`; a full ``RLWEKeyPair`` is
    reduced to them, so the secret never enters the job.

    Payload: the RLWE parameter fields (``n``, ``t``, ``noise_bound``,
    optional ``rns_primes``/``relin_base``), ``relin``
    (``RelinKeys.to_payload()``) and ``pairs``: ``[[[c0, c1], [d0,
    d1]], ...]``.  Result: ``[[c0, c1], ...]`` in the same component
    encoding.  The coalesce key carries the plan shape *and* the relin
    keys' digest, so only jobs under the same keyset merge.
    """

    params: Any  # repro.fhe.rlwe.RLWEParams
    relin: Any  # repro.fhe.rlwe.RelinKeys
    pairs: Tuple[Tuple[Any, Any], ...]  # (RLWECiphertext, RLWECiphertext)

    kind = "rlwe-multiply"
    batch_fields = ("pairs",)

    def __post_init__(self) -> None:
        from repro.fhe.rlwe import RLWEKeyPair

        pairs = tuple(self.pairs)
        if not pairs:
            raise ValueError("rlwe-multiply needs >= 1 pair")
        if len({ct.level for pair in pairs for ct in pair}) != 1:
            raise ValueError(
                "all ciphertexts must sit at the same chain level"
            )
        relin = self.relin
        if isinstance(relin, RLWEKeyPair):
            relin = relin.relin
        _set(self, pairs=pairs, relin=relin)

    @property
    def level(self) -> int:
        """The chain level every ciphertext of the batch sits at."""
        return self.pairs[0][0].level

    def coalesce_key(self) -> tuple:
        return (self.kind, self.params, self.level, self.relin.digest())

    def run(self, engine) -> List[Any]:
        scheme = engine.fhe(self.params)
        return scheme.multiply_many(self.relin, list(self.pairs))

    @classmethod
    def from_payload(cls, payload: dict) -> "RLWEMultiplyJob":
        from repro.fhe.rlwe import RelinKeys

        params = _rlwe_params(payload)
        raw_relin = _require(payload, "relin")
        if not isinstance(raw_relin, dict):
            raise ValueError("relin must be an object")
        try:
            relin = RelinKeys.from_payload(params, raw_relin)
        except (TypeError, ValueError) as error:
            raise ValueError(f"bad relin keys: {error}") from None
        raw_pairs = _require(payload, "pairs")
        if not isinstance(raw_pairs, list):
            raise ValueError("pairs must be a list")
        pairs = []
        for raw in raw_pairs:
            if not isinstance(raw, list) or len(raw) != 2:
                raise ValueError("each pair must be [ct, ct]")
            pairs.append(
                tuple(_decode_ciphertext(ct, params) for ct in raw)
            )
        return cls(params=params, relin=relin, pairs=pairs)

    def encode_result(self, result) -> list:
        return _encode_ciphertexts(result)


#: Op name → job type: the service's op vocabulary.
JOB_TYPES: Dict[str, Type[Job]] = {
    job_type.kind: job_type
    for job_type in (
        MultiplyJob,
        RingTransformJob,
        ConvolveJob,
        DGHVMultJob,
        RLWEMultiplyPlainJob,
        RLWEMultiplyJob,
    )
}


# -- handles ---------------------------------------------------------------


class JobHandle:
    """A future over one submitted job.

    ``result(timeout=None)`` blocks for (and returns or re-raises) the
    job's outcome; ``done()`` / ``exception()`` / ``cancel()`` follow
    :class:`concurrent.futures.Future` semantics.  After completion,
    :attr:`report` holds whatever timing artifact the engine's backend
    produced for the job (``None`` on the software backends) and
    :attr:`fault_report` holds the job's own resilience story: the
    backend fault events observed while it ran (worker crashes, pool
    respawns, degradation), plus any scheduler-level retries and the
    final outcome (``recovered`` / ``dead-letter``).
    """

    def __init__(
        self,
        job: Job,
        job_id: int,
        deadline: Optional[Deadline] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.job = job
        self.job_id = job_id
        self._future: Future = Future()
        self._report: Optional[object] = None
        self._deadline = deadline
        self._retry = retry if retry is not None else NO_RETRY
        #: This job's fault/recovery event log (see class docstring).
        self.fault_report = FaultReport()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done() else "pending"
        return (
            f"JobHandle(id={self.job_id}, "
            f"kind={getattr(self.job, 'kind', '?')!r}, {state})"
        )

    def done(self) -> bool:
        return self._future.done()

    def cancel(self) -> bool:
        """Cancel if not yet started (single dispatcher ⇒ FIFO queue)."""
        return self._future.cancel()

    def result(self, timeout: Optional[float] = None):
        return self._future.result(timeout)

    def exception(self, timeout: Optional[float] = None):
        return self._future.exception(timeout)

    @property
    def report(self) -> Optional[object]:
        """The backend's timing artifact for this job (post-completion)."""
        return self._report


def as_completed(
    handles: Iterable[JobHandle], timeout: Optional[float] = None
) -> Iterator[JobHandle]:
    """Yield handles as their jobs finish (completion order)."""
    handles = list(handles)
    by_future = {h._future: h for h in handles}
    for future in _futures_as_completed(by_future, timeout=timeout):
        yield by_future[future]


# -- the scheduler ---------------------------------------------------------

#: ``map(op, ...)`` kinds → chunk-of-items → job factories.  ``items``
#: is the chunk (a list); extra ``map`` kwargs are forwarded.
_MAP_FACTORIES: dict = {
    "multiply": lambda items, **kw: MultiplyJob.batched(items),
    "dghv-mult": lambda items, **kw: DGHVMultJob(
        pairs=tuple(items), x0=kw.get("x0")
    ),
    "ring-forward": lambda items, **kw: RingTransformJob(
        n=kw["n"],
        values=np.vstack(items),
        inverse=False,
        negacyclic=kw.get("negacyclic", False),
        radices=kw.get("radices"),
    ),
    "ring-inverse": lambda items, **kw: RingTransformJob(
        n=kw["n"],
        values=np.vstack(items),
        inverse=True,
        negacyclic=kw.get("negacyclic", False),
        radices=kw.get("radices"),
    ),
}


class JobScheduler:
    """Futures-style submission queue over one engine.

    Parameters
    ----------
    source:
        An :class:`~repro.engine.Engine` to run jobs on, an
        :class:`~repro.engine.config.ExecutionConfig` (a private engine
        is built from it), or ``None`` (a default engine).
    backend:
        Backend name for the private engine when ``source`` is a
        config or ``None``; ignored when an engine is passed.

    One dispatcher thread owns the engine and executes jobs strictly in
    submission order — callers get their :class:`JobHandle` back
    immediately and overlap their own work (or further submissions)
    with the compute.  Parallelism *within* a job comes from the
    engine's backend; pair the scheduler with ``software-mp`` to shard
    each job's batch axis across worker processes.
    """

    def __init__(
        self,
        source=None,
        *,
        backend: Optional[str] = None,
    ):
        from repro.engine.core import Engine

        self._owns_engine = False
        if source is None:
            self.engine = Engine(backend=backend or "software")
            self._owns_engine = True
        elif isinstance(source, ExecutionConfig):
            self.engine = Engine(
                config=source, backend=backend or "software"
            )
            self._owns_engine = True
        elif isinstance(source, Engine):
            if backend is not None:
                raise ValueError(
                    "backend= applies only when the scheduler builds "
                    "its own engine; this Engine already has one"
                )
            self.engine = source
        else:
            raise TypeError(
                "source must be an Engine, an ExecutionConfig or None; "
                f"got {type(source)!r}"
            )
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-jobs"
        )
        # Handles whose futures are not yet resolved (pruned by a
        # done-callback); close() cancels whatever is still queued here.
        self._pending: set = set()
        #: Jobs that failed for good on an infrastructure fault — retry
        #: budget exhausted, deadline blown, or cancelled by
        #: :meth:`close` — kept with their handles (job payload +
        #: :attr:`JobHandle.fault_report`) for post-mortem inspection
        #: or manual resubmission.
        self.dead_letters: List[JobHandle] = []

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    @property
    def active(self) -> bool:
        return self._pool is not None

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally wait for the queue to drain.

        Idempotent.  Pending jobs still execute (FIFO) unless the
        interpreter is exiting; call ``cancel()`` on handles first to
        drop queued work.  An engine the scheduler built for itself
        (the config / ``None`` constructor forms) is closed with it —
        its ``software-mp`` worker pool does not outlive the queue.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        if wait or not self._owns_engine:
            pool.shutdown(wait=wait)
            if self._owns_engine:
                self.engine.close()
            return
        # wait=False on an owned engine: queued jobs may still be
        # executing, so the engine (and its software-mp worker pool)
        # must only close once the dispatcher drains — hand that to a
        # reaper thread instead of blocking the caller.
        pool.shutdown(wait=False)

        def _drain_then_close() -> None:
            pool.shutdown(wait=True)  # idempotent: waits for drain
            self.engine.close()

        threading.Thread(
            target=_drain_then_close,
            name="repro-jobs-reaper",
            daemon=True,
        ).start()

    def close(self, wait: bool = True) -> List[JobHandle]:
        """Shut down, *cancelling* still-queued jobs first.

        Where :meth:`shutdown` drains the queue, ``close`` drops it:
        every job that has not started is cancelled (its handle
        resolves to :exc:`~concurrent.futures.CancelledError` and lands
        on :attr:`dead_letters`), the job currently running — if any —
        finishes, and the scheduler then shuts down.  Returns the
        cancelled handles.  Idempotent, like :meth:`shutdown`.
        """
        with self._lock:
            pending = list(self._pending)
        cancelled = [
            handle
            for handle in sorted(pending, key=lambda h: h.job_id)
            if handle.cancel()
        ]
        for handle in cancelled:
            handle.fault_report.record(
                "dead-letter",
                "cancelled while queued by JobScheduler.close()",
            )
        with self._lock:
            self.dead_letters.extend(cancelled)
        self.shutdown(wait=wait)
        return cancelled

    def drain(self, timeout: Optional[float] = None) -> List[JobHandle]:
        """Block until every submitted job reaches a terminal state.

        Unlike :meth:`shutdown`, draining does **not** stop the
        scheduler: it simply waits (from any thread) for the work
        already queued — including jobs submitted by *other* threads —
        to finish, then returns the current :attr:`dead_letters` so the
        caller can observe what failed for good.  Jobs submitted while
        the drain is in progress are waited on too.

        Raises :class:`~repro.engine.resilience.JobTimeoutError` if the
        queue has not emptied after ``timeout`` seconds; the scheduler
        and its queue are left untouched in that case.
        """
        deadline = Deadline.after(timeout) if timeout is not None else None
        while True:
            with self._lock:
                futures = [handle._future for handle in self._pending]
            if not futures:
                with self._lock:
                    return list(self.dead_letters)
            remaining = None
            if deadline is not None:
                remaining = deadline.remaining()
                if remaining <= 0:
                    raise JobTimeoutError(
                        f"queue failed to drain within {timeout}s "
                        f"({len(futures)} job(s) still pending)"
                    )
            _, not_done = futures_wait(futures, timeout=remaining)
            if not_done:
                raise JobTimeoutError(
                    f"queue failed to drain within {timeout}s "
                    f"({len(not_done)} job(s) still pending)"
                )

    # -- submission --------------------------------------------------------

    def submit(
        self,
        job: Job,
        *,
        timeout: Optional[float] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> JobHandle:
        """Queue one job; returns its :class:`JobHandle` immediately.

        ``timeout`` (seconds) arms a :class:`Deadline` whose clock
        starts *now*, at submission — queue wait, every retry and every
        backend shard wait all consume the same budget.  A blown
        deadline resolves the handle with
        :class:`~repro.engine.resilience.JobTimeoutError` (hung
        ``software-mp`` workers are abandoned, not joined).

        ``retry`` (a :class:`~repro.engine.resilience.RetryPolicy`)
        re-runs the job after retryable infrastructure faults with the
        policy's deterministic backoff; the default ``NO_RETRY`` fails
        fast.  A job that exhausts its budget (or fails on a
        non-retryable :class:`RuntimeFaultError`) lands on
        :attr:`dead_letters`.
        """
        run = getattr(job, "run", None)
        if not callable(run):
            raise TypeError(
                f"not a job (no run(engine) method): {job!r}"
            )
        deadline = Deadline.after(timeout) if timeout is not None else None
        handle = JobHandle(
            job, next(self._ids), deadline=deadline, retry=retry
        )
        with self._lock:
            if self._pool is None:
                raise RuntimeError("scheduler is shut down")
            self._pending.add(handle)
            handle._future.add_done_callback(
                lambda _f, h=handle: self._pending.discard(h)
            )
            self._pool.submit(self._execute, job, handle)
        return handle

    def _execute(self, job: Job, handle: JobHandle) -> None:
        """Dispatcher-thread body: run under deadline/retry, resolve.

        Backend fault events that occur while this job runs are copied
        onto the handle's :attr:`~JobHandle.fault_report` (the backend
        keeps its own cumulative log), so a caller holding only the
        handle sees the full story of *their* job.
        """
        if not handle._future.set_running_or_notify_cancel():
            return
        backend_report = getattr(
            self.engine.backend, "fault_report", None
        )
        policy = handle._retry
        deadline = handle._deadline
        attempt = 0
        while True:
            mark = (
                len(backend_report.events)
                if backend_report is not None
                else 0
            )
            # Clear this thread's report slot first: a job that fails
            # (or never reaches a backend call) must not inherit the
            # previous job's timing artifact.
            self.engine.last_report = None
            error: Optional[BaseException] = None
            result = None
            try:
                if deadline is not None and deadline.expired:
                    raise JobTimeoutError(
                        f"job {handle.job_id} "
                        f"({getattr(job, 'kind', '?')}) expired before "
                        f"it ran — queue wait and/or earlier attempts "
                        f"consumed its timeout"
                    )
                with deadline_scope(deadline):
                    result = job.run(self.engine)
            except BaseException as err:
                error = err
            if backend_report is not None:
                handle.fault_report.extend(backend_report.events[mark:])
            if error is None:
                if attempt > 0:
                    handle.fault_report.record(
                        "recovered",
                        f"succeeded on retry {attempt}",
                    )
                handle._report = self.engine.last_report
                handle._future.set_result(result)
                return
            expired = deadline is not None and deadline.expired
            if policy.should_retry(error, attempt) and not expired:
                delay = policy.delay(attempt)
                if deadline is not None:
                    delay = min(delay, max(deadline.remaining(), 0.0))
                handle.fault_report.record(
                    "retry",
                    f"attempt {attempt + 1} failed ({error!r}); "
                    f"retrying after {delay:.3g}s backoff",
                )
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            if isinstance(error, RuntimeFaultError):
                handle.fault_report.record(
                    "dead-letter",
                    f"failed for good after {attempt + 1} attempt(s): "
                    f"{error!r}",
                )
                with self._lock:
                    self.dead_letters.append(handle)
            handle._report = self.engine.last_report
            handle._future.set_exception(error)
            return

    # -- mapping -----------------------------------------------------------

    def default_chunk(self, total: int) -> int:
        """One chunk covering all items.

        Chunk jobs run *sequentially* on the FIFO dispatcher, and the
        compute backend already shards each job's batch axis across
        its workers — splitting a map into W chunks would just re-shard
        each W ways (W² tiny pool round-trips).  Smaller chunks only
        pay off for streaming partial results through
        :func:`as_completed`; pass ``chunk=`` explicitly for that.
        """
        return max(1, total)

    def submit_map(
        self,
        op: Union[str, Callable[[list], Job]],
        items: Sequence,
        chunk: Optional[int] = None,
        **op_kwargs,
    ) -> List[JobHandle]:
        """Split ``items`` into chunk jobs; return one handle per chunk.

        ``op`` is a registered kind (``"multiply"``, ``"dghv-mult"``,
        ``"ring-forward"``, ``"ring-inverse"`` — extra kwargs such as
        ``n=`` or ``x0=`` are forwarded to the job) or any callable
        taking a chunk (list of items) and returning a job.  Chunks
        preserve item order; ``chunk=None`` uses
        :meth:`default_chunk`.
        """
        if isinstance(op, str):
            try:
                factory = _MAP_FACTORIES[op]
            except KeyError:
                raise ValueError(
                    f"unknown map op {op!r}; expected one of "
                    f"{sorted(_MAP_FACTORIES)} or a callable"
                ) from None
        else:
            # Extra kwargs are forwarded so a callable op is not a
            # silent kwargs sink (a callable that takes none raises).
            factory = lambda chunk_items, **kw: op(chunk_items, **kw)  # noqa: E731
        items = list(items)
        if chunk is None:
            chunk = self.default_chunk(len(items))
        if chunk < 1:
            raise ValueError("chunk must be a positive integer")
        return [
            self.submit(factory(items[start : start + chunk], **op_kwargs))
            for start in range(0, len(items), chunk)
        ]

    def map(
        self,
        op: Union[str, Callable[[list], Job]],
        items: Sequence,
        chunk: Optional[int] = None,
        **op_kwargs,
    ) -> Union[list, np.ndarray]:
        """Run ``op`` over ``items`` in chunk jobs; ordered results.

        Blocks until every chunk completes and flattens the per-chunk
        results back to one per-item sequence (rows are re-stacked for
        array-valued ops), in the original item order.
        """
        handles = self.submit_map(op, items, chunk, **op_kwargs)
        results = [handle.result() for handle in handles]
        if not results:
            return []
        if isinstance(results[0], np.ndarray):
            return np.concatenate(results, axis=0)
        flattened: list = []
        for result in results:
            flattened.extend(result)
        return flattened


__all__ = [
    "JobScheduler",
    "JobHandle",
    "Job",
    "JOB_TYPES",
    "MultiplyJob",
    "RingTransformJob",
    "ConvolveJob",
    "DGHVMultJob",
    "RLWEMultiplyPlainJob",
    "RLWEMultiplyJob",
    "as_completed",
]

"""Service-op vocabulary: decode, coalesce, merge, split, encode.

Every RPC the :mod:`repro.serve` front end accepts is one
:class:`ServiceOp` subclass.  An op knows five things:

- how to **decode** itself from a JSON ``payload`` (wire requests) or
  build itself from in-process objects (the ``.of(...)`` constructors
  used by :class:`~repro.serve.client.ServiceClient`);
- its **coalesce key** — two queued requests whose keys match run the
  same engine code path on the same plan shape, so the scheduler may
  merge them into one batched ``*_many`` pass;
- how to **merge** a list of same-key ops into one
  :mod:`repro.engine.jobs` job;
- how to **split** the batched result back into per-request results
  (order-preserving, bit-identical to running each request alone);
- how to **encode** a per-request result for the JSON wire.

The merge→split round trip is the service's key performance move: under
load, B compatible single-item requests become one ``B``-row engine
pass (one forward NTT over the stacked batch instead of B small ones)
while every client still receives exactly the answer an individual
submission would have produced.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.engine.jobs import (
    ConvolveJob,
    DGHVMultJob,
    Job,
    MultiplyJob,
    RingTransformJob,
    RLWEMultiplyPlainJob,
)
from repro.serve.protocol import ProtocolError


def _require(payload: dict, key: str):
    try:
        return payload[key]
    except KeyError:
        raise ProtocolError(f"payload is missing {key!r}") from None


def _int_rows(rows, what: str) -> List[List[int]]:
    """Validate a JSON list-of-rows-of-ints (one flat row accepted)."""
    if not isinstance(rows, list) or not rows:
        raise ProtocolError(f"{what} must be a non-empty list")
    if not isinstance(rows[0], list):
        rows = [rows]
    out = []
    for row in rows:
        if not isinstance(row, list) or not all(
            isinstance(v, int) for v in row
        ):
            raise ProtocolError(f"{what} rows must be lists of integers")
        out.append(row)
    return out


class ServiceOp:
    """Base class: one decoded, coalescible service request body."""

    name: str = ""
    #: Ops whose requests may be merged with other same-key requests.
    coalescible: bool = True

    @property
    def count(self) -> int:
        """Number of items this single request carries (batch rows,
        operand pairs, ...) — the unit admission control and fair
        queueing charge for."""
        raise NotImplementedError

    def coalesce_key(self) -> Tuple:
        """Requests with equal keys may share one batched engine pass."""
        raise NotImplementedError

    @classmethod
    def from_payload(cls, payload: dict) -> "ServiceOp":
        raise NotImplementedError

    @staticmethod
    def merge(ops: Sequence["ServiceOp"]) -> Job:
        raise NotImplementedError

    @staticmethod
    def split(ops: Sequence["ServiceOp"], result) -> List[Any]:
        raise NotImplementedError

    def encode_result(self, result) -> Any:
        raise NotImplementedError


def _split_by_counts(ops: Sequence[ServiceOp], result) -> List[Any]:
    """Slice a batched result back into per-op chunks, in order."""
    out = []
    start = 0
    for op in ops:
        stop = start + op.count
        out.append(result[start:stop])
        start = stop
    if start != len(result):
        raise RuntimeError(
            f"batched result has {len(result)} items for {start} requested"
        )
    return out


# -- multiply --------------------------------------------------------------


class MultiplyOp(ServiceOp):
    """Exact SSA products of non-negative big integers.

    Payload: ``{"pairs": [[a, b], ...]}`` (arbitrary-precision JSON
    ints).  Result: the list of products.  The coalesce key buckets the
    operand width to the next power of two, so merged requests size the
    same SSA multiplier (same transform plan shape).
    """

    name = "multiply"

    def __init__(self, pairs: Sequence[Tuple[int, int]]):
        self.pairs = [(int(a), int(b)) for a, b in pairs]
        if not self.pairs:
            raise ProtocolError("multiply needs at least one pair")
        if any(a < 0 or b < 0 for a, b in self.pairs):
            raise ProtocolError("multiply operands must be non-negative")
        bits = max(
            max(a.bit_length(), b.bit_length(), 1) for a, b in self.pairs
        )
        self._bucket = 1 << (bits - 1).bit_length()

    @property
    def count(self) -> int:
        return len(self.pairs)

    def coalesce_key(self) -> Tuple:
        return ("multiply", self._bucket)

    @classmethod
    def from_payload(cls, payload: dict) -> "MultiplyOp":
        pairs = _require(payload, "pairs")
        if not isinstance(pairs, list) or not all(
            isinstance(p, list)
            and len(p) == 2
            and all(isinstance(v, int) for v in p)
            for p in pairs
        ):
            raise ProtocolError("pairs must be a list of [a, b] integers")
        return cls(pairs=[(a, b) for a, b in pairs])

    @classmethod
    def of(cls, pairs: Sequence[Tuple[int, int]]) -> "MultiplyOp":
        return cls(pairs=pairs)

    @staticmethod
    def merge(ops: Sequence["MultiplyOp"]) -> Job:
        merged: List[Tuple[int, int]] = []
        for op in ops:
            merged.extend(op.pairs)
        return MultiplyJob(pairs=tuple(merged))

    @staticmethod
    def split(ops: Sequence["MultiplyOp"], result) -> List[Any]:
        return _split_by_counts(ops, result)

    def encode_result(self, result) -> Any:
        return [int(v) for v in result]


# -- ring transforms -------------------------------------------------------


class RingTransformOp(ServiceOp):
    """A ``(batch, n)`` forward/inverse NTT, optionally negacyclic.

    Payload: ``{"n": ..., "values": [[...], ...], "inverse": false,
    "negacyclic": false, "radices": null}``; a flat ``values`` row is
    accepted and answered flat.  Result: the transformed rows.
    """

    name = "ring-transform"

    def __init__(
        self,
        n: int,
        values: np.ndarray,
        inverse: bool = False,
        negacyclic: bool = False,
        radices: Optional[Tuple[int, ...]] = None,
        flat: bool = False,
    ):
        if values.ndim != 2 or values.shape[1] != n:
            raise ProtocolError(
                f"values must be (batch, {n}), got {values.shape}"
            )
        self.n = int(n)
        self.values = values
        self.inverse = bool(inverse)
        self.negacyclic = bool(negacyclic)
        self.radices = tuple(radices) if radices is not None else None
        self.flat = flat

    @property
    def count(self) -> int:
        return int(self.values.shape[0])

    def coalesce_key(self) -> Tuple:
        return (
            "ring-transform",
            self.n,
            self.inverse,
            self.negacyclic,
            self.radices,
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "RingTransformOp":
        from repro.field.vector import to_field_matrix

        n = _require(payload, "n")
        if not isinstance(n, int) or n < 2:
            raise ProtocolError("n must be an integer >= 2")
        raw = _require(payload, "values")
        flat = isinstance(raw, list) and raw and not isinstance(
            raw[0], list
        )
        rows = _int_rows(raw, "values")
        if any(len(row) != n for row in rows):
            raise ProtocolError(f"every values row must have {n} entries")
        radices = payload.get("radices")
        if radices is not None:
            if not isinstance(radices, list) or not all(
                isinstance(r, int) for r in radices
            ):
                raise ProtocolError("radices must be a list of integers")
            radices = tuple(radices)
        return cls(
            n=n,
            values=to_field_matrix(rows),
            inverse=bool(payload.get("inverse", False)),
            negacyclic=bool(payload.get("negacyclic", False)),
            radices=radices,
            flat=flat,
        )

    @classmethod
    def of(
        cls,
        n: int,
        values,
        *,
        inverse: bool = False,
        negacyclic: bool = False,
        radices: Optional[Sequence[int]] = None,
    ) -> "RingTransformOp":
        from repro.field.vector import to_field_matrix

        values = np.asarray(values)
        flat = values.ndim == 1
        if flat:
            values = values.reshape(1, -1)
        if values.dtype != np.uint64:
            values = to_field_matrix([list(map(int, row)) for row in values])
        return cls(
            n=n,
            values=values,
            inverse=inverse,
            negacyclic=negacyclic,
            radices=tuple(radices) if radices is not None else None,
            flat=flat,
        )

    @staticmethod
    def merge(ops: Sequence["RingTransformOp"]) -> Job:
        first = ops[0]
        return RingTransformJob(
            n=first.n,
            values=np.vstack([op.values for op in ops]),
            inverse=first.inverse,
            negacyclic=first.negacyclic,
            radices=first.radices,
        )

    @staticmethod
    def split(ops: Sequence["RingTransformOp"], result) -> List[Any]:
        return _split_by_counts(ops, result)

    def encode_result(self, result) -> Any:
        rows = [[int(v) for v in row] for row in result]
        return rows[0] if self.flat else rows


# -- convolutions ----------------------------------------------------------


class ConvolveOp(ServiceOp):
    """Cyclic or negacyclic convolution of ``(batch, n)`` operands.

    Payload: ``{"n": ..., "a": [[...], ...], "b": [[...], ...],
    "negacyclic": false}``.  Broadcast requests (one ``b`` row against
    an ``a`` batch) are accepted but never coalesced — the broadcast
    operand's spectrum reuse is already their batching story.
    """

    name = "convolve"

    def __init__(
        self,
        n: int,
        a: np.ndarray,
        b: np.ndarray,
        negacyclic: bool = False,
        radices: Optional[Tuple[int, ...]] = None,
        flat: bool = False,
    ):
        for label, mat in (("a", a), ("b", b)):
            if mat.ndim != 2 or mat.shape[1] != n:
                raise ProtocolError(
                    f"{label} must be (batch, {n}), got {mat.shape}"
                )
        if b.shape[0] not in (a.shape[0], 1):
            raise ProtocolError(
                "b must have one row per a row, or exactly one row"
            )
        self.n = int(n)
        self.a = a
        self.b = b
        self.negacyclic = bool(negacyclic)
        self.radices = tuple(radices) if radices is not None else None
        self.flat = flat
        self.broadcast = b.shape[0] == 1 and a.shape[0] > 1

    @property
    def coalescible(self) -> bool:  # type: ignore[override]
        return not self.broadcast

    @property
    def count(self) -> int:
        return int(self.a.shape[0])

    def coalesce_key(self) -> Tuple:
        return ("convolve", self.n, self.negacyclic, self.radices)

    @classmethod
    def from_payload(cls, payload: dict) -> "ConvolveOp":
        from repro.field.vector import to_field_matrix

        n = _require(payload, "n")
        if not isinstance(n, int) or n < 2:
            raise ProtocolError("n must be an integer >= 2")
        raw_a = _require(payload, "a")
        flat = isinstance(raw_a, list) and raw_a and not isinstance(
            raw_a[0], list
        )
        rows_a = _int_rows(raw_a, "a")
        rows_b = _int_rows(_require(payload, "b"), "b")
        if any(len(row) != n for row in rows_a + rows_b):
            raise ProtocolError(f"every operand row must have {n} entries")
        return cls(
            n=n,
            a=to_field_matrix(rows_a),
            b=to_field_matrix(rows_b),
            negacyclic=bool(payload.get("negacyclic", False)),
            flat=flat,
        )

    @classmethod
    def of(
        cls, n: int, a, b, *, negacyclic: bool = False
    ) -> "ConvolveOp":
        from repro.field.vector import to_field_matrix

        def as_matrix(values):
            values = np.asarray(values)
            was_flat = values.ndim == 1
            if was_flat:
                values = values.reshape(1, -1)
            if values.dtype != np.uint64:
                values = to_field_matrix(
                    [list(map(int, row)) for row in values]
                )
            return values, was_flat

        a, flat = as_matrix(a)
        b, _ = as_matrix(b)
        return cls(n=n, a=a, b=b, negacyclic=negacyclic, flat=flat)

    @staticmethod
    def merge(ops: Sequence["ConvolveOp"]) -> Job:
        first = ops[0]
        if len(ops) == 1:
            a, b = first.a, first.b
        else:
            a = np.vstack([op.a for op in ops])
            b = np.vstack([op.b for op in ops])
        return ConvolveJob(
            n=first.n,
            a=a,
            b=b,
            negacyclic=first.negacyclic,
            radices=first.radices,
        )

    @staticmethod
    def split(ops: Sequence["ConvolveOp"], result) -> List[Any]:
        return _split_by_counts(ops, result)

    def encode_result(self, result) -> Any:
        rows = [[int(v) for v in row] for row in result]
        return rows[0] if self.flat else rows


# -- DGHV homomorphic AND layers -------------------------------------------


class DGHVMultOp(ServiceOp):
    """A layer of DGHV ciphertext products (homomorphic AND gates).

    Payload: ``{"params": {"name", "lam", "rho", "eta", "gamma",
    "tau"}, "x0": ..., "pairs": [[[value, noise_bits], [value,
    noise_bits]], ...]}``.  Result: ``[[value, noise_bits], ...]`` with
    the noise bookkeeping of :func:`repro.fhe.ops.he_mult_many`.
    """

    name = "dghv-mult"

    def __init__(self, params, pairs, x0: Optional[int] = None):
        from repro.fhe.dghv import Ciphertext

        self.params = params
        self.x0 = int(x0) if x0 is not None else None
        self.pairs: List[Tuple[Any, Any]] = []
        for a, b in pairs:
            if not isinstance(a, Ciphertext) or not isinstance(
                b, Ciphertext
            ):
                raise ProtocolError("dghv pairs must hold ciphertexts")
            self.pairs.append((a, b))
        if not self.pairs:
            raise ProtocolError("dghv-mult needs at least one pair")

    @property
    def count(self) -> int:
        return len(self.pairs)

    def coalesce_key(self) -> Tuple:
        p = self.params
        return ("dghv-mult", p.name, p.gamma, p.eta, p.rho, p.tau, self.x0)

    @classmethod
    def from_payload(cls, payload: dict) -> "DGHVMultOp":
        from repro.fhe.dghv import Ciphertext
        from repro.fhe.params import FHEParams

        raw_params = _require(payload, "params")
        if not isinstance(raw_params, dict):
            raise ProtocolError("params must be an object")
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
            raise ProtocolError(f"bad DGHV params: {error}") from None
        raw_pairs = _require(payload, "pairs")
        if not isinstance(raw_pairs, list):
            raise ProtocolError("pairs must be a list")

        def ciphertext(raw) -> Ciphertext:
            if (
                not isinstance(raw, list)
                or len(raw) != 2
                or not isinstance(raw[0], int)
                or isinstance(raw[0], bool)
                or not isinstance(raw[1], (int, float))
                or isinstance(raw[1], bool)
            ):
                raise ProtocolError(
                    "each ciphertext must be [value, noise_bits]"
                )
            return Ciphertext(
                value=raw[0], noise_bits=float(raw[1]), params=params
            )

        pairs = []
        for raw in raw_pairs:
            if not isinstance(raw, list) or len(raw) != 2:
                raise ProtocolError("each pair must be [ct, ct]")
            pairs.append((ciphertext(raw[0]), ciphertext(raw[1])))
        x0 = payload.get("x0")
        if x0 is not None and not isinstance(x0, int):
            raise ProtocolError("x0 must be an integer")
        return cls(params=params, pairs=pairs, x0=x0)

    @classmethod
    def of(cls, pairs, x0: Optional[int] = None) -> "DGHVMultOp":
        if not pairs:
            raise ProtocolError("dghv-mult needs at least one pair")
        return cls(params=pairs[0][0].params, pairs=pairs, x0=x0)

    @staticmethod
    def merge(ops: Sequence["DGHVMultOp"]) -> Job:
        merged: List[Tuple[Any, Any]] = []
        for op in ops:
            merged.extend(op.pairs)
        return DGHVMultJob(pairs=tuple(merged), x0=ops[0].x0)

    @staticmethod
    def split(ops: Sequence["DGHVMultOp"], result) -> List[Any]:
        return _split_by_counts(ops, result)

    def encode_result(self, result) -> Any:
        return [[ct.value, ct.noise_bits] for ct in result]


# -- RLWE plaintext products -----------------------------------------------


class RLWEMultiplyPlainOp(ServiceOp):
    """Batched RLWE plaintext-by-ciphertext products.

    Payload: ``{"n": ..., "t": ..., "noise_bound": ...,
    "ciphertexts": [[c0_row, c1_row], ...], "plains": [[...], ...]}``.
    Result: ``[[c0_row, c1_row], ...]``.  Coalesced requests share one
    ``3·B``-transform ``multiply_plain_many`` pass on the engine's
    fused, permutation-free negacyclic plan.
    """

    name = "rlwe-multiply-plain"

    def __init__(self, params, ciphertexts, plains):
        self.params = params
        self.ciphertexts = list(ciphertexts)
        self.plains = [list(map(int, p)) for p in plains]
        if not self.ciphertexts:
            raise ProtocolError("rlwe-multiply-plain needs >= 1 pair")
        if len(self.ciphertexts) != len(self.plains):
            raise ProtocolError("one plaintext per ciphertext")

    @property
    def count(self) -> int:
        return len(self.ciphertexts)

    def coalesce_key(self) -> Tuple:
        p = self.params
        return ("rlwe-multiply-plain", p.n, p.t, p.noise_bound)

    @classmethod
    def from_payload(cls, payload: dict) -> "RLWEMultiplyPlainOp":
        from repro.fhe.rlwe import RLWECiphertext, RLWEParams
        from repro.field.vector import to_field_array

        try:
            params = RLWEParams(
                n=int(_require(payload, "n")),
                t=int(_require(payload, "t")),
                noise_bound=int(payload.get("noise_bound", 8)),
            )
            params.validate()
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad RLWE params: {error}") from None
        raw_cts = _require(payload, "ciphertexts")
        raw_plains = _require(payload, "plains")
        if not isinstance(raw_cts, list) or not isinstance(
            raw_plains, list
        ):
            raise ProtocolError("ciphertexts and plains must be lists")
        cts = []
        for raw in raw_cts:
            if not isinstance(raw, list) or len(raw) != 2:
                raise ProtocolError("each ciphertext must be [c0, c1]")
            c0 = _int_rows(raw[0], "c0")[0]
            c1 = _int_rows(raw[1], "c1")[0]
            if len(c0) != params.n or len(c1) != params.n:
                raise ProtocolError(
                    f"ciphertext rows must have {params.n} coefficients"
                )
            cts.append(
                RLWECiphertext(
                    c0=to_field_array(c0),
                    c1=to_field_array(c1),
                    params=params,
                )
            )
        plains = [_int_rows(p, "plain")[0] for p in raw_plains]
        if any(len(p) != params.n for p in plains):
            raise ProtocolError(
                f"plaintexts must have {params.n} coefficients"
            )
        return cls(params=params, ciphertexts=cts, plains=plains)

    @classmethod
    def of(cls, params, ciphertexts, plains) -> "RLWEMultiplyPlainOp":
        return cls(params=params, ciphertexts=ciphertexts, plains=plains)

    @staticmethod
    def merge(ops: Sequence["RLWEMultiplyPlainOp"]) -> Job:
        cts: List[Any] = []
        plains: List[Tuple[int, ...]] = []
        for op in ops:
            cts.extend(op.ciphertexts)
            plains.extend(tuple(p) for p in op.plains)
        return RLWEMultiplyPlainJob(
            params=ops[0].params,
            ciphertexts=tuple(cts),
            plains=tuple(plains),
        )

    @staticmethod
    def split(ops: Sequence["RLWEMultiplyPlainOp"], result) -> List[Any]:
        return _split_by_counts(ops, result)

    def encode_result(self, result) -> Any:
        return [
            [[int(v) for v in ct.c0], [int(v) for v in ct.c1]]
            for ct in result
        ]


# -- RLWE ciphertext products ------------------------------------------------


def _decode_rlwe_params(payload: dict):
    """Shared RLWE parameter decode (single-modulus and RNS)."""
    from repro.fhe.rlwe import RLWEParams

    raw_primes = payload.get("rns_primes")
    if raw_primes is not None:
        if not isinstance(raw_primes, list) or not all(
            isinstance(q, int) for q in raw_primes
        ):
            raise ProtocolError("rns_primes must be a list of integers")
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
        raise ProtocolError(f"bad RLWE params: {error}") from None
    return params


class RLWEMultiplyOp(ServiceOp):
    """Batched RLWE ciphertext-by-ciphertext products (tensor +
    relinearization).

    Payload: the :func:`_decode_rlwe_params` fields (``n``, ``t``,
    ``noise_bound``, optional ``rns_primes``/``relin_base``), a
    ``relin`` object (``RelinKeys.to_payload()`` — the evaluator key
    material, never the secret) and ``pairs``:
    ``[[[c0, c1], [d0, d1]], ...]`` where a component is a flat
    coefficient list (single-modulus) or a ``level × n`` list of
    residue-channel rows (RNS).  Result: ``[[c0, c1], ...]`` in the
    same component encoding.  The coalesce key carries the plan shape
    *and* a digest of the relinearization keys, so only requests
    evaluating under the same keyset share a batched
    ``multiply_many`` pass.
    """

    name = "rlwe-multiply"

    def __init__(self, params, relin, pairs):
        self.params = params
        self.relin = relin
        self.pairs = list(pairs)
        if not self.pairs:
            raise ProtocolError("rlwe-multiply needs >= 1 pair")
        levels = {x.level for pair in self.pairs for x in pair}
        if len(levels) != 1:
            raise ProtocolError(
                "all ciphertexts must sit at the same chain level"
            )
        self.level = levels.pop()

    @property
    def count(self) -> int:
        return len(self.pairs)

    def coalesce_key(self) -> Tuple:
        p = self.params
        return (
            "rlwe-multiply",
            p.n,
            p.t,
            p.noise_bound,
            p.rns_primes,
            p.relin_base,
            self.level,
            self.relin.digest(),
        )

    @classmethod
    def from_payload(cls, payload: dict) -> "RLWEMultiplyOp":
        from repro.fhe.rlwe import RelinKeys, RLWECiphertext
        from repro.field.vector import to_field_array

        params = _decode_rlwe_params(payload)
        raw_relin = _require(payload, "relin")
        if not isinstance(raw_relin, dict):
            raise ProtocolError("relin must be an object")
        try:
            relin = RelinKeys.from_payload(params, raw_relin)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad relin keys: {error}") from None
        raw_pairs = _require(payload, "pairs")
        if not isinstance(raw_pairs, list):
            raise ProtocolError("pairs must be a list")

        def component(raw, level: int):
            rows = _int_rows(raw, "ciphertext component")
            if any(len(row) != params.n for row in rows):
                raise ProtocolError(
                    f"component rows must have {params.n} coefficients"
                )
            if params.is_rns:
                if len(rows) != level:
                    raise ProtocolError(
                        f"RNS components must carry {level} channel rows"
                    )
                try:
                    return params.channel_residues(rows, level)
                except ValueError as error:
                    raise ProtocolError(f"bad ciphertext: {error}") from None
            if len(rows) != 1:
                raise ProtocolError(
                    "single-modulus components must be flat rows"
                )
            return to_field_array(rows[0])

        def level_of(raw) -> int:
            if not params.is_rns:
                return 1
            rows = _int_rows(raw, "ciphertext component")
            level = len(rows)
            if not 1 <= level <= params.level_count:
                raise ProtocolError(
                    "RNS component row count must match a chain level"
                )
            return level

        pairs = []
        for raw in raw_pairs:
            if not isinstance(raw, list) or len(raw) != 2:
                raise ProtocolError("each pair must be [ct, ct]")
            decoded = []
            for raw_ct in raw:
                if not isinstance(raw_ct, list) or len(raw_ct) != 2:
                    raise ProtocolError(
                        "each ciphertext must be [c0, c1]"
                    )
                level = level_of(raw_ct[0])
                decoded.append(
                    RLWECiphertext(
                        c0=component(raw_ct[0], level),
                        c1=component(raw_ct[1], level),
                        params=params,
                        level=level if params.is_rns else None,
                    )
                )
            pairs.append(tuple(decoded))
        return cls(params=params, relin=relin, pairs=pairs)

    @classmethod
    def of(cls, params, relin, pairs) -> "RLWEMultiplyOp":
        from repro.fhe.rlwe import RLWEKeyPair

        if isinstance(relin, RLWEKeyPair):
            relin = relin.relin
        return cls(params=params, relin=relin, pairs=pairs)

    @staticmethod
    def merge(ops: Sequence["RLWEMultiplyOp"]) -> Job:
        from repro.engine.jobs import RLWEMultiplyJob

        pairs: List[Tuple[Any, Any]] = []
        for op in ops:
            pairs.extend(op.pairs)
        return RLWEMultiplyJob(
            params=ops[0].params,
            relin=ops[0].relin,
            pairs=tuple(pairs),
        )

    @staticmethod
    def split(ops: Sequence["RLWEMultiplyOp"], result) -> List[Any]:
        return _split_by_counts(ops, result)

    def encode_result(self, result) -> Any:
        def encode(component) -> Any:
            if component.ndim == 1:
                return [int(v) for v in component]
            return [[int(v) for v in row] for row in component]

        return [[encode(ct.c0), encode(ct.c1)] for ct in result]


#: Registered op name → class.
OPS: Dict[str, Type[ServiceOp]] = {
    op.name: op
    for op in (
        MultiplyOp,
        RingTransformOp,
        ConvolveOp,
        DGHVMultOp,
        RLWEMultiplyPlainOp,
        RLWEMultiplyOp,
    )
}


def decode_op(name: str, payload: dict) -> ServiceOp:
    """Build the named op from a JSON payload (typed errors)."""
    try:
        op_class = OPS[name]
    except KeyError:
        raise ProtocolError(
            f"unknown op {name!r}; expected one of {sorted(OPS)}"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be a JSON object")
    return op_class.from_payload(payload)


__all__ = [
    "ServiceOp",
    "MultiplyOp",
    "RingTransformOp",
    "ConvolveOp",
    "DGHVMultOp",
    "RLWEMultiplyPlainOp",
    "RLWEMultiplyOp",
    "OPS",
    "decode_op",
]

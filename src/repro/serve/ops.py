"""Wire decoding of service ops.

The op vocabulary is :data:`repro.engine.jobs.JOB_TYPES`: each job
type carries its own codec, coalesce key, merge and split.  This
module only looks an op name up and types the decode errors.
"""

from __future__ import annotations

from repro.engine.jobs import JOB_TYPES, Job, MultiplyJob, RLWEMultiplyJob
from repro.serve.protocol import ProtocolError

# The traced serve-mixed benchmark run (perfbench/tracing.py) wraps
# ``repro.serve.ops:MultiplyOp.encode_result`` and
# ``repro.serve.ops:RLWEMultiplyOp.encode_result``; these aliases keep
# both bindings on the job types the server encodes with.
MultiplyOp = MultiplyJob
RLWEMultiplyOp = RLWEMultiplyJob


def decode_op(name: str, payload: dict) -> Job:
    """Build the named op's job from a JSON payload (typed errors)."""
    try:
        job_type = JOB_TYPES[name]
    except KeyError:
        raise ProtocolError(
            f"unknown op {name!r}; expected one of {sorted(JOB_TYPES)}"
        ) from None
    if not isinstance(payload, dict):
        raise ProtocolError("payload must be a JSON object")
    try:
        return job_type.from_payload(payload)
    except (TypeError, ValueError) as error:
        raise ProtocolError(str(error)) from None


__all__ = ["decode_op"]

"""Homomorphic encryption workloads for the accelerator.

The workload that motivates the accelerator (paper Sections I, III):
the 786,432-bit operands of the SSA multiplier "correspond to the small
security parameter setting for DGHV adopted in various research
papers".  This package implements two schemes behind one
:class:`repro.fhe.ops.HEScheme` protocol:

- the van Dijk–Gentry–Halevi–Vaikuntanathan scheme over the integers
  (symmetric and public-key variants) with a pluggable big-integer
  multiplier, so ciphertext products can be routed through
  :class:`repro.ssa.SSAMultiplier` or the accelerator model in
  :mod:`repro.hw.accelerator`;
- a BV-style RLWE scheme over ``Z_q[x]/(x^n + 1)`` — the lattice/LWE
  direction the paper names in Section III — with ciphertext products
  (relinearization key switching), BGV modulus switching and an
  RNS/CRT residue representation, every ring product a negacyclic NTT
  convolution on the engine.

This is a *functional* reproduction of the workload — parameters are
sized to exercise the accelerator, not to deliver cryptographic
security (the public-key element count ``tau`` in particular is far
below the security requirement, as documented in
:mod:`repro.fhe.params`).
"""

from repro.fhe.params import FHEParams, TOY, MEDIUM, SMALL_DGHV
from repro.fhe.dghv import DGHV, KeyPair, Ciphertext
from repro.fhe.ops import (
    HEScheme,
    he_add,
    he_mult,
    NoiseBudgetError,
)
from repro.fhe.rlwe import (
    RLWE,
    RLWEParams,
    RLWECiphertext,
    RLWEKeyPair,
    RelinKeys,
    default_rns_primes,
)

__all__ = [
    "FHEParams",
    "TOY",
    "MEDIUM",
    "SMALL_DGHV",
    "DGHV",
    "KeyPair",
    "Ciphertext",
    "HEScheme",
    "he_add",
    "he_mult",
    "NoiseBudgetError",
    "RLWE",
    "RLWEParams",
    "RLWECiphertext",
    "RLWEKeyPair",
    "RelinKeys",
    "default_rns_primes",
]

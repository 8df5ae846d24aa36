"""Photodiode click model for coherent outputs.

Detectors are ideal threshold detectors: unit efficiency and no dark
counts.  They report only "at least one photon", which on a coherent
state |beta> happens with probability 1 - exp(-|beta|^2).  Sampling
uses numpy's default PCG64 generator (``np.random.default_rng``) with a
64-bit seed, drawing one uniform per port in port order, so a seed fixes
the whole click record bit for bit.  Per-trial determinism comes from
seeding each trial with seed + index.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .engine import as_amplitudes
from .errors import DimensionError, NonFiniteError


@dataclass(frozen=True)
class ClickRecord:
    port: int
    clicked: bool
    probability: float


def click_probability(beta: complex) -> float:
    """Probability of at least one photoelectron from coherent amplitude beta."""
    beta = complex(beta)
    if not cmath.isfinite(beta):
        raise NonFiniteError("amplitude must be finite")
    try:
        mean = abs(beta) ** 2
    except OverflowError:  # a mean photon number beyond the double range
        return 1.0
    return float(-np.expm1(-mean))


def sample_clicks(
    amplitudes, ports: Sequence[int] | Iterable[int], seed: int
) -> list[ClickRecord]:
    """Independent Bernoulli click draws on ``ports``, reproducible by seed."""
    vec = as_amplitudes(amplitudes)
    ports = [int(p) for p in ports]
    for port in ports:
        if not 0 <= port < vec.shape[0]:
            raise DimensionError(f"port {port} out of range for width {vec.shape[0]}")
    rng = np.random.default_rng(seed)
    records = []
    for port in ports:
        p = click_probability(vec[port])
        records.append(ClickRecord(port, bool(rng.random() < p), p))
    return records

"""The two physical primitives: beamsplitters and phase shifters.

Element matrices act on vectors of conjugated ("starred") coherent
amplitudes.  The beamsplitter uses the same 2x2 matrix for mode
operators and starred amplitudes; the phase shifter multiplies a
starred amplitude by exp(-i*phi) while the mode operator itself gains
exp(+i*phi).  Mode indices are 0-based everywhere in code; 1-based
port labels appear only in CLI output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DimensionError, NonFiniteError


# Modes index arrays, so they must be integers (numpy integer scalars too).
_INTEGER = (int, np.integer)


@dataclass(frozen=True)
class Beamsplitter:
    """Two-mode coupler with reflectivity sin(theta)^2 and relative phase phi."""

    mode1: int
    mode2: int
    theta: float
    phi: float

    @property
    def modes(self) -> tuple[int, int]:
        return (self.mode1, self.mode2)

    def __post_init__(self):
        if not (isinstance(self.mode1, _INTEGER) and isinstance(self.mode2, _INTEGER)):
            raise DimensionError(
                f"beamsplitter modes must be integers, got {self.mode1!r}, {self.mode2!r}"
            )
        if self.mode1 < 0 or self.mode2 < 0:
            raise DimensionError("beamsplitter modes must be non-negative")
        if self.mode1 == self.mode2:
            raise DimensionError("beamsplitter modes must be distinct")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise NonFiniteError("beamsplitter angles must be finite")


@dataclass(frozen=True)
class PhaseShifter:
    """Single-mode element multiplying the starred amplitude by exp(-i*phi)."""

    mode: int
    phi: float

    @property
    def modes(self) -> tuple[int]:
        return (self.mode,)

    def __post_init__(self):
        if not isinstance(self.mode, _INTEGER):
            raise DimensionError(
                f"phase shifter mode must be an integer, got {self.mode!r}"
            )
        if self.mode < 0:
            raise DimensionError("phase shifter mode must be non-negative")
        if not math.isfinite(self.phi):
            raise NonFiniteError("phase shifter angle must be finite")


OpticalElement = Union[Beamsplitter, PhaseShifter]


def beamsplitter_matrix(theta, phi) -> np.ndarray:
    """2x2 map [[cos t, i e^{-i phi} sin t], [i e^{i phi} sin t, cos t]].

    Array angles give a stack of shape ``np.shape(theta) + (2, 2)``.
    """
    c = np.cos(theta)
    i_s = 1j * np.sin(theta)
    e = np.exp(1j * np.asarray(phi))
    m = np.empty(np.shape(c) + (2, 2), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = c
    m[..., 0, 1] = i_s * e.conj()
    m[..., 1, 0] = i_s * e
    return m


def phaseshifter_factor(phi) -> complex | np.ndarray:
    """Multiplier exp(-i*phi) applied to the starred amplitude.

    Array angles give an array of factors.
    """
    return np.exp(-1j * np.asarray(phi))

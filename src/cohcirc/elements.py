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

import numpy as np

from .errors import DimensionError, NonFiniteError


# Modes, detector ports and circuit widths index arrays, so they must be
# integers (numpy integer scalars too).
_INTEGER = (int, np.integer)


def element_error(modes: tuple, angles: tuple) -> ValueError | None:
    """The error a beamsplitter (two modes) or phase shifter (one mode)
    with these modes and angles is rejected with, or None if it is valid."""
    first, last = modes[0], modes[-1]
    kind, s = ("beamsplitter", "s") if len(modes) == 2 else ("phase shifter", "")
    if not (isinstance(first, _INTEGER) and isinstance(last, _INTEGER)):
        what = "integers" if s else "an integer"
        return DimensionError(f"{kind} mode{s} must be {what}, got {', '.join(map(repr, modes))}")
    if first < 0 or last < 0:
        return DimensionError(f"{kind} mode{s} must be non-negative")
    if first == last and s:
        return DimensionError("beamsplitter modes must be distinct")
    if not (math.isfinite(angles[0]) and math.isfinite(angles[-1])):
        return NonFiniteError(f"{kind} angle{s} must be finite")
    return None


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
        error = element_error(self.modes, (self.theta, self.phi))
        if error:
            raise error


@dataclass(frozen=True)
class PhaseShifter:
    """Single-mode element multiplying the starred amplitude by exp(-i*phi)."""

    mode: int
    phi: float

    @property
    def modes(self) -> tuple[int]:
        return (self.mode,)

    def __post_init__(self):
        error = element_error(self.modes, (self.phi,))
        if error:
            raise error


OpticalElement = Beamsplitter | PhaseShifter


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

"""Circuit synthesis: triangular-mesh decomposition of unitaries and
block dilation of contractions.

A :class:`Circuit` is an ordered element list over a fixed number of
modes; list order is physical order, the first element acts first.  A
circuit is lowered once into index and coefficient arrays scheduled into
layers of elements on disjoint modes, and one kernel, :func:`propagate`,
applies those layers to a vector or a block of vectors.
``compile_circuit`` is that kernel applied to the identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import linalg
from .elements import (
    Beamsplitter,
    OpticalElement,
    PhaseShifter,
    beamsplitter_matrix,
    phaseshifter_factor,
)
from .errors import ContractionError, DimensionError, SynthesisError


@dataclass(frozen=True)
class Circuit:
    """An ordered beamsplitter/phase-shifter sequence on ``width`` modes."""

    width: int
    elements: tuple[OpticalElement, ...] = ()

    def __post_init__(self):
        if self.width < 1:
            raise DimensionError("circuit width must be at least 1")
        object.__setattr__(self, "elements", tuple(self.elements))
        for element in self.elements:
            if max(element.modes) >= self.width:
                raise DimensionError(
                    f"element modes {element.modes} exceed circuit width {self.width}"
                )

    @property
    def beamsplitter_count(self) -> int:
        return sum(isinstance(e, Beamsplitter) for e in self.elements)

    @property
    def phase_shifter_count(self) -> int:
        return sum(isinstance(e, PhaseShifter) for e in self.elements)

    @cached_property
    def lowered(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """The circuit as layer steps, computed on first use and kept on the instance.

        Each element is scheduled one layer past the last layer of any
        earlier element sharing a mode, so the elements of a layer act on
        disjoint modes and running the layers in order keeps list order as
        physical order.  Each layer is one ``(src, coef, dst)`` step, which
        sets rows ``dst`` of the state to
        ``coef[0] * x[src[0]] + coef[1] * x[src[1]]``: two rows per
        beamsplitter and one per phase shifter (whose ``coef[1]`` is 0).
        """
        free = [0] * self.width  # first layer in which each mode is idle
        couplers, pair_layer, shifters, phase_layer = [], [], [], []
        for element in self.elements:
            if isinstance(element, Beamsplitter):
                i, j = element.modes
                at = free[i] if free[i] > free[j] else free[j]
                free[i] = free[j] = at + 1
                couplers.append(element)
                pair_layer.append(at)
            else:
                (i,) = element.modes
                phase_layer.append(free[i])
                free[i] += 1
                shifters.append(element)

        def column(items, attr, dtype):
            return np.fromiter(map(attrgetter(attr), items), dtype, len(items))

        pairs = np.stack(
            [column(couplers, "mode1", np.intp), column(couplers, "mode2", np.intp)], 1
        )
        blocks = beamsplitter_matrix(
            column(couplers, "theta", float), column(couplers, "phi", float)
        )
        phase_modes = column(shifters, "mode", np.intp)
        phase_factors = phaseshifter_factor(column(shifters, "phi", float))

        # One row per updated amplitude, holding its (dst, other source)
        # indices and (own, other) coefficients: rows i and j of each
        # beamsplitter and row p of each phase shifter.
        sources = np.concatenate([pairs, pairs[:, ::-1], np.stack([phase_modes] * 2, 1)])
        coefs = np.concatenate(
            [
                blocks[:, 0, :],
                blocks[:, 1, ::-1],
                np.stack([phase_factors, np.zeros_like(phase_factors)], 1),
            ]
        )
        row_layer = np.array(pair_layer * 2 + phase_layer, dtype=np.intp)
        order = np.argsort(row_layer, kind="stable")
        src = sources.T[:, order]
        coef = coefs.T[:, order]
        bounds = np.cumsum(np.bincount(row_layer)).tolist()
        return tuple(
            (src[:, lo:hi], coef[:, lo:hi], src[0, lo:hi])
            for lo, hi in zip([0] + bounds[:-1], bounds)
        )


def propagate(circuit: Circuit, x) -> np.ndarray:
    """Apply ``circuit`` to a ``(width,)`` vector or ``(width, k)`` block.

    Returns a new array; each layer is one gather, multiply-add and scatter.
    """
    out = np.array(x, dtype=complex)
    vector = out.ndim == 1
    for src, coef, dst in circuit.lowered:
        gathered = out.take(src, axis=0)
        gathered *= coef if vector else coef[:, :, None]
        out[dst] = gathered[0] + gathered[1]
    return out


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """The circuit's matrix: :func:`propagate` applied to the identity."""
    return propagate(circuit, np.eye(circuit.width, dtype=complex))


def reck_decompose(u, tol: float = linalg.UNITARY_TOL, full_mesh: bool = False) -> Circuit:
    """Factor a unitary into a triangular beamsplitter mesh plus phases.

    Works row by row from the bottom: each off-diagonal entry of the
    current last row is nulled by mixing its column into the diagonal
    one, peeling off a phase and recursing on the remaining block.  The
    emitted circuit uses at most N(N-1)/2 beamsplitters followed by at
    most N phase shifters and compiles back to ``u`` within ~10*tol.

    Entries already below ``tol`` normally emit nothing; with
    ``full_mesh=True`` they emit theta=0 couplers instead, so the
    layout is always the complete triangular mesh.
    """
    w = linalg.as_matrix(u).copy()
    n = w.shape[0]
    if w.shape[0] != w.shape[1]:
        raise SynthesisError(f"only square matrices can be decomposed, got {w.shape}")
    defect = linalg.unitarity_defect(w)
    if not defect <= tol:  # a nan defect fails too
        raise SynthesisError(f"input is not unitary: max|U U^dag - I| = {defect:.3e}")

    # Column updates run on rows of the transposed copy, which are
    # contiguous.  Rows below ``row`` of the columns being mixed are
    # already zero, so only the first ``row + 1`` entries change.
    wt = w.T.copy()
    elements: list[OpticalElement] = []
    for row in range(n - 1, 0, -1):
        targets = wt[:row, row].tolist()
        y = wt[row, : row + 1]
        for col in range(row - 1, -1, -1):
            a = targets[col]
            if abs(a) <= tol:
                wt[col, row] = 0.0
                if full_mesh:
                    elements.append(Beamsplitter(col, row, 0.0, 0.0))
                continue
            b = complex(wt[row, row])
            theta = math.atan2(abs(a), abs(b))
            phi = cmath.phase(a) - cmath.phase(b) + math.pi / 2
            phi = (phi + math.pi) % (2 * math.pi) - math.pi
            c = math.cos(theta)
            s = math.sin(theta)
            # [x y] <- [x y] @ beamsplitter_matrix(theta, phi), in place.
            e = cmath.exp(1j * phi)
            x = wt[col, : row + 1]
            from_x = x * (1j * s * e.conjugate())
            x *= c
            x += y * (1j * s * e)
            y *= c
            y += from_x
            wt[col, row] = 0.0
            elements.append(Beamsplitter(col, row, -theta, phi))

    # What is left is diagonal with unit-modulus entries; realize it as
    # a trailing phase-shifter layer, dropping phases that round to 0.
    for mode, d in enumerate(np.diagonal(wt).tolist()):
        if abs(d - 1.0) <= tol:
            continue
        elements.append(PhaseShifter(mode, -cmath.phase(d)))
    return Circuit(width=n, elements=tuple(elements))


@dataclass(frozen=True)
class DilationPorts:
    """Bookkeeping for a dilated contraction: which ports carry signal.

    Inputs enter ports ``input_ports`` (the rest must be dark, i.e.
    vacuum); the contracted outputs appear on ``output_ports``.
    """

    width: int
    input_ports: tuple[int, ...]
    output_ports: tuple[int, ...]


def dilate(k, tol: float = linalg.UNITARY_TOL) -> tuple[np.ndarray, DilationPorts]:
    """Embed a contraction K as the top-left block of a unitary.

    Returns the 2s x 2s unitary

        [[K, -(I - K K^dag)^{1/2}], [(I - K^dag K)^{1/2}, K^dag]]

    with s = max(M, N) after a rectangular K is padded square (K in the
    upper-left, ones on the remaining diagonal).  Raises
    :class:`ContractionError` when the largest singular value exceeds
    1 + tol.  Identity padding keeps the contraction property only when
    the padded-in rows/columns do not overlap K's support, so the
    largest singular value of the padded matrix is checked again.
    """
    kk = linalg.as_matrix(k)
    m_out, n_in = kk.shape
    sigma = linalg.spectral_norm(kk)
    if sigma > 1 + tol:
        raise ContractionError(
            f"largest singular value {sigma:.12g} exceeds 1; not a contraction"
        )
    size = max(m_out, n_in)
    padded = np.zeros((size, size), dtype=complex)
    padded[:m_out, :n_in] = kk
    for i in range(min(m_out, n_in), size):
        padded[i, i] = 1.0
    # Both complement roots come from one SVD of K; computing them with two
    # independent eigendecompositions breaks the exchange identity
    # K (I-K^dag K)^{1/2} = (I-K K^dag)^{1/2} K by ~sqrt(eps) when a
    # singular value sits at 1, which would leave the block matrix
    # unitary only to ~1e-8.
    v, s, wh = np.linalg.svd(padded)
    if size > min(m_out, n_in) and s[0] > 1 + tol:
        raise ContractionError(
            f"identity padding raises the largest singular value to "
            f"{s[0]:.12g}; pad the matrix with zero rows/columns "
            "yourself if the extra ports are not pass-through"
        )
    r = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    out_complement = (v * r) @ v.conj().T
    in_complement = (wh.conj().T * r) @ wh
    u = np.block([[padded, -out_complement], [in_complement, padded.conj().T]])
    ports = DilationPorts(
        width=2 * size,
        input_ports=tuple(range(n_in)),
        output_ports=tuple(range(m_out)),
    )
    return u, ports

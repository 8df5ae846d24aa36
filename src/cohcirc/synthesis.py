"""Circuit synthesis: the beamsplitter and phase-shifter primitives, the
circuits built from them, triangular-mesh decomposition of unitaries and
block dilation of contractions.

Element matrices M map starred (conjugated) coherent amplitudes, which for
both elements transform as creation operators do in the Heisenberg picture,
a_i^dag -> sum_j M_ij a_j^dag; physical and single-photon amplitudes take
conj(M).  A map written for physical amplitudes is conjugated entrywise
before it is applied: if b* = M a* then b = M* a.  Modes are 0-based in
code; 1-based port labels appear only in CLI output.

A :class:`Circuit` holds its elements as columns, one row per element in
physical order.  It is lowered once into layers of elements on disjoint
modes, and one kernel, :func:`propagate`, applies the layers to a vector
or a block; ``apply_circuit`` is that kernel applied to a checked amplitude
vector and ``compile_circuit`` that kernel applied to the identity.

:func:`reck_decompose` nulls a row in closed form.  Nulling entry ``a_k``
against the pivot keeps the pivot's phase ``arg b_0`` (taken as 0 when
``|b_0| <= tol``, so rounding noise sets no phase) and raises its
modulus to ``r_{k+1} = sqrt(r_k^2 + |a_k|^2)`` from ``r_0 = |b_0|``, so
``theta_k = atan2(|a_k|, r_k)`` and ``phi_k = arg a_k - arg b_0 + pi/2``.
With ``g_k = i |a_k| e^{-i phi_k}`` and the prefix sum
``S_k = |b_0| y_0 + sum_{j<k} g_j x_j`` over the original columns, the
pivot column before step k is ``y_k = S_k / r_k`` and column k becomes
``(r_k x_k - conj(g_k) y_k) / r_{k+1}``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ContractionError, DimensionError, NonFiniteError, SynthesisError
from .linalg import _finite, as_amplitudes


# Modes, circuit widths and DFT sizes index or shape arrays, so they must
# be integers (numpy integer scalars too).
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


class Circuit:
    """An ordered beamsplitter/phase-shifter sequence on ``width`` modes.

    Held as read-only ``columns``: integer ``modes`` ``(k, 2)`` (a phase
    shifter repeats its mode), the beamsplitter mask ``coupler``,
    ``theta`` (0 for a phase shifter) and ``phi``.  Give either element
    objects or the columns; rows are checked as the element constructors
    check them and must have this one form, so equal columns are equal
    elements (the error for a bad row carries its index as ``row``).
    ``elements`` is derived from the columns on first use.
    """

    def __init__(self, width: int, elements=(), columns=None):
        if columns is None:
            elements = self.__dict__["elements"] = tuple(elements)
            columns = (
                [(e.modes * 2)[:2] for e in elements],
                [isinstance(e, Beamsplitter) for e in elements],
                [getattr(e, "theta", 0.0) for e in elements],
                [e.phi for e in elements],
            )
        elif tuple(elements):
            raise TypeError("give a circuit's elements or its columns, not both")
        modes = np.asarray(columns[0])
        if modes.size and modes.dtype.kind not in "iu":
            raise DimensionError("element modes must be integers within the index range")
        modes = modes.astype(np.intp).reshape(-1, 2)
        dtypes = (bool, float, float)
        coupler, theta, phi = (np.array(c, dtype) for c, dtype in zip(columns[1:], dtypes))
        bad = (modes < 0).any(axis=1) | (coupler == (modes[:, 0] == modes[:, 1]))
        bad |= ~(np.isfinite(theta) & np.isfinite(phi)) | (~coupler & (theta != 0))
        if bad.any():
            k = int(bad.argmax())
            angles = (theta[k], phi[k]) if coupler[k] else (phi[k],)
            error = element_error(tuple(modes[k, : 1 + coupler[k]].tolist()), angles)
            error = error or DimensionError(
                f"a phase shifter row must repeat its mode and have theta 0, "
                f"got modes {tuple(modes[k].tolist())} and theta {theta[k]:g}"
            )
            error.row = k  # for messages that name where the element came from
            raise error
        if not isinstance(width, _INTEGER):
            raise DimensionError(f"circuit width must be an integer, got {width!r}")
        if width < 1:
            raise DimensionError("circuit width must be at least 1")
        beyond = modes.max(axis=1, initial=0) >= width
        if beyond.any():
            k = beyond.argmax()
            shown = tuple(modes[k, : 1 + coupler[k]].tolist())
            raise DimensionError(f"element modes {shown} exceed circuit width {width}")
        for column in (modes, coupler, theta, phi):
            column.flags.writeable = False
        self.width = width
        self.columns = self.modes, self.coupler, self.theta, self.phi = modes, coupler, theta, phi

    @cached_property
    def elements(self) -> tuple[Beamsplitter | PhaseShifter, ...]:
        return tuple(
            Beamsplitter(i, j, t, p) if c else PhaseShifter(i, p)
            for (i, j), c, t, p in zip(*(column.tolist() for column in self.columns))
        )

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.width == other.width and all(map(np.array_equal, self.columns, other.columns))

    def __hash__(self):
        return hash((self.width, self.modes.tobytes(), self.coupler.tobytes()))

    def __repr__(self):
        return f"Circuit(width={self.width!r}, elements={self.elements!r})"

    @property
    def beamsplitter_count(self) -> int:
        return int(np.count_nonzero(self.coupler))

    @property
    def phase_shifter_count(self) -> int:
        return len(self.coupler) - self.beamsplitter_count

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
        layer = []
        for i, j in self.modes.tolist():  # a phase shifter has i == j
            at = free[i] if free[i] > free[j] else free[j]
            free[i] = free[j] = at + 1
            layer.append(at)
        layer = np.array(layer, dtype=np.intp)
        bs, shifter = self.coupler, ~self.coupler
        pairs = self.modes[bs]
        blocks = beamsplitter_matrix(self.theta[bs], self.phi[bs])
        phase_factors = phaseshifter_factor(self.phi[shifter])

        # One row per updated amplitude, holding its (dst, other source)
        # indices and (own, other) coefficients: rows i and j of each
        # beamsplitter and row p of each phase shifter.
        sources = np.concatenate([pairs, pairs[:, ::-1], self.modes[shifter]])
        shifts = np.stack([phase_factors, np.zeros_like(phase_factors)], 1)
        coefs = np.concatenate([blocks[:, 0, :], blocks[:, 1, ::-1], shifts])
        row_layer = np.concatenate([layer[bs], layer[bs], layer[shifter]])
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


def apply_circuit(circuit: Circuit, amplitudes) -> np.ndarray:
    """Layer-by-layer propagation; equals apply_matrix(compile(c), a)."""
    vec = as_amplitudes(amplitudes)
    if circuit.width != vec.shape[0]:
        raise DimensionError(
            f"circuit width {circuit.width} does not match vector width {vec.shape[0]}"
        )
    return _finite("propagated amplitudes", propagate, circuit, vec)


def compile_circuit(circuit: Circuit) -> np.ndarray:
    """The circuit's matrix: :func:`propagate` applied to the identity."""
    return propagate(circuit, np.eye(circuit.width, dtype=complex))


def reck_decompose(u, tol: float = linalg.UNITARY_TOL, full_mesh: bool = False) -> Circuit:
    """Factor a unitary into a triangular beamsplitter mesh plus phases.

    Works row by row from the bottom: each off-diagonal entry of the
    current last row, from the diagonal leftwards, is nulled by mixing
    its column into the diagonal one (in closed form, see the module
    docstring), which leaves a phase and a smaller unitary.  The emitted
    circuit uses at most N(N-1)/2 beamsplitters followed by at most N
    phase shifters and compiles back to ``u`` within ~10*tol.

    Entries already at or below ``tol`` normally emit nothing; with
    ``full_mesh=True`` they emit theta=0 couplers instead, so the
    layout is always the complete triangular mesh.
    """
    linalg.check_tol(tol)
    w = linalg.as_matrix(u)
    n = w.shape[0]
    if w.shape[0] != w.shape[1]:
        raise SynthesisError(f"only square matrices can be decomposed, got {w.shape}")
    defect = linalg.unitarity_defect(w)
    if not defect <= tol:  # a nan defect fails too
        raise SynthesisError(f"input is not unitary: max|U U^dag - I| = {defect:.3e}")

    # Row m of ``wt`` is column m of the target.  Rows below ``row`` of the
    # columns being mixed are already zero, so only their first ``row``
    # entries change, and of the pivot column only the diagonal is read
    # again.  Per coupler the loop keeps a_k, r_k and arg b_0 for the angles.
    wt = w.T.copy()
    count = n * (n - 1) // 2
    targets, norms, pivot_args = np.zeros(count, complex), np.zeros(count), np.zeros(count)
    end = 0
    for row in range(n - 1, 0, -1):
        start, end = end, end + row
        a = targets[start:end]
        a[:] = wt[row - 1 :: -1, row]  # column row - 1 first
        size = np.abs(a)
        (k,) = (size > tol).nonzero()
        if not k.size:
            continue
        if k.size < row:
            a, size = a[k], size[k]
        b0 = complex(wt[row, row])
        r = np.hypot.accumulate(np.concatenate(([abs(b0)], size)))
        norms[start + k] = r[:-1]
        pivot_args[start:end] = arg = cmath.phase(b0) if abs(b0) > tol else 0.0
        g = a.conj() * cmath.exp(1j * arg)  # g_k = i |a_k| e^{-i phi_k}
        col = row - 1 - k
        x = wt[col, :row]
        y0 = wt[row, :row]
        h = g.conj() / r[1:]
        s = g[:-1, None] * x[:-1]
        s[:1] += abs(b0) * y0
        s.cumsum(0, out=s)  # s[k - 1] = S_k = r_k y_k
        x *= (r[:-1] / r[1:])[:, None]
        x[0] -= h[0] * y0
        x[1:] -= (h[1:] / r[1:-1])[:, None] * s
        wt[col, :row] = x
        wt[row, row] = (abs(b0) * b0 + g @ a) / r[-1]

    # What is left is diagonal with unit-modulus entries d; realize it as
    # a trailing phase-shifter layer, dropping phases that round to 0.
    d = np.diagonal(wt)
    skipped = np.abs(targets) <= tol
    emit = np.concatenate([~skipped | full_mesh, np.abs(d - 1.0) > tol])
    theta = np.concatenate([-np.arctan2(np.abs(targets), norms), np.zeros(n)])
    phi = np.concatenate([np.angle(targets) - pivot_args + math.pi / 2, -np.angle(d)])
    phi[:count] = (phi[:count] + math.pi) % (2 * math.pi) - math.pi
    theta[:count][skipped] = phi[:count][skipped] = 0.0
    # Coupler p, counted backwards, is the (row, col) pair p of the lower
    # triangle in row-major order; phase shifter q sits on mode q.
    rows = np.repeat(np.arange(1, n), np.arange(1, n))
    pairs = np.stack([np.arange(count) - rows * (rows - 1) // 2, rows], 1)[::-1]
    modes = np.concatenate([pairs, np.repeat(np.arange(n), 2).reshape(n, 2)])
    coupler = np.arange(count + n) < count
    return Circuit(n, columns=(modes[emit], coupler[emit], theta[emit], phi[emit]))


def dilate(k, tol: float = linalg.UNITARY_TOL) -> np.ndarray:
    """Embed an M x N contraction K as the top-left block of a unitary.

    Returns the (M+N) x (M+N) unitary

        [[K, -(I_M - K K^dag)^{1/2}], [(I_N - K^dag K)^{1/2}, K^dag]]

    The N inputs enter ports 0..N-1, the M dark (vacuum) ancillas ports
    N..N+M-1, and K's M outputs leave on ports 0..M-1.  Raises
    :class:`ContractionError` unless K's largest singular value is at most
    sqrt(1 + tol), so that the result is unitary within tol.
    """
    linalg.check_tol(tol)
    kk = linalg.as_matrix(k)
    # Both complement roots come from one SVD of K; computing them with two
    # independent eigendecompositions breaks the exchange identity
    # K (I-K^dag K)^{1/2} = (I-K K^dag)^{1/2} K by ~sqrt(eps) when a
    # singular value sits at 1, which would leave the block matrix
    # unitary only to ~1e-8.
    v, s, wh = np.linalg.svd(kk)
    if not s[0] <= math.sqrt(1 + tol):  # a nan fails too
        raise ContractionError(
            f"input is neither unitary nor a contraction (largest singular value {s[0]:.12g})"
        )
    # Singular directions beyond min(M, N) have singular value 0, so root 1.
    r_out = np.ones(kk.shape[0])
    r_in = np.ones(kk.shape[1])
    r_out[: s.size] = r_in[: s.size] = np.sqrt(np.clip(1.0 - s**2, 0.0, None))
    out_complement = (v * r_out) @ v.conj().T
    in_complement = (wh.conj().T * r_in) @ wh
    return np.block([[kk, -out_complement], [in_complement, kk.conj().T]])

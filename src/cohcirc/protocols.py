"""The three worked applications built on linalg + synthesis + detection:

* phase-state generation and attenuation ladders for phase-encoded keys,
* restorable database search by interferometric state comparison,
* feasibility of distilling Bell-cat states from raw entangled pairs.

Protocol functions return starred amplitude vectors (the convention of
:mod:`cohcirc.synthesis`); conjugate for physical values.  The comparison
and identification maps below are written directly on starred amplitudes;
the discrete Fourier transform is specified on physical amplitudes and is
conjugated before it is synthesized.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .detection import click_probability, sample_clicks
from .errors import ContractionError, DimensionError, NonFiniteError, SynthesisError
from .linalg import apply_matrix, pad_vacuum
from .synthesis import _INTEGER, Circuit, apply_circuit, dilate, reck_decompose

DILATION = "dilation"
EXPLICIT = "explicit"
SEARCH_MODES = (DILATION, EXPLICIT)


def _check_size(n, minimum: int, message: str) -> None:
    """Raise DimensionError(message) unless ``n`` is an integer of at least ``minimum``."""
    if not isinstance(n, _INTEGER) or n < minimum:
        raise DimensionError(message)


def dft_matrix(n: int) -> np.ndarray:
    """Unitary DFT, entries omega^(j*k)/sqrt(n) with omega = exp(2*pi*i/n)."""
    _check_size(n, 1, f"DFT size must be an integer of at least 1, got {n!r}")
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


@functools.lru_cache
def _dft_circuit(n: int) -> Circuit:
    # Conjugated: the DFT is specified on physical amplitudes.
    return reck_decompose(dft_matrix(n).conj())


def generate_phase_states(n: int, alpha: complex) -> np.ndarray:
    """Fan one coherent input out into the n phase states alpha*omega^k.

    Simulates the synthesized DFT circuit fed with sqrt(n)*alpha on its
    second port (the only one when n = 1), so port k (0-based) yields
    alpha*omega^k.  Returns starred amplitudes of width n.
    """
    _check_size(n, 1, "need at least one output state")
    physical_in = np.zeros(n, dtype=complex)
    physical_in[min(1, n - 1)] = math.sqrt(n) * complex(alpha)
    return apply_circuit(_dft_circuit(n), physical_in.conj())


def attenuation_ladder(n: int, alpha: complex) -> np.ndarray:
    """Turn n copies of |alpha> into |alpha/sqrt(L)> for L = 1..n.

    Applies the diagonal damping map diag(1, 1/sqrt(2), ..., 1/sqrt(n))
    through its unitary dilation with n dark ancilla ports and returns
    the starred amplitudes of the n signal outputs.
    """
    _check_size(n, 1, "need at least one rung")
    damping = np.diag(1.0 / np.sqrt(np.arange(1, n + 1))).astype(complex)
    starred_in = pad_vacuum(np.full(n, complex(alpha)).conj(), 2 * n)
    return apply_matrix(dilate(damping), starred_in)[:n]


def comparison_map(n: int, c: float | None = None) -> np.ndarray:
    """(n+1) x (n+1) contraction comparing one datum against n references.

    Acting on starred (a0*, a1*, ..., an*), row 0 is zero and row j
    yields c*(a0* - aj*).  The largest singular value is |c|*sqrt(n+1),
    so the map is a contraction exactly when |c| <= 1/sqrt(n+1), the
    default scale.
    """
    _check_size(n, 2, "need at least two reference states")
    scale = _comparison_scale(n, c)
    k = np.zeros((n + 1, n + 1), dtype=complex)
    k[1:, 0] = scale
    k[np.arange(1, n + 1), np.arange(1, n + 1)] = -scale
    return k


def max_comparison_scale(n: int) -> float:
    """Largest comparison scale keeping the map a contraction: 1/sqrt(n+1)."""
    return 1.0 / np.sqrt(n + 1)


def _comparison_scale(n: int, c: float | None) -> float:
    scale = float(max_comparison_scale(n) if c is None else c)
    if not math.isfinite(scale):
        raise NonFiniteError(f"comparison scale must be finite, got {scale}")
    return scale


def search_unitary_explicit() -> np.ndarray:
    """The paper's 6x6 unitary for two references: dilate(comparison_map(2)), row 0 negated."""
    u = dilate(comparison_map(2))
    u[0] = -u[0]
    return u


@dataclass(frozen=True)
class SearchSpec:
    """One database-search instance.

    ``data`` is the unknown amplitude, promised to match one of
    ``references``; ``c`` is the comparison scale (defaults to the
    maximum 1/sqrt(N+1)); ``mode`` picks the unitary completion of the
    comparison map: ``DILATION`` (any N) or ``EXPLICIT`` (the paper's 6x6
    completion, N = 2 and c = 1/sqrt(3) only).  Two amplitudes a and b
    match when |a - b| <= 1e-12 * s, where s is the largest modulus among
    the datum and the references.  ``match`` is the 1-based index of the
    single reference matching ``data``, or None when none or several do.
    """

    references: tuple[complex, ...]
    data: complex
    c: float | None = None
    mode: str = DILATION
    match: int | None = field(init=False)

    def __post_init__(self):
        refs = tuple(complex(r) for r in self.references)
        object.__setattr__(self, "references", refs)
        object.__setattr__(self, "data", complex(self.data))
        if len(refs) < 2:
            raise DimensionError("need at least two reference states")
        c_max = max_comparison_scale(len(refs))
        scale = _comparison_scale(len(refs), self.c)
        if abs(scale) > c_max + 1e-12:
            raise ContractionError(
                f"comparison scale {scale:.12g} exceeds the contraction bound "
                f"{c_max:.12g} for {len(refs)} references"
            )
        object.__setattr__(self, "c", scale)
        if self.mode == EXPLICIT:
            if len(refs) != 2:
                raise DimensionError("explicit mode is only defined for two references")
            if abs(scale - max_comparison_scale(2)) > 1e-12:
                raise SynthesisError("explicit mode fixes the comparison scale to 1/sqrt(3)")
        elif self.mode != DILATION:
            raise ValueError(f"unknown search mode {self.mode!r}; expected one of {SEARCH_MODES}")
        values = (self.data, *refs)
        if not all(map(cmath.isfinite, values)):
            raise NonFiniteError("the datum and the references must be finite")
        # Powers of two scale exactly: compare with the largest real or
        # imaginary part in [0.5, 1), where no difference or modulus overflows.
        shift = -math.frexp(max(max(abs(z.real), abs(z.imag)) for z in values))[1]
        unit = [complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift)) for z in values]
        tol = 1e-12 * max(map(abs, unit))
        pairs = itertools.combinations(range(len(unit)), 2)
        close = [(i, j) for i, j in pairs if abs(unit[j] - unit[i]) <= tol]
        matches = [j for i, j in close if i == 0]
        object.__setattr__(self, "match", matches[0] if len(matches) == 1 else None)
        for i, j in close[len(matches) :]:  # the pairs with i = 0 come first
            warnings.warn(
                f"references {i} and {j} coincide and can never be told apart",
                stacklevel=3,
            )

    @property
    def n(self) -> int:
        return len(self.references)

    @property
    def operator(self) -> np.ndarray:
        """The read-only identification unitary, shared between equal setups."""
        return _search_operator(self.n, self.c, self.mode)

    @functools.cached_property
    def outputs(self) -> np.ndarray:
        """Read-only starred outputs of (data, references, dark ports) under
        ``operator``: the forward pass, computed once per instance."""
        starred = pad_vacuum(np.conj((self.data, *self.references)), 2 * (self.n + 1))
        out = apply_matrix(self.operator, starred)
        out.flags.writeable = False  # before any caller can see it
        return out


class SearchOutcome(NamedTuple):
    """Result of one seeded search trial, or of a batch of them.

    ``identified`` is the 1-based reference index (which equals the
    0-based comparison-port index carrying data - reference), or None
    when the click pattern is inconclusive.  ``clicked[j]`` tells whether
    comparison port j + 1 clicked.  A batch of trials seed, seed + 1, ...
    adds a leading trial axis: ``identified[t]`` and ``clicked[t]`` are
    those of the single trial seed + t, with 0 for inconclusive.
    ``retained`` is a read-only view of the untouched group-B starred
    amplitudes, the same for every trial; the measurement consumes
    group-A ports 0..N.
    """

    identified: int | None | np.ndarray
    clicked: np.ndarray
    retained: np.ndarray


@functools.lru_cache
def _search_operator(n: int, c: float, mode: str) -> np.ndarray:
    u = search_unitary_explicit() if mode == EXPLICIT else dilate(comparison_map(n, c))
    u.flags.writeable = False
    return u


def run_search(spec: SearchSpec, seed: int, trials: int | None = None) -> SearchOutcome:
    """Seeded search trials.

    Every trial reads the spec's one forward pass ``spec.outputs`` and
    samples threshold detectors on the comparison ports 1..N, where
    port j carries c*(data* - ref_j*).  A click at port j rules reference
    j out; the datum is identified as reference k exactly when port k is
    the only comparison port that stayed silent.  Any other pattern is
    inconclusive.  The group-B ports N+1..2N+1 are never measured and
    are returned, as a read-only view, for the restoration pass.

    With ``trials=None`` runs one trial seeded with ``seed``.  With an
    integer runs the trials seeded with seed, ..., seed + trials - 1 (all
    in [0, 2**64)); the ``SearchOutcome`` then has a leading trial axis
    whose row t equals the single trial ``seed + t``.
    """
    out = spec.outputs
    clicked = sample_clicks(out[1 : spec.n + 1], seed, trials)
    silent = ~clicked
    identified = np.where(silent.sum(axis=-1) == 1, silent.argmax(axis=-1) + 1, 0)
    if trials is None:
        identified = int(identified) or None
    return SearchOutcome(identified, clicked, out[spec.n + 1 :])


def restore(outcome: SearchOutcome, spec: SearchSpec) -> np.ndarray:
    """Undo the search pass, recovering the data and reference states.

    The measured group-A outputs are replenished from the same forward
    pass ``run_search`` read (extra copies of the input states through
    the same circuit), joined with the retained group-B amplitudes, and
    sent through the inverse map.  Returns the starred input vector
    (data*, ref_1*, ..., 0, ...) regardless of what the detectors clicked.
    """
    if outcome.retained.shape[0] != spec.n + 1:
        raise DimensionError(
            f"retained group has width {outcome.retained.shape[0]}, "
            f"expected {spec.n + 1}"
        )
    reassembled = np.concatenate([spec.outputs[: spec.n + 1], outcome.retained])
    return apply_matrix(spec.operator.conj().T, reassembled)


def success_probability(alpha1: complex, alpha2: complex) -> float:
    """Identification success rate for two references under equal priors:
    1 - exp(-|alpha1 - alpha2|^2 / 3), saturating at 1 when the square overflows."""
    if not (cmath.isfinite(alpha1) and cmath.isfinite(alpha2)):
        raise NonFiniteError("amplitudes must be finite")
    try:
        distance_sq = abs(complex(alpha1) - complex(alpha2)) ** 2
    except OverflowError:
        return 1.0
    return float(-np.expm1(-distance_sq / 3))


def analytic_success_probability(spec: SearchSpec) -> float:
    """Probability that the promised match's click pattern completes.

    Product of the click probabilities of the comparison ports other than
    the matching one, read from ``spec.outputs``, the forward pass the
    detectors sample (:class:`NonFiniteError` if it overflows); reduces to
    ``success_probability`` for two references.  NaN when the datum
    matches no (or several) references.
    """
    if spec.match is None:
        return float("nan")
    ports = spec.outputs[1 : spec.n + 1].tolist()
    return math.prod(click_probability(b) for j, b in enumerate(ports, 1) if j != spec.match)


def search_circuit(n: int) -> Circuit:
    """Physical mesh realizing the dilated comparison map for n references.

    The triangular mesh is kept complete (theta=0 couplers included), so
    the beamsplitter count is exactly m(m-1)/2 = (n+1)(2n+1) for the
    m = 2(n+1) modes.
    """
    return reck_decompose(dilate(comparison_map(n)), full_mesh=True)


# --- Bell-cat feasibility -------------------------------------------------

# Sign pattern t1 of the first Bell-cat component target, in units of
# alpha; the second target is t2 = -t1.
BELL_TARGETS = {"B00": (-1, -1), "B10": (1, 1), "B01": (-1, 1), "B11": (1, -1)}

_DEPENDENCE_TOL = 1e-12
_FEASIBILITY_SLACK = 1e-12
_RESIDUAL_LIMIT = 1e-9


@dataclass(frozen=True)
class BellcatResult:
    """Verdict of the Bell-cat feasibility check.

    ``contraction`` is the realizing map (None when infeasible),
    ``max_alpha`` the largest cat amplitude reachable from the same
    inputs, and ``kernel_residual`` max(|K v1 - alpha t1|, |K v2 + alpha t1|)
    / |alpha| for the returned K (0 when alpha = 0, nan when infeasible).
    """

    feasible: bool
    contraction: np.ndarray | None
    max_alpha: float
    kernel_residual: float


def bellcat_feasibility(v1, v2, alpha: complex, bell_state: str = "B00") -> BellcatResult:
    """Decide whether a contraction maps the raw pair onto a Bell-cat.

    ``v1`` and ``v2`` are the raw pair's two-mode component amplitudes and
    ``alpha`` the wanted cat amplitude.  Looks for K with K v1 = alpha t1
    and K v2 = alpha t2, where t1 is the sign pattern
    ``BELL_TARGETS[bell_state]`` and t2 = -t1.  Every such K
    sends s = v1 + v2 to 0, so it is the rank-one map K = alpha t1 r with
    r v1 = 1 = -r v2.  Independent inputs fix r = (s_2, -s_1) / det[v1 v2].
    Dependent inputs (v2 = lambda*v1) need lambda*t1 = t2 = -t1: unless
    lambda = -1 only the zero map (alpha = 0) works, and for lambda = -1
    the minimal-norm choice is r = v1^dag / |v1|^2.  K's one singular value
    is sqrt(2) |alpha| |r|, so the largest reachable amplitude is
    |det[v1 v2]| / (sqrt(2) |v1 + v2|), or |v1| / sqrt(2) when v2 = -v1,
    and feasibility is |alpha| <= max_alpha * (1 + 1e-12).
    Raises :class:`SynthesisError` when K misses an equation by over 1e-9 |alpha|.
    """
    if bell_state not in BELL_TARGETS:
        raise ValueError(f"unknown Bell-cat label {bell_state!r}")
    v1 = np.asarray(v1, dtype=complex)
    v2 = np.asarray(v2, dtype=complex)
    if v1.shape != (2,) or v2.shape != (2,):
        raise DimensionError("component vectors must have exactly two modes")
    alpha = complex(alpha)
    v = np.array([v1, v2])
    parts = v.view(float).tolist()
    for name, values in (("v1", parts[0]), ("v2", parts[1]), ("alpha", (alpha.real, alpha.imag))):
        if not math.isfinite(math.hypot(*values)):
            raise NonFiniteError(f"{name} must be finite, with a finite norm")

    # Powers of two scale exactly.  Row j of w is v_j * 2**-e_j, whose
    # largest part lies in [0.5, 1), and y is v on the larger of the two
    # scales, so no product below overflows; unit_k is 2**e times the map
    # for alpha = 1.
    e1, e2 = (math.frexp(max(map(abs, values)))[1] for values in parts)
    w, y = (
        np.ldexp(v.view(float), shift).view(complex) for shift in ([[-e1], [-e2]], -max(e1, e2))
    )
    s = y[0] + y[1]
    t1 = np.array(BELL_TARGETS[bell_state], dtype=complex)
    norm1 = np.linalg.norm(w[0])
    det = w[0, 0] * w[1, 1] - w[0, 1] * w[1, 0]
    if abs(det) > _DEPENDENCE_TOL * norm1 * np.linalg.norm(w[1]):
        # det[v1 v2] = 2**(e1 + e2) det and v1 + v2 = 2**max(e1, e2) s.  Adding
        # +0.0 turns each -0 part of a real map into +0.
        e = min(e1, e2)
        unit_k = np.outer(t1, [s[1], -s[0]]) / det + 0.0
    else:
        a, b = y[:, int(np.argmax(np.abs(y[0])))]
        anti = norm1 > 0 and abs(a + b) <= _DEPENDENCE_TOL * max(abs(a), abs(b))
        if alpha == 0 or not anti:
            feasible = alpha == 0
            return BellcatResult(
                feasible,
                np.zeros((2, 2), dtype=complex) if feasible else None,
                math.ldexp(norm1 / np.sqrt(2), e1) if anti else 0.0,
                0.0 if feasible else float("nan"),
            )
        e = e1
        unit_k = np.outer(t1, w[0].conj()) / norm1**2

    # A rank-one map's only singular value is its Frobenius norm.
    max_alpha = math.ldexp(1.0 / np.linalg.norm(unit_k), e)
    if abs(alpha) > max_alpha * (1.0 + _FEASIBILITY_SLACK):
        return BellcatResult(False, None, max_alpha, float("nan"))
    k = complex(math.ldexp(alpha.real, -e), math.ldexp(alpha.imag, -e)) * unit_k
    # Both equations K v_j = alpha t_j, in exact integers: rounding K v_j in working
    # precision would be as large as the residual of an ill-conditioned system.
    # K's row 1 is exactly t1[0] t1[1] times its row 0, and so is each target
    # entry, so row 0 and the targets +-alpha t1[0] give the residual.
    entries = np.concatenate([k[0], v1, v2, [alpha * t1[0]]]).view(float).tolist()
    ratios = [x.as_integer_ratio() for x in entries]
    bits = max(q.bit_length() for _, q in ratios) - 1  # parts: integers * 2**-bits
    a0, b0, a1, b1, *n, tr, ti = [p << bits + 1 - q.bit_length() for p, q in ratios]
    tr, ti = tr << bits, ti << bits
    worst = 0
    for (c0, d0, c1, d1), sign in ((n[:4], 1), (n[4:], -1)):  # v_j, parts interleaved
        re = a0 * c0 - b0 * d0 + a1 * c1 - b1 * d1 - sign * tr
        im = a0 * d0 + b0 * c0 + a1 * d1 + b1 * c1 - sign * ti
        worst = max(worst, re * re + im * im)
    try:  # max |K v_j - alpha t_j| / |alpha| over the entries; 0 when alpha = 0
        residual = math.sqrt(worst / max(tr * tr + ti * ti, 1))
    except OverflowError:
        residual = math.inf
    if not residual <= _RESIDUAL_LIMIT:
        # kappa([v1 v2]) from |v1|^2 + |v2|^2 and |det|, both on the scale of y.
        f, d = float(np.linalg.norm(y)) ** 2, math.ldexp(2 * abs(det), -abs(e1 - e2))
        kappa = (f + math.sqrt(max((f - d) * (f + d), 0.0))) / d if d else math.inf
        raise SynthesisError(
            f"no double-precision map meets both Bell-cat equations: residual {residual:.3e} "
            f"above {_RESIDUAL_LIMIT:.0e}, condition number of [v1 v2] {kappa:.3e}"
        )
    return BellcatResult(True, k, max_alpha, residual)

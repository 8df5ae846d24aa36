"""Reference checks of the program's outputs that do not go through the program.

Each check takes what one operation printed and wrote, plus the inputs the
benchmark generated, and returns None when the output is right or a
one-line reason when it is not.  The references are numpy products on the
generated matrices, closed-form click and success probabilities, numpy's
``default_rng(seed + trial)`` streams, and the closed forms of the phase
states and the Bell-cat amplitude bound.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass

import numpy as np

# Printed amplitudes carry 12 significant digits; meshes of up to ~100 modes
# add rounding errors near 1e-13, so 1e-9 separates rounding from a wrong value.
AMPLITUDE_TOL = 1e-9
RESIDUAL_LIMIT = 1e-9
# |z| of the empirical success rate against the analytic one.  At 5 sigma a
# correct program fails about once in 1.7 million checked operations.
Z_LIMIT = 5.0
# A uniform draw this close to its click probability could go either way
# under last-digit differences in the propagated amplitude; it is not judged.
DRAW_MARGIN = 1e-12

# Sign patterns of the two Bell-cat component targets, in units of alpha.
BELL_TARGETS = {
    "B00": ((-1, -1), (1, 1)),
    "B10": ((1, 1), (-1, -1)),
    "B01": ((-1, 1), (1, -1)),
    "B11": ((1, -1), (-1, 1)),
}


@dataclass
class Capture:
    """What one operation returned, printed and wrote."""

    codes: list
    stdout: list[str]
    stderr: list[str]
    files: dict[str, bytes | None]

    def digest(self) -> str:
        h = hashlib.sha256()
        for code, out, err in zip(self.codes, self.stdout, self.stderr):
            h.update(f"{code}\0{out}\0{err}\0".encode())
        for path in sorted(self.files):
            data = self.files[path]
            h.update(path.encode() + (b"\0-\0" if data is None else b"\0" + data + b"\0"))
        return h.hexdigest()


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def parse_amplitude_table(text: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Starred and physical columns of the CLI's amplitude table, and the rest."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("port"):
        raise ValueError("missing amplitude table header")
    starred, physical, rest = [], [], []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) == 5 and parts[0].isdigit():
            if int(parts[0]) != len(starred) + 1:
                raise ValueError(f"port labels out of order at {line!r}")
            starred.append(complex(float(parts[1]), float(parts[2])))
            physical.append(complex(float(parts[3]), float(parts[4])))
        else:
            rest.append(line)
    return np.array(starred), np.array(physical), rest


def check_synth(stdout: str, circuit_text: str | None, route: str, width: int):
    lines = stdout.splitlines()
    if route == "dilation":
        if len(lines) != 2 or not lines[0].startswith("dilated "):
            return f"expected a dilation notice and a summary line, got {lines!r}"
    elif len(lines) != 1:
        return f"expected one summary line, got {lines!r}"
    fields = _fields(lines[-1])
    if fields.get("route") != route:
        return f"route {fields.get('route')!r}, expected {route!r}"
    if fields.get("modes") != str(width):
        return f"modes {fields.get('modes')!r}, expected {width}"
    residual = float(fields["residual"])
    if not residual <= RESIDUAL_LIMIT:
        return f"compile residual {residual:.3e} above {RESIDUAL_LIMIT:.0e}"
    couplers, phases = int(fields["beamsplitters"]), int(fields["phase_shifters"])
    if couplers > width * (width - 1) // 2 or phases > width:
        return f"{couplers} couplers and {phases} phases exceed the triangular mesh"
    if circuit_text is None:
        return "no circuit file written"
    body = [line for line in circuit_text.splitlines() if line.strip()]
    if body[0] != f"width={width}" or len(body) - 1 != couplers + phases:
        return "circuit file header or element count disagrees with the summary"
    return None


def check_run(stdout: str, matrix: np.ndarray, amplitudes: np.ndarray):
    """``run`` of a synthesized ``matrix`` on starred ``amplitudes``.

    The first ``matrix.shape[1]`` ports carry the signal; any further ports
    are the dark ancillas of a dilation and must hold vacuum.
    """
    starred, physical, rest = parse_amplitude_table(stdout)
    if starred.shape != amplitudes.shape:
        return f"{starred.shape[0]} output ports, expected {amplitudes.shape[0]}"
    if np.any(physical != np.conj(starred)):
        return "physical column is not the conjugate of the starred column"
    m = matrix.shape[0]
    expected = matrix @ amplitudes[: matrix.shape[1]]
    scale = max(1.0, float(np.linalg.norm(amplitudes)))
    error = float(np.max(np.abs(starred[:m] - expected)))
    if error > AMPLITUDE_TOL * scale:
        return f"output differs from K @ a by {error:.3e}"
    photons = float(np.sum(np.abs(amplitudes) ** 2))
    if len(rest) != 1 or not rest[0].startswith("photon number:"):
        return f"expected one photon-number line, got {rest!r}"
    fields = _fields(rest[0])
    p_in, p_out = float(fields["in"]), float(fields["out"])
    printed = float(np.sum(np.abs(starred) ** 2))
    for label, value in (("in", p_in), ("out", p_out), ("printed", printed)):
        if abs(value - photons) > AMPLITUDE_TOL * max(1.0, photons):
            return f"photon number {label}={value!r} differs from {photons!r}"
    return None


def click_probabilities(references, data, c=None) -> np.ndarray:
    """Closed-form click probability of each comparison port.

    Port j carries c*(data - ref_j) with c = 1/sqrt(N+1) by default, and a
    threshold detector clicks with probability 1 - exp(-|amplitude|^2).
    """
    refs = np.asarray(references, dtype=complex)
    scale = 1.0 / math.sqrt(len(refs) + 1) if c is None else c
    return -np.expm1(-(scale * np.abs(data - refs)) ** 2)


def analytic_success(references, data, c=None) -> float:
    """Product of the click probabilities of every port but the matching one."""
    p = click_probabilities(references, data, c)
    match = [j for j, r in enumerate(references) if r == data]
    return float(np.prod(np.delete(p, match[0])))


def expected_clicks(references, data, seed: int, trials: int, c=None):
    """Click matrix (trials, N) and a mask of draws too close to call."""
    p = click_probabilities(references, data, c)
    draws = np.array([np.random.default_rng(seed + t).random(len(p)) for t in range(trials)])
    return draws < p, np.abs(draws - p) < DRAW_MARGIN


def check_search(
    stdout: str,
    csv_text: str | None,
    clicks_text: str | None,
    references,
    data: complex,
    seed: int,
    trials: int,
    z_limit: float | None = Z_LIMIT,
):
    """Every CSV record re-derived from the seeds, and the success rate.

    ``clicks_text`` is the per-click CSV when one was requested.  The z test
    is skipped (``z_limit=None``) for runs too short to test.
    """
    refs = list(references)
    n = len(refs)
    truth = refs.index(data) + 1
    analytic = analytic_success(refs, data)
    if csv_text is None:
        return "no trial CSV written"
    rows = list(csv.reader(io.StringIO(csv_text)))
    if rows[:1] != [["trial", "identified", "clicked_ports", "p_succ_analytic"]]:
        return f"unexpected CSV header {rows[:1]!r}"
    rows = rows[1:]
    if len(rows) != trials:
        return f"{len(rows)} trial records, expected {trials}"
    clicks, unsure = expected_clicks(refs, data, seed, trials)
    successes = 0
    for t, (row, clicked, skip) in enumerate(zip(rows, clicks, unsure)):
        if skip.any():
            continue
        silent = np.flatnonzero(~clicked)
        identified = str(silent[0] + 1) if len(silent) == 1 else ""
        ports = ";".join(str(j + 2) for j in np.flatnonzero(clicked))
        if row[:3] != [str(t), identified, ports]:
            return f"trial {t}: record {row[:3]!r}, expected {[str(t), identified, ports]!r}"
        if abs(float(row[3]) - analytic) > 1e-10 * max(analytic, 1e-300):
            return f"trial {t}: p_succ_analytic {row[3]} differs from {analytic!r}"
        successes += identified == str(truth)
    fields = _fields(stdout)
    if fields.get("trials") != str(trials):
        return f"summary line {stdout.strip()!r} does not report {trials} trials"
    empirical = float(fields["empirical_success"])
    if abs(empirical - successes / trials) > 5e-7 or abs(
        float(fields["analytic_success"]) - analytic
    ) > 5e-7:
        return f"summary line {stdout.strip()!r} disagrees with the records"
    if z_limit is not None:
        sigma = math.sqrt(analytic * (1 - analytic) / trials)
        z = (successes / trials - analytic) / sigma
        if abs(z) > z_limit:
            return f"empirical success {successes / trials:.6f} is {z:+.2f} sigma from {analytic:.6f}"
    if clicks_text is not None:
        rows = list(csv.reader(io.StringIO(clicks_text)))
        expected = [["trial", "port", "clicked"]] + [
            [str(t), str(j + 2), str(int(clicks[t, j]))]
            for t in range(trials)
            for j in range(n)
        ]
        for t_row, (got, want) in enumerate(zip(rows, expected)):
            if got != want and not (t_row and unsure[int(want[0]), int(want[1]) - 2]):
                return f"click record {got!r}, expected {want!r}"
        if len(rows) != len(expected):
            return f"{len(rows) - 1} click records, expected {trials * n}"
    return None


def check_phase_states(stdout: str, n: int, alpha: complex):
    """``qkd``: port k holds the physical amplitude alpha * exp(2 pi i k / n)."""
    starred, physical, rest = parse_amplitude_table(stdout)
    expected = alpha * np.exp(2j * np.pi * np.arange(n) / n)
    if physical.shape != (n,) or rest:
        return f"expected {n} amplitude rows and nothing else"
    error = float(np.max(np.abs(physical - expected)))
    if error > AMPLITUDE_TOL * max(1.0, abs(alpha)):
        return f"phase states differ from alpha*omega^k by {error:.3e}"
    if np.any(starred != np.conj(physical)):
        return "starred column is not the conjugate of the physical column"
    return None


def check_bellcat(stdout: str, v1, v2, alpha: complex, target: str, max_alpha: float):
    """``bellcat``: the verdict, the printed map and the closed-form bound.

    A feasible answer must print a contraction K with K v1 = alpha t1 and
    K v2 = alpha t2; either answer must print ``max_alpha``.
    """
    lines = stdout.splitlines()
    fields = _fields(stdout)
    printed = float(fields.get("max_alpha", "nan"))
    if not abs(printed - max_alpha) <= 1e-9 * max_alpha:
        return f"max_alpha {printed!r}, closed form {max_alpha!r}"
    feasible = abs(alpha) <= max_alpha
    if not feasible:
        return None if lines[0].startswith("infeasible") else f"expected infeasible, got {lines[0]!r}"
    if lines[0] != "feasible":
        return f"expected feasible, got {lines[0]!r}"
    k = np.array([[complex(tok) for tok in line.split()] for line in lines[1:3]])
    t1, t2 = (alpha * np.array(p, dtype=complex) for p in BELL_TARGETS[target])
    error = max(
        float(np.max(np.abs(k @ np.asarray(v1) - t1))),
        float(np.max(np.abs(k @ np.asarray(v2) - t2))),
    )
    if error > 1e-9 * max(1.0, abs(alpha)):
        return f"printed map misses the targets by {error:.3e}"
    if np.linalg.svd(k, compute_uv=False)[0] > 1 + 1e-9:
        return "printed map is not a contraction"
    if not float(fields["kernel_residual"]) <= RESIDUAL_LIMIT:
        return f"kernel residual {fields['kernel_residual']} above {RESIDUAL_LIMIT:.0e}"
    return None


def check_error(stderr: str, prefix: str):
    """A rejected input: one ``error:`` line on stderr, no traceback."""
    lines = stderr.splitlines()
    if len(lines) != 1 or not lines[0].startswith(prefix):
        return f"expected one line starting {prefix!r} on stderr, got {lines!r}"
    return None

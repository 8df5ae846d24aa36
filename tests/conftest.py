import itertools

import numpy as np

from cohcirc import Beamsplitter, Circuit, PhaseShifter, analytic_success_probability, run_search


def random_contraction(rng, size: int, sigma_max: float) -> np.ndarray:
    """Random complex matrix rescaled so its largest singular value is sigma_max."""
    z = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return z * (sigma_max / np.linalg.svd(z, compute_uv=False)[0])


def psd_root(m) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix, from eigh."""
    w, vecs = np.linalg.eigh(m)
    return (vecs * np.sqrt(np.clip(w, 0.0, None))) @ vecs.conj().T


def random_circuit(rng, width: int, n_elements: int) -> Circuit:
    """Random beamsplitter/phase-shifter sequence (unitary by construction)."""
    elements = []
    for _ in range(n_elements):
        if width >= 2 and rng.random() < 0.75:
            i, j = rng.choice(width, size=2, replace=False)
            elements.append(
                Beamsplitter(
                    int(min(i, j)),
                    int(max(i, j)),
                    float(rng.uniform(-np.pi, np.pi)),
                    float(rng.uniform(-np.pi, np.pi)),
                )
            )
        else:
            elements.append(
                PhaseShifter(int(rng.integers(width)), float(rng.uniform(-np.pi, np.pi)))
            )
    return Circuit(width, tuple(elements))


def format_matrix(m) -> str:
    """A matrix in the file format ``parse_matrix`` reads, 17 significant digits."""
    a = np.asarray(m, dtype=complex)
    rows = [" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) for row in a]
    return "\n".join([f"{a.shape[0]} {a.shape[1]}", *rows]) + "\n"


def format_amplitudes(amplitudes) -> str:
    """An amplitude vector in the file format ``parse_amplitudes`` reads."""
    vec = np.asarray(amplitudes, dtype=complex)
    return "\n".join([f"n={vec.shape[0]}", *(f"{z.real:.17g} {z.imag:.17g}" for z in vec)]) + "\n"


def random_amplitudes(rng, width: int, scale: float = 2.0) -> np.ndarray:
    return scale * (rng.standard_normal(width) + 1j * rng.standard_normal(width))


def search_csv_texts(spec, seed: int, trials: int) -> tuple[str, str]:
    """The ``search --out`` and ``--clicks-out`` texts formatted one row per
    trial from a single batch: the reference for the CLI's block writer."""
    batch = run_search(spec, seed, trials=trials)
    row_end = f",{analytic_success_probability(spec):.12g}\r\n"
    labels = [str(port + 1) for port in range(1, spec.n + 1)]
    rows = ["trial,identified,clicked_ports,p_succ_analytic\r\n"]
    records = ["trial,port,clicked\r\n"]
    for t, (k, clicked) in enumerate(zip(batch.identified.tolist(), batch.clicked.tolist())):
        rows.append(f"{t},{k or ''},{';'.join(itertools.compress(labels, clicked))}{row_end}")
        records += [f"{t},{label},{int(c)}\r\n" for label, c in zip(labels, clicked)]
    return "".join(rows), "".join(records)

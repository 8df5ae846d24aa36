import numpy as np

from cohcirc import Beamsplitter, Circuit, PhaseShifter


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


def random_amplitudes(rng, width: int, scale: float = 2.0) -> np.ndarray:
    return scale * (rng.standard_normal(width) + 1j * rng.standard_normal(width))

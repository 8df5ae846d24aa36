"""The element conventions checked against an outside model: Fock space.

A passive element whose single-photon map is S = exp(-i h) acts on Fock
space as exp(-i H), with H = sum_ij h_ij a_i^dag a_j, and sends the
coherent product state |alpha> to |S alpha>.  H conserves the total photon
number, so exp(-i H) is built with ``eigh`` one photon-number block at a
time, and no truncation enters.  Each element's h comes from its
parameters alone.  The package maps starred amplitudes by the element
matrix M, so physical amplitudes and the single-photon block must
transform by S = conj(M): the paper's correspondence.
"""

import math

import numpy as np
import pytest

from cohcirc import (
    Beamsplitter,
    Circuit,
    PhaseShifter,
    apply_circuit,
    compile_circuit,
    dilate,
    random_unitary,
    reck_decompose,
)

MAX_PHOTONS = 6
TOL = 1e-12
# Circuits with physical input amplitudes, |alpha| <= 1.  The contraction's
# ancilla, port 2 of its dilation, is in vacuum.
CASES = {
    "beamsplitter": (Circuit(2, [Beamsplitter(0, 1, 0.7, -1.1)]), (0.8 - 0.3j, -0.5 + 0.6j)),
    "phase-shifter": (Circuit(2, [PhaseShifter(1, 0.9)]), (0.8 - 0.3j, -0.5 + 0.6j)),
    "mesh": (
        reck_decompose(random_unitary(3, np.random.default_rng(7))),
        (0.8 - 0.3j, -0.5 + 0.6j, 0.4j),
    ),
    "dilated-contraction": (reck_decompose(dilate([[0.6, 0.3j]])), (0.8 - 0.3j, -0.5 + 0.6j, 0)),
}


def occupations(width: int, photons: int) -> list[tuple[int, ...]]:
    """Occupation tuples of ``width`` modes holding ``photons`` photons in all,
    most photons in mode 0 first: for one photon, in mode order."""
    if width == 1:
        return [(photons,)]
    return [
        (k, *rest) for k in range(photons, -1, -1) for rest in occupations(width - 1, photons - k)
    ]


def generator(element, width: int) -> np.ndarray:
    """The Hermitian h with single-photon map exp(-i h), from the parameters."""
    h = np.zeros((width, width), dtype=complex)
    if isinstance(element, Beamsplitter):
        # H = theta (e^{i phi} a1^dag a2 + e^{-i phi} a2^dag a1)
        h[element.mode1, element.mode2] = element.theta * np.exp(1j * element.phi)
        h[element.mode2, element.mode1] = element.theta * np.exp(-1j * element.phi)
    else:
        # H = -phi n: the physical amplitude gains e^{i phi}.
        h[element.mode, element.mode] = -element.phi
    return h


def fock_block(h: np.ndarray, basis: list[tuple[int, ...]]) -> np.ndarray:
    """exp(-i H) on one photon-number block, H = sum_ij h_ij a_i^dag a_j."""
    index = {n: k for k, n in enumerate(basis)}
    big_h = np.zeros((len(basis), len(basis)), dtype=complex)
    for col, n in enumerate(basis):
        for i, j in zip(*np.nonzero(h)):
            if n[j]:
                m = list(n)
                m[j] -= 1
                m[i] += 1
                big_h[index[tuple(m)], col] += h[i, j] * math.sqrt(n[j] * m[i])
    w, v = np.linalg.eigh(big_h)
    return (v * np.exp(-1j * w)) @ v.conj().T


def fock_unitary(circuit: Circuit, photons: int):
    """The block basis and the circuit's unitary on it, elements in order."""
    basis = occupations(circuit.width, photons)
    u = np.eye(len(basis), dtype=complex)
    for element in circuit.elements:
        u = fock_block(generator(element, circuit.width), basis) @ u
    return basis, u


def coherent_block(alpha, basis) -> np.ndarray:
    """The coherent product state |alpha>'s components on one block."""
    norm = math.exp(-sum(abs(a) ** 2 for a in alpha) / 2)
    return np.array(
        [
            norm * math.prod(a**k / math.sqrt(math.factorial(k)) for a, k in zip(alpha, n))
            for n in basis
        ]
    )


@pytest.mark.parametrize("circuit, alpha", CASES.values(), ids=CASES)
def test_coherent_output_is_the_fock_unitarys(circuit, alpha):
    out = apply_circuit(circuit, np.conj(alpha)).conj()
    for photons in range(MAX_PHOTONS + 1):
        basis, u = fock_unitary(circuit, photons)
        gap = u @ coherent_block(alpha, basis) - coherent_block(out, basis)
        assert np.abs(gap).max() <= TOL, photons


@pytest.mark.parametrize("circuit", [c for c, _ in CASES.values()], ids=CASES)
def test_single_photon_block_is_the_conjugate_map(circuit):
    _, u = fock_unitary(circuit, 1)
    m = compile_circuit(circuit)
    assert np.abs(u - m.conj()).max() <= TOL
    # The check tells the conventions apart: M itself is not the block.
    assert np.abs(u - m).max() > 0.1

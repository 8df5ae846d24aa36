"""Photodiode click model for coherent outputs.

Detectors are ideal threshold detectors: unit efficiency and no dark
counts.  They report only "at least one photon", which on a coherent
state |beta> happens with probability 1 - exp(-|beta|^2).  Sampling
uses numpy's default PCG64 generator (``np.random.default_rng``) with a
64-bit seed, drawing one uniform per amplitude in order, so a seed fixes the
whole click record, a bool array True where a port clicked, bit for
bit.  Trial t of a batch is seeded with seed + t, and its draws come from
a vectorized re-implementation of numpy's SeedSequence and PCG64 seeding
(NumPy NEP 19; O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014),
checked bit for bit against ``default_rng``.
"""

from __future__ import annotations

import cmath
import operator

import numpy as np

from .engine import as_amplitudes
from .errors import NonFiniteError


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


# SeedSequence hashes 32-bit words; hash k xors the word with the k-th
# constant of a chain and multiplies by the (k+1)-th.  The chains do not
# depend on the seed, so they are tabulated once.
def _hash_chain(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return tuple(np.array(c, dtype=np.uint32)[:, None] for c in (chain[:-1], chain[1:]))


_POOL_XOR, _POOL_MUL = _hash_chain(0x43B0D7E5, 0x931E8875, 16)
_STATE_XOR, _STATE_MUL = _hash_chain(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _16 = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_1, _11, _32, _58, _63 = (np.uint64(k) for k in (1, 11, 32, 58, 63))
_LOW32 = np.uint64(0xFFFFFFFF)
# PCG64's 128-bit multiplier as (high, low) 64-bit limbs, and the low
# limb's 32-bit halves.
_MULT_HI, _MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_MULT_LO0, _MULT_LO1 = _MULT_LO & _LOW32, _MULT_LO >> _32


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    value = (value ^ xor) * mul
    value ^= value >> _16
    return value


def _pcg_seeds(seed: int, trials: int) -> tuple[np.ndarray, ...]:
    """PCG64's (hi, lo, inc_hi, inc_lo) uint64 limbs seeded with seed + t.

    SeedSequence zero-pads a seed below 2**64 to its pool of four 32-bit
    words, hashes and cross-mixes the pool, and generates four 64-bit
    words: PCG64's initial state and stream.  The increment is the stream
    shifted left with its low bit set, and the state returned is
    increment + initial state; seeding ends with one step of it.
    """
    seeds = np.arange(trials, dtype=np.uint64) + np.uint64(seed)
    pool = np.zeros((4, trials), dtype=np.uint32)
    pool[0], pool[1] = seeds & _LOW32, seeds >> _32
    pool = _hashmix(pool, _POOL_XOR[:4], _POOL_MUL[:4])
    for src in range(4):
        # Every other word absorbs a fresh hash of word src, in word order.
        dst = [d for d in range(4) if d != src]
        k = 4 + 3 * src
        mixed = _MIX_L * pool[dst] - _MIX_R * _hashmix(
            pool[src], _POOL_XOR[k : k + 3], _POOL_MUL[k : k + 3]
        )
        pool[dst] = mixed ^ mixed >> _16
    # Eight 32-bit words cycle through the pool; (low, high) pairs make the
    # four 64-bit words.
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_XOR, _STATE_MUL).astype(np.uint64)
    state_hi, state_lo, seq_hi, seq_lo = words[0::2] | words[1::2] << _32
    inc_hi, inc_lo = seq_hi << _1 | seq_lo >> _63, seq_lo << _1 | _1
    lo = inc_lo + state_lo
    return inc_hi + state_hi + (lo < inc_lo), lo, inc_hi, inc_lo


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """State * multiplier + increment mod 2**128, on (high, low) limbs."""
    # The high limb of lo * _MULT_LO, from 32-bit halves.
    lo0, lo1 = lo & _LOW32, lo >> _32
    mid = lo1 * _MULT_LO0 + (lo0 * _MULT_LO0 >> _32)
    carry = lo1 * _MULT_LO1 + (mid >> _32) + (lo0 * _MULT_LO1 + (mid & _LOW32) >> _32)
    hi = carry + lo * _MULT_HI + hi * _MULT_LO + inc_hi
    lo = lo * _MULT_LO + inc_lo
    return hi + (lo < inc_lo), lo


def _uniforms(seed: int, trials: int, n: int) -> np.ndarray:
    """(trials, n) array whose row t is ``default_rng(seed + t).random(n)``.

    Seeds must lie in [0, 2**64).  After seeding, each draw steps PCG64's
    128-bit LCG on (high, low) uint64 limbs and takes the XSL-RR output of
    the new state; a double is its top 53 bits times 2**-53.
    """
    seed, trials = operator.index(seed), operator.index(trials)
    if trials < 0 or seed < 0 or seed + trials > 2**64:
        raise ValueError(f"seeds {seed}..{seed + trials - 1} must lie in [0, 2**64)")
    out = np.empty((trials, n))
    hi, lo, inc_hi, inc_lo = _pcg_seeds(seed, trials)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    for j in range(n):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> _58
        out[:, j] = (x >> rot | x << (-rot & _63)) >> _11
    out *= 2.0**-53
    return out


def sample_clicks(amplitudes, seed: int, trials: int | None = None) -> np.ndarray:
    """Independent Bernoulli clicks, one per amplitude in order, reproducible by seed.

    Returns bools, True where a port clicked.  With ``trials=None`` shape
    (n,), drawn from ``default_rng(seed)``.  With an integer a (trials, n)
    array whose row t holds the clicks the single draw with seed ``seed + t``
    gives; those seeds must lie in [0, 2**64).
    """
    probabilities = np.array([click_probability(b) for b in as_amplitudes(amplitudes)])
    if trials is None:
        return np.random.default_rng(seed).random(len(probabilities)) < probabilities
    return _uniforms(seed, trials, len(probabilities)) < probabilities

"""Deterministic random-number streams for parallel replications.

Stream ``i`` of base seed ``s`` is a Philox counter-based generator keyed
with ``mix64(s, i)``, the SplitMix64 finalizer applied to ``s + i*GOLDEN``.
A replication's draws depend only on (seed, index), never on which
replications ran before it, so statistics reduced over replications are
bit-identical for a given seed.

Normal variates are produced by the inverse CDF applied to uniform draws
(one uniform per variate, clipped away from {0,1} at 2^-53), so a
reimplementation that follows the same recipe matches statistically.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# clip uniforms into the open interval so ndtri stays finite
_U_LO = 2.0 ** -53
_U_HI = 1.0 - 2.0 ** -53


def mix64(seed: int, index: int) -> int:
    """SplitMix64 finalizer of ``seed + index*GOLDEN``; the stream key."""
    z = (int(seed) + int(index) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replication ``index`` of base ``seed``."""
    return np.random.Generator(np.random.Philox(key=mix64(seed, index)))


def stream_at(seed: int, index: int, offset: int) -> np.random.Generator:
    """Stream ``index`` of ``seed`` after ``offset`` uniforms (four per Philox step)."""
    gen = stream(seed, index)
    gen.bit_generator.advance(offset // 4)
    gen.random(offset % 4)
    return gen


def standard_normals(gen: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals via inverse-CDF of n uniform draws."""
    from scipy.special import ndtri  # 0.3 s to load; most commands never draw

    u = gen.random(n)
    return ndtri(np.clip(u, _U_LO, _U_HI))


def bernoulli(gen: np.random.Generator, rate: float, n: int) -> np.ndarray:
    """n Bernoulli(rate) draws as uint8, one uniform per draw."""
    return (gen.random(n) < rate).astype(np.uint8)

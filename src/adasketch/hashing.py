"""Random bucketings of the coordinate set [0, m).

Hash vectors are plain int64 arrays with values in [1, D]. Two families:

* ``equi_hash`` ranks the coordinates by a uniform permutation and cuts the
  ranks into D near-equal slabs, so every value occurs floor(m/D) or
  ceil(m/D) times and buckets are never larger than ceil(m/D).
  ``equi_buckets_of`` draws the same hash on a few designated coordinates
  only (the nonzero ones, in the preconditioned detection pass) in O(count).
* ``pairwise_hash`` uses the affine family ((a*i + b) mod P) folded onto
  [1, D]; marginals are near-uniform and any two distinct coordinates
  collide with probability at most 1/D up to O(D/P) rounding slack.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DimensionError, ParameterError
from .rng import RngStream


@lru_cache(maxsize=None)
def next_prime(n: int) -> int:
    """Smallest prime >= n (trial division; fine for the sizes used here)."""
    n = max(int(n), 2)
    candidate = n if n % 2 else n + 1
    if n == 2:
        return 2
    while True:
        limit = math.isqrt(candidate)
        for d in range(3, limit + 1, 2):
            if candidate % d == 0:
                break
        else:
            return candidate
        candidate += 2


def _check_bucket_args(m: int, buckets: int, require_le_m: bool):
    if m < 1:
        raise ParameterError("dimension m must be >= 1")
    if buckets < 1:
        raise ParameterError("bucket count must be >= 1")
    if require_le_m and buckets > m:
        raise ParameterError("equi-hash requires bucket count <= m")


def equi_hash(m: int, buckets: int, rng: RngStream, draws: int | None = None) -> np.ndarray:
    """Hash values ceil(rank * D / m) for a uniform random ranking of [0, m).

    Returns shape (m,) for a single draw, or (draws, m) when ``draws`` is
    given (independent draws, e.g. for Monte Carlo verification).
    """
    _check_bucket_args(m, buckets, require_le_m=True)
    gen = rng.generator
    if draws is None:
        ranks = gen.permutation(m) + 1
    else:
        ranks = gen.permuted(np.tile(np.arange(1, m + 1), (int(draws), 1)), axis=1)
    return (ranks * buckets + m - 1) // m


def equi_ranks(m: int, buckets: int, rng: RngStream):
    """One equi-hash draw in rank form.

    Returns ``(ranks, bounds)`` where ``ranks[i]`` is the 0-based rank of
    coordinate i under the permutation; coordinate i belongs to the bucket d
    with bounds[d] <= ranks[i] < bounds[d+1] (hash value d + 1). Sizes are
    floor(m/D) or ceil(m/D) by construction.
    """
    _check_bucket_args(m, buckets, require_le_m=True)
    ranks = rng.generator.permutation(m)
    return ranks, _equi_bounds(m, buckets)


def _equi_bounds(m: int, buckets: int) -> np.ndarray:
    return (np.arange(buckets + 1, dtype=np.int64) * m) // buckets


def equi_buckets_of(m: int, buckets: int, count: int, rng: RngStream):
    """Buckets of ``count`` designated coordinates under one equi-hash draw.

    Their ranks under a uniform permutation are an ordered uniform sample
    of [0, m), which ``Generator.choice`` draws in O(count) (Floyd's
    sampling, Bentley & Floyd, CACM 1987) instead of O(m). Returns
    ``(groups, bounds)``: ``groups[i]`` is the 0-based bucket of the i-th
    designated coordinate and ``bounds`` are those of :func:`equi_ranks`.
    """
    _check_bucket_args(m, buckets, require_le_m=True)
    if not 0 <= count <= m:
        raise ParameterError("designated coordinate count must lie in [0, m]")
    bounds = _equi_bounds(m, buckets)
    ranks = rng.generator.choice(m, size=count, replace=False)
    return np.searchsorted(bounds[1:], ranks, side="right"), bounds


def equi_partition(m: int, buckets: int, rng: RngStream):
    """One equi-hash draw as contiguous buckets.

    Returns ``(order, bounds)``: bucket d (0-based) is
    ``order[bounds[d]:bounds[d+1]]``.
    """
    ranks, bounds = equi_ranks(m, buckets, rng)
    order = np.empty(m, dtype=np.intp)
    order[ranks] = np.arange(m, dtype=np.intp)
    return order, bounds


def affine_values(indices, a: int, b: int, prime: int, buckets: int) -> np.ndarray:
    """((a*i + b) mod prime) folded to [1, buckets] by floor(residue*D/prime)+1."""
    idx = np.asarray(indices, dtype=np.int64)
    if prime * max(buckets, 1) < 2**62 and (int(idx.max(initial=0)) + 1) * a < 2**62:
        residues = (a * idx + b) % prime
        vals = residues * buckets // prime + 1
    else:
        # exact arbitrary-precision fallback for extreme bucket counts
        vals = np.array(
            [((a * int(i) + b) % prime) * buckets // prime + 1 for i in idx],
            dtype=np.int64,
        )
    return np.minimum(vals, buckets)


def draw_affine(gen: np.random.Generator, prime: int) -> tuple[int, int]:
    a = int(gen.integers(1, prime))
    b = int(gen.integers(0, prime))
    return a, b


def pairwise_hash(m: int, buckets: int, rng: RngStream, draws: int | None = None) -> np.ndarray:
    """Hash vector(s) with pairwise-independent entries, uniform-ish on [1, D]."""
    _check_bucket_args(m, buckets, require_le_m=False)
    prime = next_prime(max(m, buckets))
    gen = rng.generator
    idx = np.arange(m, dtype=np.int64)
    if draws is None:
        a, b = draw_affine(gen, prime)
        return affine_values(idx, a, b, prime, buckets)
    a = gen.integers(1, prime, size=int(draws))
    b = gen.integers(0, prime, size=int(draws))
    if prime * buckets >= 2**62 or prime * max(m, 1) >= 2**62:
        rows = [affine_values(idx, int(ai), int(bi), prime, buckets) for ai, bi in zip(a, b)]
        return np.vstack(rows)
    residues = (a[:, None] * idx[None, :] + b[:, None]) % prime
    return np.minimum(residues * buckets // prime + 1, buckets)


def bucket_of(values: np.ndarray, j: int) -> np.ndarray:
    """All coordinates sharing coordinate j's hash value (always contains j)."""
    values = np.asarray(values)
    j = int(j)
    if not 0 <= j < values.size:
        raise DimensionError(f"index {j} out of range [0, {values.size})")
    return np.flatnonzero(values == values[j])


def bucket_sizes(values: np.ndarray, buckets: int) -> np.ndarray:
    """Occurrence count of each hash value 1..buckets."""
    return np.bincount(np.asarray(values).ravel(), minlength=buckets + 1)[1:]


def hash_size_for(p: float, eps: float, delta0: float, gamma: float, m: int,
                  pairwise: bool = False) -> int:
    """Bucket count isolating an eps-large coordinate at dominance gamma.

    With this many buckets, a coordinate of magnitude >= eps in a unit
    l_p-ball vector dominates the rest of its bucket by a factor gamma
    (in l_2) with probability at least 1 - delta0. ``pairwise=True``
    selects the variant sized for pairwise-independent hashing, which
    additionally controls the bucket cardinality (defined for p <= 2).
    Capped at m, where buckets are singletons anyway.
    """
    p = float(p)
    if not (1.0 <= p < math.inf):
        raise ParameterError("p must lie in [1, inf)")
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    if not 0.0 < delta0 <= 1.0:  # delta0 = 1 is the degenerate no-guarantee size
        raise ParameterError("delta0 must lie in (0, 1]")
    if not gamma > 1.0:
        raise ParameterError("gamma must exceed 1")
    if m < 1:
        raise ParameterError("m must be >= 1")
    if pairwise:
        if p > 2.0:
            raise ParameterError("the pairwise-sized variant is defined for p <= 2")
        d = math.ceil((gamma / eps) ** p * 2.0 / delta0)
    elif p <= 2.0:
        d = math.ceil((gamma / eps) ** p / delta0)
    else:
        d = math.ceil(m ** (1.0 - 2.0 / p) * (gamma / eps) ** 2 / delta0)
    return min(d, m)

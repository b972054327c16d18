"""Random bucketings of [0, m) and the bucket rules of every detection pass.

Hash vectors are plain int64 arrays with values in [1, D]. Two families:

* ``equi_hash`` ranks the coordinates by a uniform permutation and cuts the
  ranks into D near-equal slabs at ``equi_bounds``, the one rank-to-bucket
  rule, so every value occurs floor(m/D) or ceil(m/D) times. It is the
  direct construction: the basic detection pass and the tests use it.
  ``equi_buckets_of`` is its fast path, the one the preconditioned detection
  pass runs: it draws the same hash on a few designated coordinates only
  (the nonzero ones) in O(count).
* ``pairwise_hash`` uses the affine family ((a*i + b) mod P) folded onto
  [1, D]; marginals are near-uniform and any two distinct coordinates
  collide with probability at most 1/D up to O(D/P) rounding slack. It
  labels only the coordinates it is given, and it is the label draw of each
  intermediate ``spot`` step.

Each family has one draw path, used by the algorithms and by the tests of
its law alike: a Monte Carlo check stacks single draws from one stream.
Every pass orders its rows by bucket with ``bucket_order`` and marks where
each bucket's run starts with ``run_starts``; ``sorted_union``, a stable
sort then ``run_starts``, is the one union of sorted coordinate sets.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .oracle import as_index_array
from .rng import RngStream


# the first twelve primes as Miller-Rabin bases decide primality exactly
# below 318,665,857,834,031,151,167,461 (about 3.2e23), the least composite
# that passes all twelve (Sorenson and Webster, Math. Comp. 86, 2017)
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < ``_MILLER_RABIN_LIMIT``."""
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    odd, twos = n - 1, 0
    while not odd % 2:
        odd, twos = odd // 2, twos + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def next_prime(n: int) -> int:
    """Smallest prime >= n, by deterministic Miller-Rabin; exact below
    ``_MILLER_RABIN_LIMIT``, and a ``ParameterError`` from there on."""
    candidate = max(int(n), 2)
    while candidate < _MILLER_RABIN_LIMIT:
        if _is_prime(candidate):
            return candidate
        candidate += 1
    raise ParameterError(f"next_prime is exact only below {_MILLER_RABIN_LIMIT:,}")


def _check_bucket_args(m: int, buckets: int, require_le_m: bool):
    if m < 1:
        raise ParameterError("dimension m must be >= 1")
    if buckets < 1:
        raise ParameterError("bucket count must be >= 1")
    if require_le_m and buckets > m:
        raise ParameterError("equi-hash requires bucket count <= m")


def equi_hash(m: int, buckets: int, rng: RngStream) -> np.ndarray:
    """Hash values of a uniform ranking of [0, m), cut at ``equi_bounds(m, D)``."""
    _check_bucket_args(m, buckets, require_le_m=True)
    labels = np.repeat(np.arange(1, buckets + 1, dtype=np.int64), np.diff(equi_bounds(m, buckets)))
    return rng.generator.permutation(labels)  # labels[permutation(m)]: the same swaps, no gather


def equi_bounds(m: int, buckets: int) -> np.ndarray:
    """Equi-hash bucket d (hash value d + 1) holds the ranks [bounds[d], bounds[d+1]).

    bounds[d] = floor(d m / D), computed as d (m // D) + d (m % D) // D so
    that no product leaves int64 while D^2 < 2^63; a larger D is a
    ``ParameterError`` (its bounds alone would take over 24 GB).
    """
    if buckets * buckets >= 2**63:
        raise ParameterError(f"equi-hash bounds need D^2 < 2^63, got D = {buckets}")
    d = np.arange(buckets + 1, dtype=np.int64)
    return d * (m // buckets) + d * (m % buckets) // buckets


def equi_buckets_of(bounds: np.ndarray, count: int, rng: RngStream) -> np.ndarray:
    """Buckets of ``count`` designated coordinates of [0, m) under one
    equi-hash draw into D buckets, given their rank bounds
    ``bounds = equi_bounds(m, D)`` (so m is ``bounds[-1]``).

    Their ranks under a uniform permutation are an ordered uniform sample
    of [0, m), which ``Generator.choice`` draws in O(count) (Floyd's
    sampling, Bentley & Floyd, CACM 1987) instead of O(m). Returns the
    0-based bucket of each designated coordinate, in order, as in
    :func:`equi_hash`.
    """
    m = int(bounds[-1])
    _check_bucket_args(m, bounds.size - 1, require_le_m=True)
    if not 0 <= count <= m:
        raise ParameterError("designated coordinate count must lie in [0, m]")
    ranks = rng.generator.choice(m, size=count, replace=False)
    return np.searchsorted(bounds[1:], ranks, side="right")


def bucket_order(ids: np.ndarray, count: int) -> np.ndarray:
    """The stable order that groups items by their bucket ids in [0, count):
    the same permutation in every integer dtype, so the ids are sorted in the
    narrowest one that holds them, which numpy radix-sorts up to 16 bits."""
    return np.argsort(ids.astype(np.min_scalar_type(count - 1)), kind="stable")


def run_starts(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries that start a run of equal ids."""
    starts = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    return starts


def sorted_union(arrays) -> np.ndarray:
    """The sorted distinct values of one or more sorted integer arrays: a
    stable sort of their concatenation merges the sorted pieces, and the
    first entry of each run is kept."""
    joined = np.sort(np.concatenate(arrays), kind="stable")
    return joined[run_starts(joined)]


def affine_values(indices, a: int, b: int, prime: int, buckets: int) -> np.ndarray:
    """((a*i + b) mod prime) folded to [1, buckets] by floor(residue*D/prime)+1.

    One expression on int64 while P*D and (max i + 1)*a stay below 2^62,
    and on exact Python integers (an object array) past that; a residue
    below P folds to at most D either way.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if prime * buckets >= 2**62 or (int(idx.max(initial=0)) + 1) * a >= 2**62:
        idx = idx.astype(object)
    return ((a * idx + b) % prime * buckets // prime + 1).astype(np.int64, copy=False)


def pairwise_hash(indices, m: int, buckets: int, rng: RngStream) -> np.ndarray:
    """Labels in [1, D] of ``indices``, coordinates of [0, m), under one
    draw (a, b) of the affine family modulo P = next_prime(max(m, D))."""
    _check_bucket_args(m, buckets, require_le_m=False)
    indices = as_index_array(indices, m)
    prime = next_prime(max(m, buckets))
    a = int(rng.generator.integers(1, prime))
    b = int(rng.generator.integers(0, prime))
    return affine_values(indices, a, b, prime, buckets)

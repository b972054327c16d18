"""One full detection pass over all coordinates.

``discover`` splits [0, m) into D equi-hash buckets and runs ``spot`` on
each bucket (optionally after the sign-measurement filter of
:mod:`adasketch.precondition`), returning the union of the per-bucket hits.
Sized for a sensitivity ``eps``, every coordinate with |x_j| >= eps of a
unit l_p-ball vector lands in the result with probability at least 1/2,
at a deterministic cost cap of D * 2(depth+1) measurements for the basic
variant and D * (703 + 2*depth) for the preconditioned one.

Each random layer has one direct construction and one fast path:
hashing is ``equi_hash`` and its fast path ``equi_buckets_of``, filtering
is ``precond`` and its fast path ``sign_filter``. The basic variant orders
[0, m) by the direct ``equi_hash`` with ``hashing.bucket_order``, because
``spot`` labels every member of a bucket, zero or not. The preconditioned
variant runs both fast paths: it draws only the buckets of the nonzero
coordinates and filters all buckets in one segmented pass; a zero
coordinate reaches ``spot`` only through the filter's Binomial tail, where
the filter draws it from its exact law. ``tests/test_discover.py`` checks
this pass statistically against a reference built from ``equi_hash``,
``precond`` per bucket and ``spot``.

Both variants hold their candidate sets in one flat form, built by
``candidate_sets``: the sorted sets one after another in ``coords``, with
boundaries ``cuts``. ``candidate_sets`` owns the batch: it takes every pass
``(cfg, rng)`` of a run and sign-filters consecutive preconditioned passes,
as many as fit their live rows into one ``oracle.CHUNK_ROWS`` chunk, by one
``sign_filter`` call when its iterator reaches the batch's first pass;
``adaptive.approximate`` hands each pass's sets to ``discover``. A
configuration computes its bucket bounds, bucket sizes and ``spot``
parameters once, for every pass that uses it. ``spot`` returns a set of at
most one element unchanged, at no cost and without a draw, so those sets
join the result in one slice and only larger ones go to ``spot``; a pass
whose sets are all singletons is just their sorted union. Every stream is
consumed as by a per-set loop. At desk scale all basic-variant buckets are
singletons: such a pass returns [0, m) whatever the hash, so it neither
draws the hash (its stream is private to the pass) nor calls ``spot``.

The three random components (hashing, filtering, spotting) draw from
children of ``rng`` with fixed labels, so they are independent of each
other, but two calls with the same ``rng`` replay the same draws: every
independent pass needs its own child stream (``rng.child_at("trial", t)``).
Per-set draws are consumed in ascending set order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DimensionError, ParameterError
from .hashing import bucket_order, equi_bounds, equi_buckets_of, equi_hash
from .oracle import CHUNK_ROWS, MeasurementOracle, as_count
from .precondition import precond_measurements, sign_filter
from .rng import RngStream
from .spotting import (
    SpotParams,
    shrink_depth,
    spot,
    spot_cost_cap,
    spot_heavy_hitter_constant,
)

BASIC = "basic"
PRECONDITIONED = "preconditioned"
VARIANTS = (BASIC, PRECONDITIONED)

# spot's failure probability at the two operating points, the dominance
# constants it requires there, and the sign measurements that lift
# sqrt(5)-dominance to the preconditioned one
DELTA2 = {BASIC: 1.0 / 3.0, PRECONDITIONED: 1.0 / 4.0}
GAMMA_BASIC = spot_heavy_hitter_constant(DELTA2[BASIC])
GAMMA_PRECONDITIONED = spot_heavy_hitter_constant(DELTA2[PRECONDITIONED])
PRECOND_MEASUREMENTS = precond_measurements(GAMMA_PRECONDITIONED, 1.0 / 5.0)  # 701


def _validate_peps(p: float, eps: float, m: int):
    if not (1.0 <= p < math.inf):
        raise ParameterError("p must lie in [1, inf)")
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    if as_count(m, "m") < 1:
        raise ParameterError("m must be >= 1")


def bucket_count(p: float, eps: float, m: int, variant: str = PRECONDITIONED) -> int:
    """Bucket count giving each eps-large coordinate a >= 1/2 detection chance.

    Basic variant: ceil(4 * (3075*sqrt(2 log 48))^p / eps^p) for p <= 2 and
    ceil(4 * (3075*sqrt(2 log 48))^2 * m^(1-2/p) / eps^2) for p > 2.
    Preconditioned variant: ceil(6 * 5^(p/2) / eps^p), resp.
    ceil(30 * m^(1-2/p) / eps^2). Capped at m (singleton buckets); a count
    far above m is recognised from its logarithm, so no power overflows.
    """
    _validate_peps(p, eps, m)
    p = float(p)
    r, s = min(p, 2.0), max(0.0, 1.0 - 2.0 / p)  # d = scale * m^s / eps^r
    if variant == BASIC:
        scale = 4.0 * GAMMA_BASIC**r
    elif variant == PRECONDITIONED:
        scale = 6.0 * 5.0 ** (r / 2.0)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    if math.log(scale) + (s - 1.0) * math.log(m) - r * math.log(eps) > 1.0:
        return m
    return min(math.ceil(scale * m**s * eps**-r), m)


@dataclass(frozen=True)
class DiscoverConfig:
    """Fully determined parameters of one detection pass."""

    variant: str
    eps: float
    m: int
    buckets: int
    precond_size: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}")
        if not 1 <= self.buckets <= self.m:
            raise ParameterError("bucket count must lie in [1, m]")
        if self.precond_size < 0 or (self.precond_size > 0) != (self.variant == PRECONDITIONED):
            raise ParameterError("precond_size must be >= 1 for the preconditioned "
                                 "variant and 0 for the basic one")

    @classmethod
    def for_sensitivity(cls, p: float, eps: float, m: int,
                        variant: str = PRECONDITIONED) -> "DiscoverConfig":
        """Standard parameterization for sensitivity ``eps``."""
        return cls.with_buckets(eps, m, bucket_count(p, eps, m, variant), variant)

    @classmethod
    def with_buckets(cls, eps: float, m: int, buckets: int,
                     variant: str = PRECONDITIONED) -> "DiscoverConfig":
        size = PRECOND_MEASUREMENTS if variant == PRECONDITIONED else 0
        return cls(variant=variant, eps=float(eps), m=as_count(m, "m"),
                   buckets=as_count(buckets, "bucket count"), precond_size=size)

    @property
    def delta2(self) -> float:
        """Failure probability that ``spot`` is run at."""
        return DELTA2[self.variant]

    @cached_property
    def depth(self) -> int:
        """``spot``'s shrink depth for buckets of size ceil(m / buckets)."""
        return shrink_depth(self.m / self.buckets)

    @cached_property
    def spot_params(self) -> SpotParams:
        return SpotParams(self.delta2, self.depth)

    @cached_property
    def bounds(self) -> np.ndarray:
        """Rank bounds of the equi-hash buckets (read-only): bucket d holds
        the ranks [bounds[d], bounds[d+1])."""
        bounds = equi_bounds(self.m, self.buckets)
        bounds.flags.writeable = False
        return bounds

    @cached_property
    def bucket_sizes(self) -> np.ndarray:
        """Member count of each equi-hash bucket (read-only)."""
        sizes = np.diff(self.bounds)
        sizes.flags.writeable = False
        return sizes


def discover_cost_cap(cfg: DiscoverConfig) -> int:
    """Hard upper bound on the oracle cost of one discover call."""
    return cfg.buckets * (cfg.precond_size + spot_cost_cap(cfg.spot_params))


def _spot_survivors(oracle, coords, cuts, params, spot_rng):
    """Union of ``spot`` over the sets ``coords[cuts[d]:cuts[d+1]]``, calling
    it only on sets of two or more elements, in ascending set order."""
    if cuts.size == coords.size + 1:  # every set is a singleton, which spot keeps
        return np.sort(coords)
    sizes = np.diff(cuts)
    hits = [coords[cuts[:-1][sizes == 1]]]
    for d in np.flatnonzero(sizes > 1):
        hits.append(spot(oracle, coords[cuts[d]:cuts[d + 1]], params, spot_rng))
    # the sets are disjoint and spot keeps a subset of its own set, so the
    # union has no repeats: sorting is np.unique
    return np.sort(np.concatenate(hits))


def _basic_sets(cfg: DiscoverConfig, rng: RngStream):
    """A basic pass's buckets, as ``(coords, cuts)``."""
    if cfg.buckets == cfg.m:
        # every bucket is a singleton, which spot keeps whatever the draw
        return np.arange(cfg.m), np.arange(cfg.m + 1)
    hashed = equi_hash(cfg.m, cfg.buckets, rng.child("hash"))  # values in [1, D]
    return bucket_order(hashed, cfg.buckets + 1), cfg.bounds


def candidate_sets(oracle: MeasurementOracle, passes):
    """An iterator over the candidate sets before ``spot`` of each pass
    ``(cfg, rng)`` in the list ``passes``, as one ``(coords, cuts)`` per
    pass: the sorted sets one after another in ``coords``, with boundaries
    ``cuts``. The passes must share their variant and filter size k
    (checked at the call). Preconditioned passes are sign-filtered in
    batches, each by one ``sign_filter`` call when the iterator reaches its
    first pass; each pass still draws from its own streams exactly what it
    draws alone.
    """
    if len({(cfg.variant, cfg.precond_size) for cfg, _ in passes}) > 1:
        raise ParameterError("the passes must share their variant and filter size")
    if any(cfg.m != oracle.dimension for cfg, _ in passes):
        raise DimensionError("oracle dimension does not match the configuration")
    if not passes or passes[0][0].variant == BASIC:
        return (_basic_sets(cfg, rng) for cfg, rng in passes)
    nonzero = oracle.nonzero_indices()
    # each pass filters every live row; a batch fills one chunk, or is one pass
    batch = max(1, CHUNK_ROWS // max(1, nonzero.size))

    def zero_pool():
        return np.setdiff1d(np.arange(oracle.dimension), nonzero, assume_unique=True)

    def filtered(chunk):
        inputs = [(equi_buckets_of(cfg.bounds, nonzero.size, rng.child("hash")),
                   cfg.bucket_sizes, rng.child("precond")) for cfg, rng in chunk]
        return sign_filter(oracle, nonzero, inputs, passes[0][0].precond_size, zero_pool)

    return chain.from_iterable(filtered(passes[i:i + batch]) for i in range(0, len(passes), batch))


def discover(oracle: MeasurementOracle, cfg: DiscoverConfig, rng: RngStream,
             sets=None) -> np.ndarray:
    """Run one detection pass; returns the sorted set of detected coordinates.

    ``sets`` are the pass's candidate sets when ``candidate_sets`` has
    already built them; by default they are built here.
    """
    if sets is None:
        (sets,) = candidate_sets(oracle, [(cfg, rng)])
    return _spot_survivors(oracle, *sets, cfg.spot_params, rng.child("spot"))

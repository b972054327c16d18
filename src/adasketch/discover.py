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
is ``precond`` and its fast path ``sign_filter``. The basic variant runs
the direct ``equi_hash``, because ``spot`` sees the labels of every member
of a bucket, zero or not. The preconditioned variant runs both fast paths:
it draws only the buckets of the nonzero coordinates and filters all
buckets in one segmented pass; a zero coordinate reaches ``spot`` only
through the filter's Binomial tail, where the filter draws it from its
exact law. ``tests/test_discover.py`` checks this pass statistically
against a reference built from ``equi_hash``, ``precond`` per bucket and
``spot``.

Both variants hold their candidate sets in one flat form, built by
``_candidate_sets``: the sorted sets one after another in ``coords``, with
boundaries ``cuts``. ``spot`` returns a set of at most one element
unchanged, at no cost and without a draw, so those sets join the result in
one slice and only larger ones go to ``spot``; every stream is consumed as
by a per-set loop. At desk scale all basic-variant buckets are singletons:
such a pass returns [0, m) whatever the hash, so it neither draws the hash
(its stream is private to the pass) nor calls ``spot``.

The three random components (hashing, filtering, spotting) draw from
children of ``rng`` with fixed labels, so they are independent of each
other, but two calls with the same ``rng`` replay the same draws: every
independent pass needs its own child stream (``rng.child_at("trial", t)``).
Per-set draws are consumed in ascending set order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError
from .hashing import _equi_bounds, equi_buckets_of, equi_hash
from .oracle import MeasurementOracle
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
    if m < 1:
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
        return cls(variant=variant, eps=float(eps), m=int(m), buckets=int(buckets),
                   precond_size=size)

    @property
    def delta2(self) -> float:
        """Failure probability that ``spot`` is run at."""
        return DELTA2[self.variant]

    @property
    def depth(self) -> int:
        """``spot``'s shrink depth for buckets of size ceil(m / buckets)."""
        return shrink_depth(self.m / self.buckets)

    @property
    def spot_params(self) -> SpotParams:
        return SpotParams(self.delta2, self.depth)


def discover_cost_cap(cfg: DiscoverConfig) -> int:
    """Hard upper bound on the oracle cost of one discover call."""
    return cfg.buckets * (cfg.precond_size + spot_cost_cap(cfg.spot_params))


def _spot_survivors(oracle, coords, cuts, params, spot_rng):
    """Union of ``spot`` over the sets ``coords[cuts[d]:cuts[d+1]]``, calling
    it only on sets of two or more elements, in ascending set order."""
    sizes = np.diff(cuts)
    hits = [coords[cuts[:-1][sizes == 1]]]
    for d in np.flatnonzero(sizes > 1):
        hits.append(spot(oracle, coords[cuts[d]:cuts[d + 1]], params, spot_rng))
    # the sets are disjoint and spot keeps a subset of its own set, so the
    # union has no repeats: sorting is np.unique
    return np.sort(np.concatenate(hits))


def _candidate_sets(oracle: MeasurementOracle, cfg: DiscoverConfig, rng: RngStream):
    """The pass's candidate sets before ``spot``, as ``(coords, cuts)``: the
    sorted sets one after another in ``coords``, with boundaries ``cuts``."""
    if cfg.variant == BASIC:
        if cfg.buckets == cfg.m:
            # every bucket is a singleton, which spot keeps whatever the draw
            return np.arange(cfg.m), np.arange(cfg.m + 1)
        hashed = equi_hash(cfg.m, cfg.buckets, rng.child("hash"))
        # ascending inside each bucket; a stable sort of the values in the
        # narrowest dtype holding them is the same permutation, radix-sorted
        # by numpy up to 16 bits
        coords = np.argsort(hashed.astype(np.min_scalar_type(cfg.buckets)), kind="stable")
        return coords, _equi_bounds(cfg.m, cfg.buckets)
    nonzero = oracle.nonzero_indices()
    groups, bounds = equi_buckets_of(cfg.m, cfg.buckets, nonzero.size, rng.child("hash"))
    return sign_filter(
        oracle, nonzero, groups, np.diff(bounds), cfg.precond_size, rng.child("precond"),
        lambda: np.setdiff1d(np.arange(cfg.m), nonzero, assume_unique=True),
    )


def discover(oracle: MeasurementOracle, cfg: DiscoverConfig, rng: RngStream) -> np.ndarray:
    """Run one detection pass; returns the sorted set of detected coordinates."""
    if oracle.dimension != cfg.m:
        raise DimensionError("oracle dimension does not match the configuration")
    coords, cuts = _candidate_sets(oracle, cfg, rng)
    return _spot_survivors(oracle, coords, cuts, cfg.spot_params, rng.child("spot"))

"""One full detection pass over all coordinates.

``discover`` splits [0, m) into D equi-hash buckets and runs ``spot`` on
each bucket (optionally after the sign-measurement filter of
:mod:`adasketch.precondition`), returning the union of the per-bucket hits.
Sized for a sensitivity ``eps``, every coordinate with |x_j| >= eps of a
unit l_p-ball vector lands in the result with probability at least 1/2,
at a deterministic cost cap of D * 2(depth+1) measurements for the basic
variant and D * (703 + 2*depth) for the preconditioned one.

The basic variant draws the full equi-hash permutation, because ``spot``
sees the labels of every member of a bucket, zero or not. The
preconditioned variant draws only the buckets of the nonzero coordinates
(``equi_buckets_of``) and filters all buckets in one segmented pass
(``sign_filter``); a zero coordinate reaches ``spot`` only through the
filter's Binomial tail, where the filter draws it from its exact law.
``tests/test_discover.py`` checks this pass statistically against a
reference built from ``equi_partition``, ``precond(..., materialize=True)``
per bucket and ``spot``.

Both variants hold their candidate sets in one flat form: the sorted sets
one after another in ``coords``, with boundaries ``cuts``. ``spot`` returns
a set of at most one element unchanged, at no cost and without a draw, so
those sets join the result in one slice and only larger ones go to
``spot``; every stream is consumed as by a per-set loop. At desk scale all
basic-variant buckets are singletons, and its pass calls ``spot`` never.

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
from .hashing import equi_buckets_of, equi_partition
from .oracle import MeasurementOracle
from .precondition import sign_filter
from .rng import RngStream
from .spotting import SpotParams, shrink_depth, spot, spot_cost_cap

BASIC = "basic"
PRECONDITIONED = "preconditioned"
VARIANTS = (BASIC, PRECONDITIONED)

# dominance constants required by spot at the two operating points
GAMMA_BASIC = 3075.0 * math.sqrt(2.0 * math.log(48.0))            # delta2 = 1/3
GAMMA_PRECONDITIONED = 4100.0 * math.sqrt(2.0 * math.log(64.0))   # delta2 = 1/4

PRECOND_MEASUREMENTS = 701  # precond_measurements(GAMMA_PRECONDITIONED, 1/5)


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
    p: float
    eps: float
    m: int
    buckets: int
    delta2: float
    depth: int
    precond_size: int

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}")
        if not 1 <= self.buckets <= self.m:
            raise ParameterError("bucket count must lie in [1, m]")
        if self.variant == PRECONDITIONED and self.precond_size < 1:
            raise ParameterError("preconditioned variant needs precond_size >= 1")

    @classmethod
    def for_sensitivity(cls, p: float, eps: float, m: int,
                        variant: str = PRECONDITIONED) -> "DiscoverConfig":
        """Standard parameterization for sensitivity ``eps``."""
        buckets = bucket_count(p, eps, m, variant)
        return cls.with_buckets(p, eps, m, buckets, variant)

    @classmethod
    def with_buckets(cls, p: float, eps: float, m: int, buckets: int,
                     variant: str = PRECONDITIONED) -> "DiscoverConfig":
        delta2 = 1.0 / 4.0 if variant == PRECONDITIONED else 1.0 / 3.0
        size = PRECOND_MEASUREMENTS if variant == PRECONDITIONED else 0
        return cls(variant=variant, p=float(p), eps=float(eps), m=int(m),
                   buckets=int(buckets), delta2=delta2,
                   depth=shrink_depth(m / buckets), precond_size=size)

    @property
    def spot_params(self) -> SpotParams:
        return SpotParams(self.delta2, self.depth)


def discover_cost_cap(cfg: DiscoverConfig) -> int:
    """Hard upper bound on the oracle cost of one discover call."""
    per_bucket = spot_cost_cap(cfg.spot_params)
    if cfg.variant == PRECONDITIONED:
        per_bucket += cfg.precond_size
    return cfg.buckets * per_bucket


def _spot_survivors(oracle, coords, cuts, params, spot_rng):
    """Union of ``spot`` over the sets ``coords[cuts[d]:cuts[d+1]]``, calling
    it only on sets of two or more elements, in ascending set order."""
    sizes = np.diff(cuts)
    hits = [coords[cuts[:-1][sizes == 1]]]
    for d in np.flatnonzero(sizes > 1):
        hits.append(spot(oracle, coords[cuts[d]:cuts[d + 1]], params, spot_rng))
    return np.unique(np.concatenate(hits))


def discover(oracle: MeasurementOracle, cfg: DiscoverConfig, rng: RngStream) -> np.ndarray:
    """Run one detection pass; returns the sorted set of detected coordinates."""
    if oracle.dimension != cfg.m:
        raise DimensionError("oracle dimension does not match the configuration")
    params = cfg.spot_params
    spot_rng = rng.child("spot")

    if cfg.variant == BASIC:
        order, bounds = equi_partition(cfg.m, cfg.buckets, rng.child("hash"))
        bucket = np.repeat(np.arange(cfg.buckets), np.diff(bounds))
        coords = order[np.lexsort((order, bucket))]  # ascending inside each bucket
        return _spot_survivors(oracle, coords, bounds, params, spot_rng)

    nonzero = oracle.nonzero_indices()
    groups, bounds = equi_buckets_of(cfg.m, cfg.buckets, nonzero.size, rng.child("hash"))
    coords, cuts = sign_filter(
        oracle, nonzero, groups, np.diff(bounds), cfg.precond_size, rng.child("precond"),
        lambda: np.setdiff1d(np.arange(cfg.m), nonzero, assume_unique=True),
    )
    return _spot_survivors(oracle, coords, cuts, params, spot_rng)

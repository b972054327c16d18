"""Test-vector families for the benchmark harness.

Every generated vector lies in the unit l_p ball of its family (exactly for
spike constructions, numerically for the rest). The families mirror the
structures that stress sparse-recovery methods: few equal spikes, geometric
decay, spikes over a decaying tail, the equal-mass construction that is
worst for top-k denoising, entries at many scales, uniform draws from the
ball, and zero. ``multiscale:J`` holds 2^j entries of magnitude
(1/(J·2^j))^(1/p) for each j < J, on random signs: each scale carries
1/J of the l_p mass, so its error keeps falling with the level count where
the other sparse families reach 0.

``uniform_ball`` is the uniform law on the unit l_p ball of R^m, built as in
Barthe, Guédon, Mendelson and Naor (Ann. Probab. 33, 2005): the direction
y / ||y||_p of m i.i.d. p-generalized normal coordinates (density
proportional to exp(-|t|^p)), scaled by the radius U^(1/m). Each coordinate
is drawn as ±Gamma(1/p)^(1/p) with a fair sign, as Nardon and Pianca
sample it (J. Stat. Comput. Simul. 79, 2009).

Every family but ``uniform_ball`` samples its support without replacement
(O(nnz)) and returns an ``oracle.SparseVector``; ``uniform_ball`` returns a
dense array. The stream calls are those of a dense construction, so
``np.asarray`` of a draw is that dense vector, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .oracle import SparseVector
from .rng import RngStream, rademacher

KINDS = ("spikes", "geometric", "spike_plus_tail", "uniform_ball", "zero",
         "denoise_adversarial", "multiscale")
_COUNTED_KINDS = ("spikes", "spike_plus_tail", "denoise_adversarial",
                  "multiscale")  # take ``kind:count``

_GEOMETRIC_RATIO = 0.5  # each geometric entry is this fraction of the previous one
# geometric tails are cut once entries drop below 1e-18 of the head; the
# discarded mass is far below float visibility in any norm comparison
_TAIL_LENGTH = int(math.ceil(math.log(1e-18) / math.log(_GEOMETRIC_RATIO))) + 1


@dataclass(frozen=True)
class VectorFamily:
    """A named distribution over the unit l_p ball."""

    kind: str
    p: float = 1.0
    count: int = 1  # spikes / adversarial block size / scales

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        if not (1.0 <= self.p < math.inf):
            raise ParameterError("family p must lie in [1, inf)")
        if self.count < 1:
            raise ParameterError("family count must be >= 1")

    @classmethod
    def parse(cls, text: str, p: float) -> "VectorFamily":
        """Parse CLI notation like ``spikes:4`` or ``geometric``."""
        name, colon, arg = text.partition(":")
        name = name.strip()
        if name not in KINDS:
            raise ParameterError(f"unknown family {text!r}")
        if not colon:
            return cls(kind=name, p=p)
        if name not in _COUNTED_KINDS:
            raise ParameterError(f"family {name!r} takes no count, got {text!r}")
        try:
            count = int(arg)
        except ValueError:
            raise ParameterError(f"family {text!r} needs an integer count") from None
        return cls(kind=name, p=p, count=count)

    def label(self) -> str:
        if self.kind in _COUNTED_KINDS:
            return f"{self.kind}:{self.count}"
        return self.kind


def _geometric_magnitudes(p: float, mass: float, length: int) -> np.ndarray:
    # mass = sum of |entry|^p over the full infinite tail
    head = (mass * (1.0 - _GEOMETRIC_RATIO ** p)) ** (1.0 / p)
    return head * _GEOMETRIC_RATIO ** np.arange(length)


def _sparse(m: int, where, values) -> SparseVector:
    """The vector with ``values`` at the distinct coordinates ``where``."""
    order = np.argsort(where)
    return SparseVector(m, where[order], values[order])


def gen_vector(family: VectorFamily, m: int, rng: RngStream) -> SparseVector | np.ndarray:
    """Draw one vector of dimension m from the family: a :class:`SparseVector`
    for every family but ``uniform_ball``, which is a dense array."""
    if m < 1:
        raise ParameterError("m must be >= 1")
    gen = rng.generator
    p = family.p

    if family.kind == "zero":
        return SparseVector(m, [], [])

    if family.kind == "spikes":
        k = family.count
        if k > m:
            raise ParameterError(f"spikes:{k} does not fit dimension {m}")
        where = gen.choice(m, size=k, replace=False)
        return _sparse(m, where, rademacher(gen, k) * k ** (-1.0 / p))

    if family.kind == "denoise_adversarial":
        block = 2 * family.count + 1
        if block > m:
            raise ParameterError(f"denoise_adversarial:{family.count} needs m >= {block}")
        where = gen.choice(m, size=block, replace=False)
        return _sparse(m, where, np.full(block, block ** (-1.0 / p)))

    if family.kind == "multiscale":
        scales = family.count
        if 2 ** scales - 1 > m:
            raise ParameterError(f"multiscale:{scales} needs m >= {2 ** scales - 1}")
        where = gen.choice(m, size=2 ** scales - 1, replace=False)
        sizes = 2 ** np.arange(scales)
        mags = np.repeat((1.0 / (scales * sizes)) ** (1.0 / p), sizes)
        return _sparse(m, where, rademacher(gen, where.size) * mags)

    if family.kind == "geometric":
        length = min(m, _TAIL_LENGTH)
        where = gen.choice(m, size=length, replace=False)
        mags = _geometric_magnitudes(p, 1.0, length)
        return _sparse(m, where, rademacher(gen, length) * mags)

    if family.kind == "spike_plus_tail":
        k = family.count
        length = min(m - k, _TAIL_LENGTH)
        if k + length > m or length < 1:
            raise ParameterError(f"spike_plus_tail:{k} does not fit dimension {m}")
        where = gen.choice(m, size=k + length, replace=False)
        spikes = rademacher(gen, k) * (0.5 / k) ** (1.0 / p)
        mags = _geometric_magnitudes(p, 0.5, length)
        return _sparse(m, where, np.concatenate((spikes, rademacher(gen, length) * mags)))

    # uniform_ball: direction from the p-generalized normal, radius U^(1/m)
    y = gen.gamma(1.0 / p, size=m) ** (1.0 / p)
    y = np.where(gen.random(size=m) < 0.5, -y, y) + 0.0  # + 0.0 maps -0.0 to 0.0
    norm = float(np.sum(np.abs(y) ** p)) ** (1.0 / p)
    radius = gen.uniform() ** (1.0 / m)
    return (radius / norm) * y

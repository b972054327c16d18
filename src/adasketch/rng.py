"""Deterministic labelled random streams.

All randomness in this package flows through :class:`RngStream`: one root
seed plus a path of text labels (and optional counters). Identical
``(seed, labels)`` reproduce bit-identical draws on every run; distinct
labels yield statistically independent streams. This is how logically
independent random components (hashing, sign filters, spotting, trials)
are kept independent while staying replayable.

A stream's generator is ``PCG64(SeedSequence(seed, spawn_key=path))``, with
each label hashed to a 64-bit key. The stream builds it from the uint32
entropy words that ``SeedSequence`` assembles from those arguments (the
seed's words, zero-padded to the pool size 4, then each path entry's
words), which gives the same state at half the seeding cost.
"""

from __future__ import annotations

import hashlib
import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError

_POOL_SIZE = 4  # SeedSequence's default pool size, in uint32 words


def _uint32_words(n: int) -> tuple:
    """``n`` as SeedSequence splits an integer: little-endian uint32 words."""
    words = [n & 0xFFFFFFFF]
    while n := n >> 32:
        words.append(n & 0xFFFFFFFF)
    return tuple(words)


@lru_cache(maxsize=1024)
def _label_key(label: str) -> tuple:
    """The entropy words of a label's 64-bit blake2b key."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return _uint32_words(int.from_bytes(digest, "little"))


class RngStream:
    """A lazily materialized PCG64 generator addressed by (seed, label path)."""

    __slots__ = ("seed", "_words", "_generator")

    def __init__(self, seed: int, _words: tuple | None = None):
        seed = int(seed)
        if seed < 0:
            raise ParameterError("seed must be a non-negative integer")
        self.seed = seed
        if _words is None:
            _words = _uint32_words(seed)
            _words += (0,) * (_POOL_SIZE - len(_words))
        self._words = _words
        self._generator = None

    def child(self, label: str) -> "RngStream":
        """An independent stream for the given sub-label."""
        return RngStream(self.seed, self._words + _label_key(label))

    def child_at(self, label: str, index: int) -> "RngStream":
        """An independent stream for (label, counter), e.g. per trial or per bucket."""
        index = int(index)
        if index < 0:
            raise ParameterError("stream index must be non-negative")
        return RngStream(self.seed, self._words + _label_key(label) + _uint32_words(index))

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            ss = np.random.SeedSequence(np.array(self._words, dtype=np.uint32))
            self._generator = np.random.Generator(np.random.PCG64(ss))
        return self._generator


def sign_bits(generator: np.random.Generator, rows: int, k: int) -> np.ndarray:
    """k uniform signs per row, packed: each row takes its own ceil(k/8)
    random bytes (bit 1 stands for +1, padding bits are 0), ready for
    XOR/popcount comparisons and for ``unpack_signs``."""
    rows, k = int(rows), int(k)
    packed = generator.integers(0, 256, size=(rows, (k + 7) // 8), dtype=np.uint8)
    if k % 8:
        packed[:, -1] &= np.uint8((0xFF << (8 - k % 8)) & 0xFF)
    return packed


def unpack_signs(packed: np.ndarray, k: int) -> np.ndarray:
    """The first k bits of each row of ``packed`` as float64 ±1 (bit 1 is +1)."""
    signs = np.unpackbits(packed, axis=1, count=k) * 2.0
    signs -= 1.0  # in place: one float64 block, however large
    return signs


def rademacher(generator: np.random.Generator, shape) -> np.ndarray:
    """Uniform ±1 float64 array; one raw random bit per entry."""
    shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
    count = math.prod(shape)
    return unpack_signs(sign_bits(generator, 1, count), count).reshape(shape)

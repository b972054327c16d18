"""Deterministic labelled random streams.

All randomness in this package flows through :class:`RngStream`: one root
seed plus a path of text labels (and optional counters). Identical
``(seed, labels)`` reproduce bit-identical draws on every run; distinct
labels yield statistically independent streams. This is how logically
independent random components (hashing, sign filters, spotting, trials)
are kept independent while staying replayable.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ParameterError


def _label_key(label: str) -> int:
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStream:
    """A lazily materialized PCG64 generator addressed by (seed, label path)."""

    __slots__ = ("seed", "_path", "_generator")

    def __init__(self, seed: int, _path: tuple = ()):
        seed = int(seed)
        if seed < 0:
            raise ParameterError("seed must be a non-negative integer")
        self.seed = seed
        self._path = _path
        self._generator = None

    def child(self, label: str) -> "RngStream":
        """An independent stream for the given sub-label."""
        return RngStream(self.seed, self._path + (_label_key(label),))

    def child_at(self, label: str, index: int) -> "RngStream":
        """An independent stream for (label, counter), e.g. per trial or per bucket."""
        index = int(index)
        if index < 0:
            raise ParameterError("stream index must be non-negative")
        return RngStream(self.seed, self._path + (_label_key(label), index))

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            ss = np.random.SeedSequence(self.seed, spawn_key=self._path)
            self._generator = np.random.Generator(np.random.PCG64(ss))
        return self._generator


def sign_rows(generator: np.random.Generator, rows: int, k: int):
    """A (rows, k) float64 block of uniform ±1 and the same signs packed per row.

    Each row takes its own ceil(k/8) random bytes, which are returned as the
    packed form (bit 1 stands for +1, padding bits are 0), ready for
    XOR/popcount comparisons.
    """
    rows, k = int(rows), int(k)
    packed = generator.integers(0, 256, size=(rows, (k + 7) // 8), dtype=np.uint8)
    if k % 8:
        packed[:, -1] &= np.uint8((0xFF << (8 - k % 8)) & 0xFF)
    return unpack_signs(packed, k), packed


def unpack_signs(packed: np.ndarray, k: int) -> np.ndarray:
    """The first k bits of each row of ``packed`` as float64 ±1 (bit 1 is +1)."""
    signs = np.unpackbits(packed, axis=1, count=k) * 2.0
    signs -= 1.0  # in place: one float64 block, however large
    return signs


def rademacher(generator: np.random.Generator, shape) -> np.ndarray:
    """Uniform ±1 float64 array; one raw random bit per entry."""
    shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
    return sign_rows(generator, 1, math.prod(shape))[0].reshape(shape)

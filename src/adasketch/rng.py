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

``sign_bits`` is the one raw-bit draw, used by the sign filter,
``rademacher`` and the count-sketch plan. It packs k bits per row,
ceil(k/8) bytes a row, and takes them from whole 64-bit outputs of the
stream: the same bytes and the same stream state after them as numpy's
uint8 draw, which takes them 32 bits at a time (a 32-bit draw is half a
64-bit output, and the generator buffers the other half for the next
32-bit draw).
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
    XOR/popcount comparisons and for ``unpack_signs``.

    The bytes, and the stream after them, are those of
    ``integers(0, 256, size=(rows, ceil(k/8)), dtype=uint8)``, which packs
    the little-endian bytes of 32-bit draws, four per draw; a PCG64 32-bit
    draw is the low half of a 64-bit output, then its buffered high half.
    So the bytes are drawn as whole 64-bit outputs (``random_raw``): one
    leading 32-bit draw first if a half is buffered at entry
    (``has_uint32``), and one trailing 32-bit draw if the count of halves
    left is odd, which leaves its high half buffered as the byte draw
    would.
    """
    rows, k = int(rows), int(k)
    width = (k + 7) // 8
    count = rows * width
    halves = -(-count // 4)  # the 32-bit draws of the byte draw
    words = []
    if halves and generator.bit_generator.state["has_uint32"]:
        words.append(generator.integers(0, 2**32, size=1, dtype=np.uint32))
        halves -= 1
    words.append(generator.bit_generator.random_raw(halves // 2))  # 64-bit outputs
    if halves % 2:
        words.append(generator.integers(0, 2**32, size=1, dtype=np.uint32))
    raw = [w.astype(w.dtype.newbyteorder("<"), copy=False).view(np.uint8) for w in words]
    packed = (raw[0] if len(raw) == 1 else np.concatenate(raw))[:count].reshape(rows, width)
    if k % 8:
        packed[:, -1] &= np.uint8((0xFF << (8 - k % 8)) & 0xFF)
    return packed


def unpack_signs(packed: np.ndarray, k: int) -> np.ndarray:
    """The first k bits of each row of ``packed`` as int8 ±1 (bit 1 is +1),
    shape (rows, k); the bits past k are ignored. A caller that needs
    float64 casts, exactly."""
    signs = np.unpackbits(packed, axis=1, count=k).view(np.int8)
    signs += signs
    signs -= 1
    return signs


def rademacher(generator: np.random.Generator, shape) -> np.ndarray:
    """Uniform ±1 float64 array; one raw random bit per entry."""
    shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
    count = math.prod(shape)
    return unpack_signs(sign_bits(generator, 1, count), count).reshape(shape).astype(np.float64)

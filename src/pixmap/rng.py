"""Deterministic pseudo-random numbers for reproducible experiments.

Everything random in this package flows through one documented generator so
that any single image, crop, permutation, or mapping table can be regenerated
in isolation from a 64-bit seed.

The generator is counter-based splitmix64: output ``i`` of stream ``seed`` is

    mix64((seed + (i + 1) * GOLDEN) mod 2**64)

where ``mix64`` is the splitmix64 finalizer. Because each output depends only
on (seed, i), scalar draws and vectorized bulk draws produce identical
streams, which the tests assert. The same holds across seeds:
:func:`seeded_words` draws the first n words of many streams as one
``(len(seeds), n)`` array, with the one word formula ``SplitMix64._bulk_u64``
also uses. :func:`seeded_uniforms` and :func:`seeded_permutations` build on
it, so a batch of per-sample mapping tables or tile permutations costs one
vector draw instead of one generator per sample; row k always equals what
``SplitMix64(seeds[k])`` draws.

Sub-task seeds are derived hierarchically with :func:`derive_seed`: each tag
is FNV-1a hashed, xor-folded into the running state, and re-mixed. The tag
hash is memoized in a bounded cache keyed on the tag's string, since the
same paths, epochs and names recur in every batch. Derived seeds are
recorded in run manifests so experiments decompose reproducibly.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """splitmix64 finalizer: a 64-bit bijective scrambler."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


@functools.lru_cache(maxsize=1 << 14)
def _tag_hash(tag: str) -> int:
    return fnv1a64(tag.encode("utf-8"))


def derive_seed(root: int, *tags: object) -> int:
    """Derive a sub-task seed from a root seed and a path of tags.

    Tags are stringified, so ``derive_seed(s, "crop", 3)`` and
    ``derive_seed(s, "crop", "3")`` coincide; distinct tag paths give
    unrelated streams for every practical purpose.
    """
    h = root & _MASK
    for tag in tags:
        h = mix64(h ^ _tag_hash(str(tag)))
    return h


def _words(seeds, start: int, n: int) -> np.ndarray:
    """Words ``start + 1 .. start + n`` of each stream; seeds' shape plus (n,)."""
    idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = idx * np.uint64(_GOLDEN) + np.asarray(seeds, dtype=np.uint64)[..., None]
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def _unit(words: np.ndarray, lo: float, hi: float) -> np.ndarray:
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
    if lo != 0.0 or hi != 1.0:
        u = lo + (hi - lo) * u
    return u


def _rejected(words: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Where ``randrange(m)`` would reject ``words``: at or above 2**64 - 2**64 mod m."""
    rem = (np.uint64(0) - m) % m
    return (rem != 0) & (words >= np.uint64(0) - rem)


def seeded_words(seeds, n: int) -> np.ndarray:
    """The first n words of every stream: row k is ``SplitMix64(seeds[k])``'s."""
    return _words([s & _MASK for s in seeds], 0, n)


def seeded_uniforms(seeds, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Row k equals ``SplitMix64(seeds[k]).uniforms(n, lo, hi)``."""
    return _unit(seeded_words(seeds, n), lo, hi)


def seeded_permutations(seeds, n: int) -> np.ndarray:
    """Row k is ``list(range(n))`` after ``SplitMix64(seeds[k]).shuffle``.

    Words, moduli and rejection checks are computed for the whole batch at
    once; each row then runs a plain swap loop. A row that meets a rejected
    word (probability below n / 2**64) is redone by the scalar shuffle.
    """
    if n < 2:
        return np.tile(np.arange(n), (len(seeds), 1))
    flat = []
    steps = range(n - 1, 0, -1)
    words = seeded_words(seeds, n - 1)
    m = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for i in steps
    rejected = _rejected(words, m).any(axis=1).tolist()
    for seed, row, bad in zip(seeds, (words % m).tolist(), rejected):
        items = list(range(n))
        if bad:
            SplitMix64(seed).shuffle(items)
        else:
            for i, j in zip(steps, row):
                items[i], items[j] = items[j], items[i]
        flat += items
    return np.fromiter(flat, np.intp, len(flat)).reshape(len(seeds), n)


class SplitMix64:
    """Counter-based splitmix64 stream with scalar and bulk draws.

    Scalar and bulk methods advance the same counter, so interleaving them
    never changes the underlying stream of 64-bit words.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = 0

    def next_u64(self) -> int:
        self._counter += 1
        return mix64((self.seed + self._counter * _GOLDEN) & _MASK)

    def _bulk_u64(self, n: int) -> np.ndarray:
        words = _words(self.seed, self._counter, n)
        self._counter += n
        return words

    def random(self) -> float:
        """Uniform float64 in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Vectorized uniforms over [lo, hi), same stream as scalar draws."""
        return _unit(self._bulk_u64(n), lo, hi)

    def normals(self, n: int) -> np.ndarray:
        """Standard normals via Box-Muller on consecutive uniform pairs."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs).reshape(pairs, 2).T
        r = np.sqrt(-2.0 * np.log1p(-u[0]))  # 1-u in (0,1] keeps log finite
        theta = 2.0 * math.pi * u[1]
        out = np.empty((pairs, 2))
        np.multiply(r, np.cos(theta), out=out[:, 0])
        np.multiply(r, np.sin(theta), out=out[:, 1])
        return out.reshape(-1)[:n]

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        bound = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < bound:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle, one ``randrange(i + 1)`` per step.

        The n-1 words are drawn in bulk and checked against every rejection
        bound at once. If one is rejected (each with probability below
        n / 2**64), the counter rewinds to it and the scalar path finishes the
        shuffle, so the stream and the permutation equal the scalar loop's.
        """
        n = len(items)
        if n < 2:
            return
        start = self._counter
        words = self._bulk_u64(n - 1)
        m = np.arange(n, 1, -1, dtype=np.uint64)  # i + 1 for i = n-1 .. 1
        rejected = np.flatnonzero(_rejected(words, m))
        stop = int(rejected[0]) if rejected.size else n - 1
        for i, j in zip(range(n - 1, n - 1 - stop, -1), (words[:stop] % m[:stop]).tolist()):
            items[i], items[j] = items[j], items[i]
        if stop < n - 1:
            self._counter = start + stop
            for i in range(n - 1 - stop, 0, -1):
                j = self.randrange(i + 1)
                items[i], items[j] = items[j], items[i]

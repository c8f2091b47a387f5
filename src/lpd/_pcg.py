"""numpy's ``default_rng(seed)`` shuffle in pure Python, for the CV folds.

`import numpy.random` costs a CLI job about 5 MB of resident memory, most
of it hashlib and libcrypto, which ``numpy.random.bit_generator`` loads
through ``secrets``. The folds need only a seeded shuffle, so
:class:`Pcg64` draws it here, equal bit for bit to numpy's ``Generator``:
``SeedSequence(seed)`` fills a pool of four 32-bit words and generates
four 64-bit words; PCG64 (XSL-RR output) is seeded from them;
``Generator.shuffle`` runs Fisher-Yates from the top, drawing each index
by masked rejection on the low, then the buffered high, half of each
64-bit output. NEP 19 lets a numpy release change what a ``Generator``
method draws, so the tests both compare this stream with the installed
numpy's and pin two seeds' fold ids.

Limit: a sequence of more than 2**32 items, which numpy would shuffle
with 64-bit draws, is not supported.
"""

from __future__ import annotations

import operator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_state(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)`` as Python ints."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


class Pcg64:
    """The stream of ``numpy.random.default_rng(seed)`` for a seed >= 0."""

    def __init__(self, seed: int):
        state = _seed_state(operator.index(seed))
        init_state = state[0] << 64 | state[1]
        self._inc = (state[2] << 64 | state[3]) << 1 & _MASK128 | 1
        self._state = ((self._inc + init_state) * _PCG_MULT + self._inc) & _MASK128
        self._high = None  # the buffered upper half of the last 64-bit output

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = (self._state >> 64) ^ (self._state & _MASK64)
        rot = self._state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._high is not None:
            high, self._high = self._high, None
            return high
        word = self._next64()
        self._high = word >> 32
        return word & _MASK32

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place, as ``Generator.shuffle`` does a 1-D array."""
        for i in range(len(items) - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            items[i], items[j] = items[j], items[i]

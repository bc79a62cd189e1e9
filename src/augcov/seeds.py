"""numpy's SeedSequence, PCG64 and Generator.permutation streams, bit for
bit, in pure Python: the fold shuffles and inner seeds of the evaluation
path without numpy.random, whose import costs a process and each of its
pool workers about 5 MB resident. Only the integer-entropy SeedSequence is
ported; the tests check every piece against numpy.random."""

from __future__ import annotations

from typing import NamedTuple

MASK32, MASK64, MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
POOL_SIZE = 4
INIT_A, MULT_A, INIT_B, MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341


def _words(value) -> list:
    """The uint32 words of a non-negative integer, least significant first
    (0 is one word), as SeedSequence splits its entropy and spawn key."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected non-negative integer, got {value}")
    words = [value & MASK32]
    while value := value >> 32:
        words.append(value & MASK32)
    return words


def _hash(value: int, const: int, mult: int) -> tuple:
    """SeedSequence's hash step: (hashed value, next hash constant)."""
    value ^= const
    const = const * mult & MASK32
    value = value * const & MASK32
    return value ^ value >> 16, const


class SeedSequence(NamedTuple):
    """numpy.random.SeedSequence(entropy, spawn_key=spawn_key) for an
    integer entropy >= 0 and integer spawn-key values >= 0."""

    entropy: int
    spawn_key: tuple = ()

    def generate_state(self, n_words: int) -> list:
        """generate_state(n_words) as n_words uint32 ints: numpy's pool of
        four words mixed from the entropy, padded with zeros to the pool
        size when there is a spawn key, then the spawn key."""
        entropy = _words(self.entropy)
        spawn = [word for value in self.spawn_key for word in _words(value)]
        if spawn:
            entropy += [0] * (POOL_SIZE - len(entropy))
        entropy += spawn
        const = INIT_A

        def hashmix(value):
            nonlocal const
            value, const = _hash(value, const, MULT_A)
            return value

        def mix(x, y):
            x = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
            return x ^ x >> 16

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(POOL_SIZE)]
        for src in range(POOL_SIZE):
            for dst in range(POOL_SIZE):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        for word in entropy[POOL_SIZE:]:
            for dst in range(POOL_SIZE):
                pool[dst] = mix(pool[dst], hashmix(word))
        out, const = [], INIT_B
        for i in range(n_words):
            value, const = _hash(pool[i % POOL_SIZE], const, MULT_B)
            out.append(value)
        return out


class Pcg64:
    """numpy.random.Generator(PCG64(seed_sequence)), as far as permutation
    draws: the 128-bit LCG with its XSL-RR output, each 64-bit output giving
    two 32-bit draws, low half first."""

    def __init__(self, seed_sequence: SeedSequence):
        w = seed_sequence.generate_state(8)  # four uint64: the state, then the stream
        state, seq = (w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2],
                      w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6])
        self._inc = (seq << 1 | 1) & MASK128
        self._state = ((self._inc + state) * PCG_MULT + self._inc) & MASK128
        self._high = None  # the high half of the last output, the next draw

    def _next32(self) -> int:
        if self._high is not None:
            high, self._high = self._high, None
            return high
        self._state = (self._state * PCG_MULT + self._inc) & MASK128
        x, rot = (self._state >> 64 ^ self._state) & MASK64, self._state >> 122
        x = (x >> rot | x << (64 - rot)) & MASK64
        self._high = x >> 32
        return x & MASK32

    def permutation(self, n: int) -> list:
        """Generator.permutation(n) as a list, for n <= 2**32: a Fisher-Yates
        shuffle of range(n) from the top, each swap partner drawn by masked
        rejection from 32-bit draws (numpy's random_interval)."""
        out = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            out[i], out[j] = out[j], out[i]
        return out

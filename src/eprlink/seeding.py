"""Per-trial random generators, derived in bulk.

Trial i of a batch with seed s draws from
``np.random.default_rng(np.random.SeedSequence(s).spawn(count)[i])``, bit for
bit, so any trial can be replayed from its batch seed and index.  numpy keeps
the SeedSequence algorithm stable, so the children's PCG64 seed words are
recomputed here in one pass instead of building and hashing one SeedSequence
per trial: the parent's entropy is mixed on Python ints, then every child's
spawn key (its index) is mixed in and its state generated on one uint64 array
over all indices.  The helpers work element-wise on Python ints and on such
arrays, masked to 32 bits.

``draw_below`` draws the power-of-two integers of a trial (decoy labels,
bases, bits) from the generator's float32 stream: the same values and the same
generator state as ``rng.integers``, without its Python front-end.

``numpy.random`` is imported only when generators are built: importing it
costs about 14 ms, which loading a config never pays.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator, List, Optional, Union

import numpy as np

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

# A spawn key past 32 bits would take two entropy words.
MAX_TRIALS = 1 << 32

# A float32 uniform carries 24 random bits.
MAX_DRAW_BOUND = 1 << 24


def _words32(n: int) -> List[int]:
    """A non-negative int as little-endian 32-bit words, as SeedSequence splits it."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("seed must be >= 0")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value, const: int):
    value = value ^ const
    const = const * _MULT_A & _MASK32
    value = value * const & _MASK32
    return value ^ (value >> 16), const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _mixed_pool(entropy: list) -> list:
    """SeedSequence's entropy pool for these 32-bit entropy words."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        value, const = _hashmix(entropy[i] if i < len(entropy) else 0, const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    return pool


def _state_words(pool: list, n_words: int) -> list:
    """SeedSequence.generate_state(n_words) as 32-bit words."""
    const = _INIT_B
    words = []
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        words.append(value ^ (value >> 16))
    return words


def _child_states(seed: int, count: int, start: int = 0) -> np.ndarray:
    """PCG64 seed words of SeedSequence(seed).spawn(start + count)[start:], shape (count, 4)."""
    run = _words32(seed)
    # With a spawn key, SeedSequence zero-pads the run entropy to the pool size.
    run += [0] * (_POOL_SIZE - len(run))
    keys = np.arange(start, start + count, dtype=np.uint64)
    words = _state_words(_mixed_pool(run + [keys]), 8)
    states = np.empty((count, 4), dtype=np.uint64)
    for k in range(4):
        states[:, k] = words[2 * k] | (words[2 * k + 1] << 32)
    return states


@functools.lru_cache(maxsize=None)
def _child_words_type() -> type:
    from numpy.random.bit_generator import ISeedSequence

    class _ChildWords(ISeedSequence):
        """One spawned child's PCG64 seed words, already derived."""

        __slots__ = ("_row",)

        def __init__(self, row: np.ndarray) -> None:
            self._row = row

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("only PCG64's four uint64 seed words are stored")
            return self._row

    return _ChildWords


def trial_rngs(seed: int, count: int) -> Iterator:
    """The generators of trials 0..count-1 of a batch, built one at a time."""
    from numpy.random import PCG64, Generator

    child_words = _child_words_type()
    for row in _child_states(seed, count):
        yield Generator(PCG64(child_words(row)))


def trial_rng(seed: int, index: int):
    """The generator of trial ``index`` alone: the same as that item of ``trial_rngs``."""
    from numpy.random import PCG64, Generator

    if not 0 <= operator.index(index) < MAX_TRIALS:
        raise ValueError(f"trial index must be between 0 and {MAX_TRIALS - 1}")
    return Generator(PCG64(_child_words_type()(_child_states(seed, 1, index)[0])))


def sweep_seed(seed: int, index: int) -> int:
    """The batch seed of sweep point ``index``: SeedSequence([seed, index]).generate_state(1)[0]."""
    return _state_words(_mixed_pool(_words32(seed) + _words32(index)), 1)[0]


def draw_below(rng, k: int, size: Optional[int] = None) -> Union[int, List[int]]:
    """``rng.integers(k, size=size)`` for a power of two ``k``: an int, or a list of ints.

    Exact for any numpy bit generator.  numpy bounds an integer below 2**b by
    Lemire's method: one 32-bit word times 2**b, which never rejects, so the
    value is the word's top b bits.  A float32 uniform is the same word's top
    24 bits times 2**-24, read through the same half-word buffer, so
    ``int(x * k)`` is the same value and the generator ends in the same state.
    A Python float holds a float32 exactly, the product by a power of two is
    exact, and ``int`` floors a non-negative float.  ``k`` = 1 is refused, not
    served: ``integers(1)`` draws nothing, and a float would consume a word.
    """
    if not 2 <= k <= MAX_DRAW_BOUND or k & (k - 1):
        raise ValueError(f"k must be a power of two between 2 and {MAX_DRAW_BOUND}, got {k}")
    if size is None:
        return int(rng.random(dtype=np.float32) * k)
    return [int(x * k) for x in rng.random(size, dtype=np.float32).tolist()]

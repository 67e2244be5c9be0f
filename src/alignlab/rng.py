"""Per-trial random streams for reproducible Monte Carlo.

Monte Carlo consumers derive one child stream per trial, ``spawn_generator(
master seed, trial index)``, so results do not depend on how trials are
grouped.  The hit counts read a fixed number of uniforms from each
(:func:`trial_uniforms`) and get exactly the bytes of ``spawn_generator``
without building a ``SeedSequence`` and a ``PCG64`` per trial: they hash the
spawn keys of a block of trials as uint32 arrays and set each trial's PCG64
state on one reused generator.  This relies on NumPy keeping the
``SeedSequence`` and ``PCG64`` streams stable (NEP 19); ``spawn_generator``
stays the definition and the test reference.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# Trials whose PCG64 states are derived in one array pass; bounds the work
# arrays whatever the trial count.
SEED_BLOCK = 1024

# SeedSequence's hash constants (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier (pcg64.h), fixed by NumPy's stream-stability policy.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def spawn_generator(master_seed: int, index: int) -> np.random.Generator:
    """Deterministic per-trial child stream of a master integer seed."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, one word for 0 (as SeedSequence)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash(value, const: int, mult: int):
    """One SeedSequence hash step of ``value`` (a Python int or a uint32
    array); returns the hashed value and the next hash constant."""
    nxt = const * mult & _MASK32
    value = (value ^ const) * nxt & _MASK32
    return value ^ (value >> _XSHIFT), nxt


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _master_pool(master_seed: int) -> tuple[list[int], int]:
    """Pool and running hash constant of ``SeedSequence(master_seed,
    spawn_key=(i,))`` after its run entropy, which does not depend on i."""
    entropy = _uint32_words(int(master_seed))
    entropy += [0] * (_POOL_SIZE - len(entropy))
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return pool, const


def _block_states(pool: list[int], const: int, first: int, count: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of trials first .. first + count - 1 (indices < 2^64).

    Mixes each index's spawn key into the master pool (a second, masked
    round for indices of two uint32 words), takes ``generate_state(4,
    uint64)`` and seeds PCG64 the way ``pcg64_set_seed`` does.
    """
    if first + count > 1 << 64:
        raise ValueError(f"trial indices must be < 2^64, got up to {first + count - 1}")
    index = np.arange(count, dtype=np.uint64) + np.uint64(first)
    high = (index >> np.uint64(32)).astype(np.uint32)
    with np.errstate(over="ignore"):
        mixed = [np.full(count, word, dtype=np.uint32) for word in pool]
        for word, mask in ((index.astype(np.uint32), None), (high, high != 0)):
            for dst in range(_POOL_SIZE):
                value, const = _hash(word, const, _MULT_A)
                value = _mix(mixed[dst], value)
                mixed[dst] = value if mask is None else np.where(mask, value, mixed[dst])
        words = np.empty((count, 2 * _POOL_SIZE), dtype=np.uint32)
        const = _INIT_B
        for k in range(2 * _POOL_SIZE):
            words[:, k], const = _hash(mixed[k % _POOL_SIZE], const, _MULT_B)
    # seed s = w0 << 64 | w1 and stream inc = 2 (w2 << 64 | w3) + 1; PCG64
    # then steps from state 0, adds s and steps again
    states = []
    for w0, w1, w2, w3 in words.astype("<u4").view("<u8").astype(np.uint64).tolist():
        inc = ((w2 << 65) | (w3 << 1) | 1) & _MASK128
        states.append((((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _child_states(master_seed: int, first: int, count: int) -> Iterator[tuple[int, int]]:
    """PCG64 (state, inc) of ``spawn_generator(master_seed, i)`` for i = first,
    first + 1, ..., first + count - 1, derived ``SEED_BLOCK`` trials at a time."""
    pool, const = _master_pool(master_seed)
    stop = first + count
    for start in range(first, stop, SEED_BLOCK):
        yield from _block_states(pool, const, start, min(SEED_BLOCK, stop - start))


def trial_uniforms(
    master_seed: int, first: int, trials: int, width: int, rows: int
) -> Iterator[np.ndarray]:
    """Uniforms of trials first .. first + trials - 1, ``rows`` trials at a time.

    Yields (at most ``rows``, width) arrays whose row j holds
    ``spawn_generator(master_seed, i).random(width)`` for the chunk's j-th
    trial i.  Every chunk is a view of one buffer, refilled for the next.
    """
    generator = np.random.Generator(np.random.PCG64(0))  # state set per trial
    bit_generator = generator.bit_generator
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    states = _child_states(master_seed, first, trials)
    buffer = np.empty((min(rows, trials), width))
    for start in range(0, trials, rows):
        out = buffer[: min(rows, trials - start)]
        for row, (pcg["state"], pcg["inc"]) in zip(out, states):
            bit_generator.state = state
            generator.random(out=row)
        yield out

"""Deterministic RNG plumbing shared across the package.

Draws other than shots take an integer seed, a ``SeedSequence``, a
``numpy.random.Generator`` or ``None`` (fresh OS entropy) and pass it to
``numpy.random.default_rng``; shot draws take an integer seed or ``None``
(:func:`shot_streams`). Nested experiments derive child seeds from a master
seed plus a structured key, so partial re-runs of a sweep see the same
streams.
"""
from __future__ import annotations

import zlib

import numpy as np

from .states import _integer


def _key_to_int(part) -> int:
    if isinstance(part, bool):
        raise TypeError("bool is not a valid seed-key part")
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"seed-key parts must be non-negative, got {part}")
        return int(part)
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"seed-key parts must be int or str, got {type(part).__name__}")


def derive_seed(*key) -> int:
    """Map a master seed plus a structured key to a reproducible 32-bit seed.

    ``derive_seed(master, "dataset", n, state_idx)`` always yields the same
    value for the same key, independent of any other derivations.
    """
    if not key:
        raise ValueError("derive_seed requires at least one key part")
    entropy = [_key_to_int(part) for part in key]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, np.uint32)[0])


#: Most shots one draw takes: numpy counts a multinomial draw in an int64.
MAX_SHOTS = (1 << 63) - 1


def shot_count(shots, minimum: int = 0, what: str = "shots must be an integer") -> int:
    """``shots`` as an int: the one check of every shot budget, made before
    any work. Raises ``ValueError`` unless it is an int or a numpy integer,
    not a bool, from ``minimum`` to ``MAX_SHOTS``."""
    shots = _integer(shots, what, minimum)
    if shots > MAX_SHOTS:
        raise ValueError(f"shots must be at most 2^63 - 1, the most numpy draws, got {shots}")
    return shots


def shot_streams(seed, shots: int, count: int) -> tuple[list, int | None]:
    """Child seed sequences for ``count`` shot draws, and the seed a run records.

    ``seed`` is None or an integer >= 0, never a bool. An exact (``shots =
    0``) unseeded run draws no entropy: no children, and None to record.
    Otherwise the record is the entropy of ``SeedSequence(seed)`` (``seed``
    itself, or fresh OS entropy for None); children are spawned only when
    shots are drawn.
    """
    if seed is not None:
        seed = _integer(seed, "seed must be None or an integer", 0)
    if shots == 0 and seed is None:
        return [], None
    ss = np.random.SeedSequence(seed)
    return ss.spawn(count) if shots else [], int(ss.entropy)

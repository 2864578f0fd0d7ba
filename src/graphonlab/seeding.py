"""Reproducible randomness.

All sampling in the package flows through Philox, a counter-based generator,
keyed by explicit 64-bit seeds. Sub-streams (per trial, per stage) are derived
with the splitmix64 finalizer applied to ``seed XOR index``, so trials can run
in any order or in parallel and still reproduce bit-for-bit.
"""

import numpy as np

from .errors import InvalidModel

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """splitmix64 finalizer; full-period 64-bit mixing."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _word(x, name: str) -> int:
    """x as an int if it is an integer (not a bool) in [0, 2^64), else InvalidModel."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x <= _MASK:
        raise InvalidModel(f"{name} must be an integer in [0, 2^64), got {x!r}")
    return int(x)


def derive_seed(seed: int, index: int) -> int:
    """Seed for sub-stream ``index`` of ``seed``: splitmix64(seed XOR index)."""
    return splitmix64(_word(seed, "seed") ^ _word(index, "index"))


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=_word(seed, "seed")))

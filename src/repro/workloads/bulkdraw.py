"""Bulk draws from a ``random.Random`` stream, bit-exact with ``randrange``.

Kernel data images hold hundreds of thousands of words; drawing them one
``randrange`` call at a time dominated every cold fp kernel build.
:func:`randrange_list` draws the same words in bulk from the same
MT19937 stream.  For ``k <= 32``, ``getrandbits(k)`` is one 32-bit
generator output shifted right by ``32 - k``, and ``randrange(width)``
draws ``getrandbits(width.bit_length())`` until the draw is below
``width``.  ``getrandbits(32 * n)`` returns the next *n* outputs as one
integer, least significant word first, so the same shift and rejection
rule applied to those words in numpy reproduces the scalar loop word
for word.
"""

from __future__ import annotations

import random
from typing import List

#: Generator outputs per numpy pass; small enough that the temporaries
#: of one pass stay far below the kernel data they produce.
_CHUNK = 1 << 15


def randrange_list(rng: random.Random, count: int, stop: int,
                   start: int = 0) -> List[int]:
    """``[rng.randrange(start, stop) for _ in range(count)]``, in bulk.

    *rng* is left in exactly the state the scalar loop leaves it in, so
    callers may keep drawing from it.  Ranges wider than ``2**32`` need
    several outputs per draw and are rejected, as are bounds outside
    int64.
    """
    # Imported on first use: loading numpy ahead of the rest of the
    # package at import time costs ~1 MB of resident memory per process.
    import numpy as np

    width = stop - start
    if width <= 0:
        raise ValueError(f"empty range for randrange({start}, {stop})")
    k = width.bit_length()      # randrange's own choice of k
    if k > 32 or start < -2**63 or stop > 2**63:
        raise ValueError(f"bulk draws need a range narrower than 2**32 inside "
                         f"int64, got [{start}, {stop})")
    out = [0] * max(count, 0)
    state = rng.getstate()
    have = consumed = 0
    while have < count:
        words = np.frombuffer(
            rng.getrandbits(32 * _CHUNK).to_bytes(4 * _CHUNK, "little"), dtype="<u4")
        draws = words >> (32 - k)
        accepted = np.flatnonzero(draws < width)[:count - have]
        out[have:have + len(accepted)] = (draws[accepted].astype(np.int64) + start).tolist()
        have += len(accepted)
        consumed += int(accepted[-1]) + 1 if have == count else _CHUNK
    # Rewind, then advance by exactly the outputs the scalar loop used.
    rng.setstate(state)
    rng.getrandbits(32 * consumed)
    return out

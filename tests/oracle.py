"""Brute-force nearest-codeword decoder, the tests' reference.

Enumerates every codeword of the code and picks the one closest in
Hamming distance to the received word over the non-erased positions.
No algebra beyond encoding is involved, which makes it a trustworthy
cross-check for the algebraic decoders at small code sizes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from rscodec import CodeParams, Field, ReceivedWord, encode

MAX_MESSAGES = 1 << 20


@lru_cache(maxsize=8)
def _codeword_table(field: Field, k: int) -> np.ndarray:
    params = CodeParams(field, k)
    total = field.order ** k
    table = np.empty((total, params.n), dtype=np.uint16)
    for index in range(total):
        table[index] = encode(params, _message_of_index(field, k, index))
    return table


def _message_of_index(field: Field, k: int, index: int) -> tuple[int, ...]:
    message = []
    for _ in range(k):
        message.append(index % field.order)
        index //= field.order
    return tuple(message)


def nearest_message(params: CodeParams,
                    received: ReceivedWord) -> tuple[int, ...] | None:
    """The message of the unique nearest codeword, or None on a tie.

    Distance is taken over non-erased positions only.  Only codes with
    at most 2^20 messages are accepted.
    """
    field, k = params.field, params.k
    if field.order ** k > MAX_MESSAGES:
        raise ValueError(
            f"codebook of {field.order}^{k} messages is beyond brute force")
    table = _codeword_table(field, k)
    erased = set(received.erasures)
    keep = [pos for pos in range(params.n) if pos not in erased]
    wanted = np.array([received.symbols[pos] for pos in keep], dtype=np.uint16)
    distances = np.count_nonzero(table[:, keep] != wanted, axis=1)
    candidates = np.flatnonzero(distances == distances.min())
    if len(candidates) > 1:
        return None
    return _message_of_index(field, k, int(candidates[0]))

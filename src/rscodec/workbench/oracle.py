"""Brute-force nearest-codeword reference decoder.

Enumerates every codeword of the code and picks the one closest in
Hamming distance to the received word over the non-erased positions.
No algebra beyond encoding is involved, which makes it a trustworthy
cross-check for the algebraic decoders at small code sizes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from ..codec import CodeParams, DecodeResult, FailureCause, ReceivedWord, encode
from ..galois import Field

if TYPE_CHECKING:
    import numpy as np

MAX_MESSAGES = 1 << 20


@lru_cache(maxsize=8)
def _codeword_table(field: Field, k: int) -> np.ndarray:
    import numpy as np

    params = CodeParams(field, k)
    total = field.order ** k
    table = np.empty((total, params.n), dtype=np.uint16)
    message = [0] * k
    for index in range(total):
        value = index
        for pos in range(k):
            message[pos] = value % field.order
            value //= field.order
        table[index] = encode(params, message)
    return table


def _message_of_index(field: Field, k: int, index: int) -> tuple[int, ...]:
    message = []
    for _ in range(k):
        message.append(index % field.order)
        index //= field.order
    return tuple(message)


def oracle_decode(params: CodeParams, received: ReceivedWord) -> DecodeResult:
    """Minimum-distance decode by exhaustive search.

    Distance is taken over non-erased positions only.  A tie for the
    minimum is a failure; the caller learns nothing from a coin flip.
    Only codes with at most 2^20 messages are accepted, and the field
    must be an uncounted Field (the table is cached per code).
    """
    field, k = params.field, params.k
    if type(field) is not Field:
        raise ValueError("oracle_decode requires a plain Field context")
    if field.order ** k > MAX_MESSAGES:
        raise ValueError(
            f"codebook of {field.order}^{k} messages is beyond brute force")
    symbols = tuple(received.symbols)
    if len(symbols) != params.n:
        raise ValueError(f"expected {params.n} symbols, got {len(symbols)}")

    import numpy as np

    table = _codeword_table(field, k)
    erased = set(received.erasures)
    keep = [pos for pos in range(params.n) if pos not in erased]
    wanted = np.array([symbols[pos] for pos in keep], dtype=np.uint16)
    distances = np.count_nonzero(table[:, keep] != wanted, axis=1)
    best = int(distances.min())
    candidates = np.flatnonzero(distances == best)
    if len(candidates) > 1:
        return DecodeResult.failure(FailureCause.TIE)
    return DecodeResult.of_message(
        _message_of_index(field, k, int(candidates[0])))
